"""Rotational disk simulator.

This package is the substrate the whole reproduction stands on: a
sector-accurate model of a rotating disk with seek, rotation, head-switch,
track skew, SCSI command overhead, and a track buffer with read-ahead --
the mechanism set of the Dartmouth HP97560 model the paper embedded in the
Solaris kernel (Section 4.1), re-parameterisable for the Seagate ST19101.
"""

from repro.disk.specs import DiskSpec, HP97560, ST19101, DISKS
from repro.disk.geometry import DiskGeometry
from repro.disk.mechanics import DiskMechanics
from repro.disk.freemap import FreeSpaceMap
from repro.disk.cache import TrackBuffer, ReadAheadPolicy
from repro.disk.disk import Disk

__all__ = [
    "DiskSpec",
    "HP97560",
    "ST19101",
    "DISKS",
    "DiskGeometry",
    "DiskMechanics",
    "FreeSpaceMap",
    "TrackBuffer",
    "ReadAheadPolicy",
    "Disk",
]
