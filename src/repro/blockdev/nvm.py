"""A byte-addressable NVM device model.

The stable-memory tier of the NVM write-ahead log ("Boosting File
Systems Elegantly: A Transparent NVM Write-ahead Log for Disk File
Systems", PAPERS.md).  The timing model follows "Characterizing
Synchronous Writes in Stable Memory Devices": a store costs a fixed
per-access latency plus bytes over the store bandwidth, and *persistence*
is a separate, explicit step -- stores land in a volatile buffer (CPU
caches / WPQ) and only a flush moves them into the persistence domain.
A crash discards everything still outside the persistence domain, which
is exactly the failure the write-ahead tier's CRC-chained records must
tolerate.

This is a *memory*, not a :class:`~repro.blockdev.interface.BlockDevice`:
it has byte offsets, no blocks, and no idle time.  The block-level
write-ahead tier (:class:`~repro.nvm.NVWal`) is built on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.sim.clock import SimClock
from repro.sim.media import MediaImage
from repro.sim.stats import Breakdown


@dataclass(frozen=True)
class NVMSpec:
    """One stable-memory part: capacity plus the four latency knobs.

    ``load_latency``/``store_latency`` are fixed per-access costs;
    ``load_bandwidth``/``store_bandwidth`` price the byte movement; and
    ``flush_latency`` is the cost of draining the volatile buffer into
    the persistence domain (CLWB+fence on an NVDIMM, a supercap drain
    guarantee on battery-backed SRAM).
    """

    name: str = "nvdimm"
    capacity_bytes: int = 8 << 20
    load_latency: float = 300e-9
    store_latency: float = 150e-9
    load_bandwidth: float = 6.0e9
    store_bandwidth: float = 2.0e9
    flush_latency: float = 500e-9

    def __post_init__(self) -> None:
        # Each latency is charged to a Breakdown and recorded in the
        # tier's ack histogram, which take only finite, non-negative time.
        for name in ("load_latency", "store_latency", "flush_latency"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be a finite number of seconds >= 0, "
                    f"got {getattr(self, name)!r}"
                )

    def with_overrides(
        self,
        store_latency: Optional[float] = None,
        capacity_bytes: Optional[int] = None,
    ) -> "NVMSpec":
        """The CLI override hook (``--nvm-lat`` / ``--nvm-cap``)."""
        spec = self
        if store_latency is not None:
            spec = replace(spec, store_latency=store_latency)
        if capacity_bytes is not None:
            spec = replace(spec, capacity_bytes=capacity_bytes)
        return spec


#: Named parts for experiments: an NVDIMM-N (DRAM speed, fence-priced
#: persistence), battery-backed SRAM (the classic Prestoserve-style
#: accelerator board), and a slow phase-change part where the store
#: itself is the persistence cost.
NVM_SPECS = {
    "nvdimm": NVMSpec(),
    "battery-sram": NVMSpec(
        name="battery-sram",
        capacity_bytes=2 << 20,
        load_latency=200e-9,
        store_latency=200e-9,
        load_bandwidth=1.0e9,
        store_bandwidth=1.0e9,
        flush_latency=0.0,
    ),
    "slow-pcm": NVMSpec(
        name="slow-pcm",
        capacity_bytes=16 << 20,
        load_latency=1e-6,
        store_latency=3e-6,
        load_bandwidth=1.5e9,
        store_bandwidth=0.5e9,
        flush_latency=5e-6,
    ),
}


class NVMDevice:
    """Byte-addressable stable memory with an explicit persistence domain.

    Stores buffer in ``_pending`` until :meth:`flush` commits them to the
    persistent image; :meth:`load` sees the buffered stores (the CPU's
    own view), :meth:`crash` discards them (power loss).  All costs
    advance the shared simulation ``clock`` and come back as
    :class:`Breakdown` objects -- latency under ``"other"``, byte
    movement under ``"transfer"`` -- so callers fold NVM time into the
    same accounting as disk time.
    """

    def __init__(self, spec: NVMSpec, clock: SimClock) -> None:
        if spec.capacity_bytes <= 0:
            raise ValueError("NVM capacity must be positive")
        self.spec = spec
        self.clock = clock
        #: The persistence domain; a page is resident once it holds a
        #: non-zero byte.
        self._image = MediaImage(spec.capacity_bytes)
        #: Stores not yet in the persistence domain, in program order.
        self._pending: List[Tuple[int, bytes]] = []
        self.loads = 0
        self.stores = 0
        self.flushes = 0
        self.bytes_loaded = 0
        self.bytes_stored = 0
        self.stores_lost_on_crash = 0
        #: The :class:`~repro.blockdev.interpose.FaultPlane` under this
        #: medium, if any; the NVWal reports its record appends and
        #: superblock resets to it as persistence events.
        self.faults = None

    @property
    def capacity_bytes(self) -> int:
        return self.spec.capacity_bytes

    def _check(self, offset: int, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("byte count must be non-negative")
        if not (0 <= offset and offset + nbytes <= self.spec.capacity_bytes):
            raise ValueError(
                f"range [{offset}, {offset + nbytes}) outside NVM of "
                f"{self.spec.capacity_bytes} bytes"
            )

    def _charge(
        self, latency: float, nbytes: int, bandwidth: float
    ) -> Breakdown:
        breakdown = Breakdown()
        breakdown.charge("other", latency)
        if nbytes:
            breakdown.charge("transfer", nbytes / bandwidth)
        self.clock.advance(breakdown.total)
        return breakdown

    def store(self, offset: int, data: bytes) -> Breakdown:
        """Buffer a store; *not* persistent until :meth:`flush`."""
        self._check(offset, len(data))
        self._pending.append((offset, bytes(data)))
        self.stores += 1
        self.bytes_stored += len(data)
        return self._charge(
            self.spec.store_latency, len(data), self.spec.store_bandwidth
        )

    def format(self, offset: int, data: bytes) -> None:
        """The factory state: ``data`` in the persistence domain at no
        simulated cost, counted as the store and flush it stands for."""
        self._check(offset, len(data))
        self._image.store(offset, data)
        self.stores += 1
        self.bytes_stored += len(data)
        self.flushes += 1

    def load(self, offset: int, nbytes: int) -> Tuple[bytes, Breakdown]:
        """Read bytes as the CPU sees them (buffered stores included)."""
        self._check(offset, nbytes)
        view = bytearray(self._image[offset : offset + nbytes])
        for off, data in self._pending:
            lo = max(off, offset)
            hi = min(off + len(data), offset + nbytes)
            if hi > lo:
                view[lo - offset : hi - offset] = data[lo - off : hi - off]
        self.loads += 1
        self.bytes_loaded += nbytes
        cost = self._charge(
            self.spec.load_latency, nbytes, self.spec.load_bandwidth
        )
        return bytes(view), cost

    def flush(self) -> Breakdown:
        """Drain buffered stores into the persistence domain."""
        image = self._image
        for offset, data in self._pending:
            image.store(offset, data)
        self._pending = []
        self.flushes += 1
        return self._charge(self.spec.flush_latency, 0, 1.0)

    def crash(self) -> None:
        """Power loss: everything outside the persistence domain is gone."""
        self.stores_lost_on_crash += len(self._pending)
        self._pending = []

    def persisted(self, offset: int, nbytes: int) -> bytes:
        """The persistence-domain contents (untimed; tests and recovery
        assertions -- a real restart reads through :meth:`load`, whose
        buffer is empty after a crash anyway)."""
        self._check(offset, nbytes)
        return self._image[offset : offset + nbytes]

    def stats(self) -> dict:
        return {
            "loads": self.loads,
            "stores": self.stores,
            "flushes": self.flushes,
            "bytes_loaded": self.bytes_loaded,
            "bytes_stored": self.bytes_stored,
            "stores_lost_on_crash": self.stores_lost_on_crash,
        }

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"NVMDevice({self.spec.name}, {self.spec.capacity_bytes} B, "
            f"stores={self.stores}, pending={len(self._pending)})"
        )
