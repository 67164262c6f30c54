"""A transaction's commit cut short by a power loss, at a named phase.

A commit is a run of physical writes (``TransactionalVLD``): one data
block per buffered lba, the erase of an armed power-down record, one
member map record per touched map chunk, then the commit record.  So a
phase is an ordinary ``FaultPlane`` crash point, the ``n``-th sector
run counted from a plane installed just before ``commit()``, with the
power dropped *before* it:

* ``after_data``: the data is down, no member record is --
  ``n = len(writes) + 1``;
* ``after_members``: the members are down, the commit record is not --
  ``n = len(writes) + armed + len(touched chunks) + 1``.
"""

from repro.blockdev.interpose import DeviceCrashed, FaultPlane

#: The commit phases a power loss can cut a transaction short at.
PHASES = ("after_data", "after_members")


def commit_crash_point(txn, phase: str) -> int:
    """The sector run of ``txn``'s commit that ``phase`` ends before."""
    vld, writes = txn._vld, txn._writes
    if phase == "after_data":
        return len(writes) + 1
    if phase == "after_members":
        chunks = {vld.imap.chunk_id_of(lba) for lba in writes}
        return len(writes) + vld.power_store.armed + len(chunks) + 1
    raise ValueError(f"no commit phase {phase!r}")


def crash_commit(txn, phase: str) -> DeviceCrashed:
    """Commit ``txn`` with the power lost at ``phase``; return the fault.

    The plane is cleared again before this returns, so the caller goes
    on with ``crash()`` and ``recover()`` on a disk that has power.
    """
    disk = txn._vld.disk
    FaultPlane(("sector-run", commit_crash_point(txn, phase)), "before").install(disk)
    try:
        txn.commit()
    except DeviceCrashed as fault:
        return fault
    finally:
        disk.faults = None
    raise AssertionError(f"the commit outlived a power loss {phase}")
