"""A striped volume over N independent Virtual Log Disk stacks.

The paper's VLD is a single fault domain; this layer is the LogBase
shape -- log-per-server with a partitioned map -- translated to block
devices: the logical block space is striped across N shard devices, each
a complete VLD stack (its own virtual log, indirection map, compactor,
scrubber, quarantine, and request queue), and **shards fail
independently**.  The volume's contract is partial failure:

* a crash, injected media fault, or fail-slow window on one shard never
  touches its siblings;
* I/O to healthy shards keeps flowing while a failed shard is down;
  requests that *need* the down shard pay a deterministic, bounded
  retry/backoff budget (reusing :class:`RetryPolicy` on simulated time)
  and then fail with :class:`ShardUnavailable` -- never a hang;
* reads against a shard whose :class:`ShardHealthMonitor` has tripped
  are *hedged*: the fail-slow surplus a single operation may charge is
  capped at the monitor's hedge delay, modelling a duplicate request
  racing the slow one;
* recovery is per shard -- :meth:`ShardedVolume.recover_shard` runs one
  shard's power-down/scan recovery while the others serve traffic.

**Identity contract:** a single-shard volume is a transparent
pass-through -- every operation delegates verbatim to the one shard, no
extra latency, no capacity change -- so all existing single-device
figures are provably unaffected (CI pins this byte-identical).

Striping: with stripe width ``S`` blocks and ``N`` shards, volume block
``v`` lives in stripe ``t = v // S`` at offset ``w = v % S``; stripe
``t`` maps to shard ``t % N`` at shard block ``(t // N) * S + w``.  Any
contiguous volume range therefore touches at most one contiguous range
per shard, so a volume operation fans out to at most N shard
operations.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.blockdev.interface import BlockDevice
from repro.blockdev.interpose import (
    DeviceCrashed,
    DeviceFault,
    FaultDevice,
    find_layer,
)
from repro.sim.stats import Breakdown
from repro.vlog.recovery import RecoveryOutcome, fold_outcomes
from repro.vlog.resilience.retry import RetryPolicy
from repro.volume.health import ShardHealthMonitor, median_baseline


class ShardUnavailable(DeviceFault):
    """A request needed a down shard and its retry budget ran out.

    Raised instead of letting the caller hang on a shard that will not
    answer until :meth:`ShardedVolume.recover_shard` runs; ``shard``
    names the fault domain and ``__cause__`` carries the fault that took
    the shard down (when the volume observed it).
    """


class ShardState(enum.Enum):
    HEALTHY = "healthy"
    DOWN = "down"


class ShardedVolume(BlockDevice):
    """A block device striping its space across independent VLD shards.

    Args:
        shards: The shard devices (plain VLDs or interposer-wrapped
            stacks).  All must share one block size and one
            :class:`~repro.sim.clock.SimClock` -- backoff, fail-slow
            surplus and hedged reads all spend the same simulated time.
        stripe_blocks: Stripe width in blocks.
    """

    def __init__(
        self,
        shards: Sequence[BlockDevice],
        stripe_blocks: int = 8,
    ) -> None:
        shards = list(shards)
        if not shards:
            raise ValueError("a volume needs at least one shard")
        if stripe_blocks <= 0:
            raise ValueError("stripe width must be positive")
        sizes = {shard.block_size for shard in shards}
        if len(sizes) != 1:
            raise ValueError("shards must share one block size")
        if any(shard.clock is not shards[0].clock for shard in shards):
            raise ValueError("shards must share one clock")
        self.clock = shards[0].clock
        self.shards: List[BlockDevice] = shards
        self.num_shards = len(shards)
        self.stripe_blocks = stripe_blocks
        self.block_size = shards[0].block_size
        #: Backoff schedule for requests that hit a down shard (each such
        #: request pays the full budget, then raises
        #: :class:`ShardUnavailable`).
        self.retry_policy = RetryPolicy()
        #: Cap the fail-slow surplus of reads against a shard whose health
        #: monitor has tripped (no-op for shards without a
        #: :class:`FaultDevice` layer -- there is nothing to cap).
        self.hedge_reads = True
        self._single = self.num_shards == 1
        if self._single:
            # Identity contract: one shard, zero translation.
            self.num_blocks = shards[0].num_blocks
            self.shard_rows = 0
        else:
            # Every shard contributes the same whole number of stripes,
            # so the round-robin layout is a clean bijection.
            self.shard_rows = min(s.num_blocks for s in shards) // stripe_blocks
            self.num_blocks = self.shard_rows * stripe_blocks * self.num_shards
            if self.num_blocks <= 0:
                raise ValueError("shards too small for one stripe each")
        self.states: List[ShardState] = (
            [ShardState.HEALTHY] * self.num_shards
        )
        self.monitors: List[ShardHealthMonitor] = [
            ShardHealthMonitor() for _ in range(self.num_shards)
        ]
        self._fault_layers: List[Optional[FaultDevice]] = [
            find_layer(shard, FaultDevice) for shard in shards
        ]
        self.shard_calls = [0] * self.num_shards
        self.shard_faults = [0] * self.num_shards
        self.unavailable_errors = [0] * self.num_shards
        self.hedged_reads = [0] * self.num_shards
        self.backoff_seconds = [0.0] * self.num_shards

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    @property
    def shard_capacity(self) -> int:
        """Blocks of each shard the volume actually uses."""
        if self._single:
            return self.num_blocks
        return self.shard_rows * self.stripe_blocks

    def shard_of(self, lba: int) -> Tuple[int, int]:
        """(shard index, shard block) for one volume block."""
        if self._single:
            return 0, lba
        stripe, within = divmod(lba, self.stripe_blocks)
        row, shard = divmod(stripe, self.num_shards)
        # divmod gives (stripe // N, stripe % N); shard is the remainder.
        return shard, row * self.stripe_blocks + within

    def volume_lba(self, shard: int, shard_lba: int) -> int:
        """Inverse of :meth:`shard_of` (the fsck round-trip check)."""
        if self._single:
            return shard_lba
        row, within = divmod(shard_lba, self.stripe_blocks)
        stripe = row * self.num_shards + shard
        return stripe * self.stripe_blocks + within

    def _plan(self, lba: int, count: int) -> List[Tuple[int, int, int, List[int]]]:
        """Split a volume range into per-shard runs.

        Returns ``(shard, shard_lba, count, positions)`` tuples in shard
        order; ``positions`` are the block offsets inside the volume
        range that scatter/gather against the shard run (in order).  The
        round-robin layout guarantees each shard's touched blocks form
        one contiguous run; the assert is the proof's tripwire.
        """
        per_shard: Dict[int, List[Tuple[int, int]]] = {}
        for pos in range(count):
            shard, s_lba = self.shard_of(lba + pos)
            per_shard.setdefault(shard, []).append((s_lba, pos))
        plan = []
        for shard in sorted(per_shard):
            pairs = per_shard[shard]
            start = pairs[0][0]
            assert all(
                s_lba == start + i for i, (s_lba, _) in enumerate(pairs)
            ), "striping produced a non-contiguous shard run"
            plan.append(
                (shard, start, len(pairs), [pos for _, pos in pairs])
            )
        return plan

    # ------------------------------------------------------------------
    # Degraded-mode shard dispatch
    # ------------------------------------------------------------------

    def _pay_backoff(self, index: int) -> float:
        """Advance simulated time by the full (bounded) retry budget a
        request spends probing a down shard before giving up."""
        total = 0.0
        for attempt in range(1, self.retry_policy.max_attempts):
            total += self.retry_policy.backoff(attempt)
        self.clock.advance(total)
        self.backoff_seconds[index] += total
        return total

    def _unavailable(
        self, index: int, op: str, cause: Optional[DeviceFault] = None
    ) -> ShardUnavailable:
        budget = self._pay_backoff(index)
        self.unavailable_errors[index] += 1
        error = ShardUnavailable(
            f"shard {index} unavailable (op {op!r}; gave up after "
            f"{self.retry_policy.max_attempts - 1} retries, "
            f"{budget * 1e3:.3f}ms of backoff)",
            op=op,
            shard=index,
        )
        if cause is not None:
            error.__cause__ = cause
        return error

    def _shard_call(self, index: int, op: str, *args):
        """Dispatch one operation to one shard, degraded-mode aware.

        A DOWN shard is never called (its volatile state is gone; an
        answer would be a lie) -- the request pays the retry budget and
        raises.  A crash observed *here* marks the shard DOWN so its
        siblings keep serving; other device faults are stamped with the
        shard index and propagate to the caller's own retry machinery.
        """
        if self.states[index] is ShardState.DOWN:
            raise self._unavailable(index, op)
        shard = self.shards[index]
        self.shard_calls[index] += 1
        try:
            result = getattr(shard, op)(*args)
        except DeviceCrashed as fault:
            if fault.shard is None:
                fault.shard = index
            self.states[index] = ShardState.DOWN
            self.shard_faults[index] += 1
            raise self._unavailable(index, op, cause=fault) from fault
        except DeviceFault as fault:
            if fault.shard is None:
                fault.shard = index
            self.shard_faults[index] += 1
            raise
        breakdown = result[1] if isinstance(result, tuple) else result
        if isinstance(breakdown, Breakdown):
            self.monitors[index].note(breakdown.total)
            self._calibrate_monitor(index)
        return result

    def _calibrate_monitor(self, index: int) -> None:
        """Once a shard's baseline freezes, cross-check it against the
        median sibling baseline: a shard that was *already* fail-slow
        while learning froze an inflated baseline (slow looked normal,
        so the trip comparison could never fire); calibration adopts the
        siblings' normal and trips it immediately.  One-shot per
        baseline, no-op until at least two siblings have frozen theirs."""
        monitor = self.monitors[index]
        if monitor.baseline_p99 is None or monitor.calibrated:
            return
        reference = median_baseline(
            m for i, m in enumerate(self.monitors) if i != index
        )
        if reference is None:
            return
        monitor.calibrate(reference)

    def _shard_read(self, index: int, op: str, *args):
        """A read, hedged when the shard's fail-slow monitor is tripped:
        the fault layer's per-op surplus is capped at the monitor's
        hedge delay for the duration of the call (the duplicate request
        racing the slow shard, in one deterministic clock advance)."""
        monitor = self.monitors[index]
        layer = self._fault_layers[index]
        if (
            self.hedge_reads
            and monitor.tripped
            and layer is not None
        ):
            delay = monitor.hedge_delay()
            if delay is not None:
                self.hedged_reads[index] += 1
                previous = layer.hedge_cap
                layer.hedge_cap = delay
                try:
                    return self._shard_call(index, op, *args)
                finally:
                    layer.hedge_cap = previous
        return self._shard_call(index, op, *args)

    # ------------------------------------------------------------------
    # The BlockDevice interface
    # ------------------------------------------------------------------

    def read_block(self, lba: int) -> Tuple[bytes, Breakdown]:
        if self._single:
            return self.shards[0].read_block(lba)
        self.check_lba(lba)
        shard, s_lba = self.shard_of(lba)
        return self._shard_read(shard, "read_block", s_lba)

    def read_blocks(self, lba: int, count: int) -> Tuple[bytes, Breakdown]:
        if self._single:
            return self.shards[0].read_blocks(lba, count)
        self.check_lba(lba, count)
        pieces: List[Optional[bytes]] = [None] * count
        breakdown = Breakdown()
        for shard, s_lba, s_count, positions in self._plan(lba, count):
            data, cost = self._shard_read(
                shard, "read_blocks", s_lba, s_count
            )
            breakdown.add(cost)
            for i, pos in enumerate(positions):
                pieces[pos] = data[
                    i * self.block_size : (i + 1) * self.block_size
                ]
        assert all(piece is not None for piece in pieces)
        return b"".join(pieces), breakdown  # type: ignore[arg-type]

    def write_block(self, lba: int, data: Optional[bytes] = None) -> Breakdown:
        if self._single:
            return self.shards[0].write_block(lba, data)
        self.check_lba(lba)
        data = self.check_data(data, 1)
        shard, s_lba = self.shard_of(lba)
        return self._shard_call(shard, "write_block", s_lba, data)

    def write_blocks(
        self, lba: int, count: int, data: Optional[bytes] = None
    ) -> Breakdown:
        if self._single:
            return self.shards[0].write_blocks(lba, count, data)
        self.check_lba(lba, count)
        data = self.check_data(data, count)
        breakdown = Breakdown()
        for shard, s_lba, s_count, positions in self._plan(lba, count):
            piece = b"".join(
                data[pos * self.block_size : (pos + 1) * self.block_size]
                for pos in positions
            )
            breakdown.add(
                self._shard_call(
                    shard, "write_blocks", s_lba, s_count, piece
                )
            )
        return breakdown

    def write_partial(self, lba: int, offset: int, data: bytes) -> Breakdown:
        if self._single:
            return self.shards[0].write_partial(lba, offset, data)
        self.check_lba(lba)
        shard, s_lba = self.shard_of(lba)
        return self._shard_call(shard, "write_partial", s_lba, offset, data)

    def trim(self, lba: int, count: int = 1) -> Breakdown:
        if self._single:
            return self.shards[0].trim(lba, count)
        self.check_lba(lba, count)
        breakdown = Breakdown()
        for shard, s_lba, s_count, _ in self._plan(lba, count):
            breakdown.add(self._shard_call(shard, "trim", s_lba, s_count))
        return breakdown

    def idle(self, seconds: float) -> None:
        """Grant idle time to every healthy shard, in shard order.

        Real shards would scrub/compact concurrently; the shared-clock
        model serializes the grants (conservative: total elapsed time is
        an upper bound).  DOWN shards are skipped -- a crashed drive
        does no background work -- and a shard that crashes *during* its
        grant is marked DOWN without disturbing its siblings' turns.
        """
        if self._single:
            self.shards[0].idle(seconds)
            return
        for index, shard in enumerate(self.shards):
            if self.states[index] is ShardState.DOWN:
                continue
            try:
                shard.idle(seconds)
            except DeviceCrashed as fault:
                if fault.shard is None:
                    fault.shard = index
                self.states[index] = ShardState.DOWN
                self.shard_faults[index] += 1

    # ------------------------------------------------------------------
    # Fault domains: crash / recovery, per shard and volume-wide
    # ------------------------------------------------------------------

    def crash_shard(self, index: int) -> None:
        """Abrupt single-shard failure: its volatile state is gone, its
        siblings never notice."""
        self.shards[index].crash()
        self.states[index] = ShardState.DOWN

    def recover_shard(self, index: int) -> RecoveryOutcome:
        """Bring one shard back: discard its volatile state, run the
        standard power-down/scan recovery, and re-arm its health
        monitor.  Siblings serve traffic throughout (nothing here
        touches them).  Returns the shard's
        :class:`~repro.vlog.recovery.RecoveryOutcome`."""
        shard = self.shards[index]
        shard.crash()
        outcome = shard.recover()
        self.monitors[index].reset()
        self.states[index] = ShardState.HEALTHY
        return outcome

    def crash(self) -> None:
        """Whole-volume power loss: every shard crashes."""
        for index in range(self.num_shards):
            self.crash_shard(index)

    def recover(self) -> RecoveryOutcome:
        """Recover every shard (volume-wide restart); returns the
        per-shard outcomes folded into one, in shard order on its
        ``parts``.  The volume has no commit point of its own."""
        if self._single:
            # Pass-through: identical call sequence to a plain VLD.
            outcome = self.shards[0].recover()
            self.states[0] = ShardState.HEALTHY
            return outcome
        return fold_outcomes([
            self.recover_shard(index)
            for index in range(self.num_shards)
        ])

    def flush(self) -> Breakdown:
        """Make every healthy shard's acknowledged writes durable."""
        breakdown = Breakdown()
        for index, shard in enumerate(self.shards):
            if self.states[index] is not ShardState.DOWN:
                breakdown.add(shard.flush())
        return breakdown

    def power_down(self) -> Breakdown:
        """Orderly shutdown of every healthy shard (a DOWN shard cannot
        persist its tail -- it recovers by scan, as a real drive would)."""
        if self._single:
            return self.shards[0].power_down()
        breakdown = Breakdown()
        for index, shard in enumerate(self.shards):
            if self.states[index] is ShardState.DOWN:
                continue
            breakdown.add(shard.power_down())
        return breakdown

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while any shard is DOWN."""
        return any(state is ShardState.DOWN for state in self.states)

    def shard_stats(self) -> List[Dict[str, object]]:
        """Per-shard accounting for reports and torture artifacts."""
        return [
            {
                "shard": index,
                "state": self.states[index].value,
                "calls": self.shard_calls[index],
                "faults": self.shard_faults[index],
                "unavailable": self.unavailable_errors[index],
                "hedged_reads": self.hedged_reads[index],
                "backoff_seconds": self.backoff_seconds[index],
                "health": self.monitors[index].stats(),
            }
            for index in range(self.num_shards)
        ]

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        states = "".join(
            "H" if state is ShardState.HEALTHY else "D"
            for state in self.states
        )
        return (
            f"ShardedVolume(shards={self.num_shards}, "
            f"stripe={self.stripe_blocks}, states={states})"
        )
