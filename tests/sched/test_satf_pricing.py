"""SATF predicted-cost vs charged-cost property tests.

The drift this pins: SATF used to price the rotational wait at
``now + (scsi + positioning)`` while the service path advances the clock
as ``(now + scsi) + positioning`` -- two float expressions that differ by
an ulp often enough for the *predicted* access time to disagree with the
*charged* one.  The policy now prices in service order, so for
single-track requests the prediction must equal the locate + transfer
the disk actually charges when that request is serviced next -- exactly,
not approximately.  ``predicted_cost`` below is the one-request scalar
reference (it was ``SATFPolicy.predicted_cost`` while the policy kept an
oracle of its own); any table-vs-scalar pricing divergence shows up here
at the source.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.disk.disk import Disk
from repro.disk.specs import HP97560, ST19101
from repro.sched.policies import SATFPolicy
from repro.sched.scheduler import DiskRequest
from tests.disk.scalar_mechanics import ScalarMechanics

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_SPECS = {"hp97560": HP97560, "st19101": ST19101}


def predicted_cost(req, disk) -> float:
    """The access time ``pick`` should attribute to ``req``: the scalar
    reference composed in the exact order ``Disk._position_and_transfer``
    will charge it."""
    return ScalarMechanics(disk.geometry).price(
        disk.clock.now,
        disk.head_cylinder,
        disk.head_head,
        req.sector,
        extra=disk.spec.scsi_overhead if req.charge_scsi else 0.0,
    )


def _request(disk, sector, count, charge_scsi, seq):
    return DiskRequest(
        "write", sector, count, None, charge_scsi, seq, disk.clock.now
    )


def _single_track_starts(disk, rng_sectors):
    """Clamp random sectors so a ``count``-sector write stays on one track
    (multi-track requests are priced on their first track only -- an
    estimate the property deliberately excludes)."""
    n = disk.geometry.sectors_per_track
    out = []
    for sector, count in rng_sectors:
        offset = sector % n
        if offset + count > n:
            sector -= offset + count - n
        out.append((sector, count))
    return out


@st.composite
def pricing_cases(draw):
    spec_name = draw(st.sampled_from(sorted(_SPECS)))
    head_cyl = draw(st.integers(min_value=0, max_value=5))
    head_head = draw(st.integers(min_value=0, max_value=3))
    start = draw(st.floats(min_value=0.0, max_value=2.0,
                           allow_nan=False, allow_infinity=False))
    raw = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=1, max_value=8),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return spec_name, head_cyl, head_head, start, raw


class TestPredictionEqualsCharge:
    @given(pricing_cases(), st.booleans())
    @_SETTINGS
    def test_drive_internal_prediction_is_exact(self, case, boundary):
        """For drive-internal (``charge_scsi=False``) single-track
        requests, the predicted cost plus media transfer equals the
        locate + transfer the disk charges for that request, bitwise."""
        spec_name, head_cyl, head_head, start, raw = case
        disk = Disk(_SPECS[spec_name], store_data=False)
        disk.head_cylinder = head_cyl % disk.geometry.num_cylinders
        disk.head_head = head_head % disk.geometry.tracks_per_cylinder
        if boundary:
            # Park the clock one float above a rotation boundary -- the
            # regime the rotational normalization exists for.
            k = 1 + int(start * 1000)
            disk.clock.advance(
                math.nextafter(k * disk.spec.rotation_time, math.inf)
            )
        else:
            disk.clock.advance(start)
        raw = [(s % (disk.total_sectors - 8), c) for s, c in raw]
        pending = [
            _request(disk, sector, count, False, seq)
            for seq, (sector, count) in enumerate(
                _single_track_starts(disk, raw)
            )
        ]
        policy = SATFPolicy()
        chosen = policy.pick(pending, disk)
        predicted = predicted_cost(chosen, disk)
        transfer = disk.mechanics.transfer_time(chosen.count)
        breakdown = disk.write(
            chosen.sector, chosen.count, charge_scsi=False
        )
        assert breakdown.scsi == 0.0
        assert predicted + transfer == breakdown.locate + breakdown.transfer
        assert predicted == breakdown.locate

    @given(pricing_cases())
    @_SETTINGS
    def test_batch_pricing_equals_scalar_oracle(self, case):
        """The one-pass queue pricing must reproduce the scalar oracle
        bit-for-bit for every pending request, host-issued or internal."""
        spec_name, head_cyl, head_head, start, raw = case
        disk = Disk(_SPECS[spec_name], store_data=False)
        disk.head_cylinder = head_cyl % disk.geometry.num_cylinders
        disk.head_head = head_head % disk.geometry.tracks_per_cylinder
        disk.clock.advance(start)
        raw = [(s % (disk.total_sectors - 8), c) for s, c in raw]
        pending = [
            _request(disk, sector, count, seq % 2 == 0, seq)
            for seq, (sector, count) in enumerate(raw)
        ]
        scsi = disk.spec.scsi_overhead
        costs = disk.mechanics.price_candidates(
            disk.clock.now,
            disk.head_cylinder,
            disk.head_head,
            [req.sector for req in pending],
            extra_lead=[
                scsi if req.charge_scsi else 0.0 for req in pending
            ],
        )
        for req, cost in zip(pending, costs):
            assert cost == predicted_cost(req, disk)

    @given(pricing_cases())
    @_SETTINGS
    def test_pick_minimizes_predicted_cost(self, case):
        spec_name, head_cyl, head_head, start, raw = case
        disk = Disk(_SPECS[spec_name], store_data=False)
        disk.head_cylinder = head_cyl % disk.geometry.num_cylinders
        disk.head_head = head_head % disk.geometry.tracks_per_cylinder
        disk.clock.advance(start)
        raw = [(s % (disk.total_sectors - 8), c) for s, c in raw]
        pending = [
            _request(disk, sector, count, False, seq)
            for seq, (sector, count) in enumerate(raw)
        ]
        policy = SATFPolicy()
        chosen = policy.pick(pending, disk)
        best = min(
            (predicted_cost(req, disk), req.seq) for req in pending
        )
        assert (predicted_cost(chosen, disk), chosen.seq) == best


class TestServiceOrderPricing:
    def test_scsi_lead_priced_in_service_order(self):
        """Directed pin of the drift fix: find a state where ``now +
        (scsi + positioning)`` and ``(now + scsi) + positioning`` are
        different floats, then check the host-issued prediction tracks
        the service path (which advances the clock stepwise: SCSI first,
        then positioning)."""
        disk = Disk(ST19101, store_data=False)
        geometry = disk.geometry
        mechanics = disk.mechanics
        scsi = disk.spec.scsi_overhead
        found = False
        for k in range(1, 40_000):
            now = k * 1e-4
            cylinder = k % geometry.num_cylinders
            positioning = mechanics.positioning_time(0, 0, cylinder, 0)
            if now + (scsi + positioning) == (now + scsi) + positioning:
                continue
            disk.clock.advance(now - disk.clock.now)
            disk.head_cylinder = 0
            disk.head_head = 0
            sector = cylinder * geometry.sectors_per_cylinder
            target = geometry.angle_of(cylinder, 0, 0)
            wait = mechanics.wait_for_slot(
                (disk.clock.now + scsi) + positioning, target
            )
            req = _request(disk, sector, 8, True, 0)
            assert predicted_cost(req, disk) == (
                (scsi + positioning) + wait
            )
            breakdown = disk.write(sector, 8, charge_scsi=True)
            assert breakdown.scsi == scsi
            assert breakdown.locate == positioning + wait
            found = True
            break
        assert found, "no float-divergent (now, positioning) pair found"
