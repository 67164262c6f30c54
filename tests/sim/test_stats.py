import pytest

from repro.sim.stats import COMPONENTS, Breakdown, LatencyRecorder


class TestBreakdown:
    def test_components_order_matches_figure9(self):
        assert COMPONENTS == ("scsi", "transfer", "locate", "other")

    def test_total_sums_components(self):
        b = Breakdown(scsi=1.0, transfer=2.0, locate=3.0, other=4.0)
        assert b.total == pytest.approx(10.0)

    def test_add_accumulates(self):
        a = Breakdown(scsi=1.0)
        b = Breakdown(scsi=0.5, locate=2.0)
        a.add(b)
        assert a.scsi == pytest.approx(1.5)
        assert a.locate == pytest.approx(2.0)

    def test_add_returns_self_for_chaining(self):
        a = Breakdown()
        assert a.add(Breakdown(other=1.0)) is a

    def test_charge_named_component(self):
        b = Breakdown()
        b.charge("locate", 0.003)
        assert b.locate == pytest.approx(0.003)

    def test_charge_unknown_component_rejected(self):
        with pytest.raises(KeyError):
            Breakdown().charge("seek", 1.0)

    def test_charge_negative_rejected(self):
        with pytest.raises(ValueError):
            Breakdown().charge("scsi", -1.0)

    def test_as_dict_roundtrip(self):
        b = Breakdown(scsi=1.0, other=2.0)
        assert b.as_dict() == {
            "scsi": 1.0, "transfer": 0.0, "locate": 0.0, "other": 2.0,
        }

    def test_copy_is_independent(self):
        a = Breakdown(scsi=1.0)
        c = a.copy()
        c.charge("scsi", 1.0)
        assert a.scsi == pytest.approx(1.0)

    def test_equality_is_component_wise(self):
        a = Breakdown(scsi=1.0, locate=2.0)
        assert a == Breakdown(scsi=1.0, locate=2.0)
        assert a != Breakdown(scsi=1.0, locate=2.5)
        assert a == a.copy()

    def test_equality_with_other_types(self):
        assert Breakdown() != "not a breakdown"
        assert Breakdown() != 0.0

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Breakdown())

    def test_isclose_tolerates_float_accumulation_order(self):
        a = Breakdown()
        for _ in range(10):
            a.charge("scsi", 0.1)
        b = Breakdown(scsi=1.0)
        assert a != b  # exact equality is strict...
        assert a.isclose(b)  # ...isclose is not

    def test_repr_shows_milliseconds(self):
        assert "scsi=1.000ms" in repr(Breakdown(scsi=0.001))


class TestLatencyRecorder:
    def test_empty_recorder_mean_zero(self):
        assert LatencyRecorder().mean() == 0.0

    def test_mean_over_records(self):
        r = LatencyRecorder()
        r.record(Breakdown(scsi=1.0))
        r.record(Breakdown(scsi=3.0))
        assert r.mean() == pytest.approx(2.0)
        assert r.count == 2

    def test_record_parts_convenience(self):
        """A caller builds the ``Breakdown`` and ``record``s it."""
        r = LatencyRecorder()
        r.record(Breakdown(locate=0.5, other=0.5))
        assert r.total_time == pytest.approx(1.0)

    def test_percentile_nearest_rank(self):
        r = LatencyRecorder()
        for v in (1.0, 2.0, 3.0, 4.0):
            r.record(Breakdown(other=v))
        assert r.percentile(0.5) == pytest.approx(2.0)
        assert r.percentile(1.0) == pytest.approx(4.0)
        assert r.percentile(0.0) == pytest.approx(1.0)

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            LatencyRecorder().percentile(1.5)

    def test_component_fractions_sum_to_one(self):
        r = LatencyRecorder()
        r.record(Breakdown(scsi=1.0, transfer=1.0, locate=1.0, other=1.0))
        fractions = r.component_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["scsi"] == pytest.approx(0.25)

    def test_component_fractions_empty(self):
        fractions = LatencyRecorder().component_fractions()
        assert all(v == 0.0 for v in fractions.values())

    def test_summary_is_readable(self):
        """What a report reads off a recorder: count, mean, a percentile
        and the component fractions."""
        r = LatencyRecorder()
        r.record(Breakdown(other=0.001))
        assert r.count == 1
        assert r.mean() == r.percentile(0.95) == pytest.approx(0.001)
        assert r.component_fractions()["other"] == pytest.approx(1.0)
