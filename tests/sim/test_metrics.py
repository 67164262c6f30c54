"""OpCounters and LatencyHistogram: the accounting primitives the Disk
and the MetricsDevice interposer share."""

import math
import random

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.sim.metrics import LatencyHistogram


def _disk():
    return Disk(ST19101, num_cylinders=1, store_data=False)


class TestOpCounters:
    """A real disk's counters, as ``Disk.read``/``write`` leave them."""

    def test_starts_at_zero(self):
        c = _disk().counters
        assert (c.reads, c.writes, c.sectors_read, c.sectors_written) == (0,) * 4
        assert c.busy_time == 0.0

    def test_note_read_and_write(self):
        disk = _disk()
        disk.read(0, 8)
        disk.write(16, 16)
        disk.write(64, 8)
        c = disk.counters
        assert c.reads == 1 and c.sectors_read == 8
        assert c.writes == 2 and c.sectors_written == 24
        # The disk was busy for every simulated second that passed.
        assert c.busy_time == pytest.approx(disk.clock.now)
        assert c.busy_time > 0.0

    def test_reset(self):
        disk = _disk()
        disk.read(0, 8)
        disk.counters.reset()
        assert disk.counters.reads == 0 and disk.counters.busy_time == 0.0

    def test_repr_readable(self):
        disk = _disk()
        disk.write(0, 8)
        assert "writes=1" in repr(disk.counters)


class TestLatencyHistogram:
    def test_exact_count_and_sum(self):
        h = LatencyHistogram()
        for v in (0.001, 0.002, 0.004):
            h.record(v)
        assert h.count == 3
        assert h.sum == pytest.approx(0.007)
        assert h.mean() == pytest.approx(0.007 / 3)

    def test_log2_bucketing(self):
        h = LatencyHistogram()  # base 1us
        h.record(1.5e-6)   # [1us, 2us)  -> bucket 0
        h.record(3e-6)     # [2us, 4us)  -> bucket 1
        h.record(3.9e-6)
        assert h.buckets == {0: 1, 1: 2}

    def test_underflow_bucket(self):
        h = LatencyHistogram()
        h.record(0.0)
        h.record(5e-7)
        assert h.buckets == {-1: 2}
        assert h.sum == pytest.approx(5e-7)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1.0)
        with pytest.raises(ValueError):
            LatencyHistogram(base=0.0)

    def test_percentile_is_bucket_upper_edge(self):
        h = LatencyHistogram()
        for _ in range(99):
            h.record(1.5e-6)  # bucket 0, upper edge 2us
        h.record(1e-3)        # a single slow outlier
        assert h.percentile(0.5) == pytest.approx(2e-6)
        assert h.percentile(1.0) >= 1e-3

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(1.5)

    def test_empty_histogram_percentile_is_nan(self):
        # "No data" must not read as "instantaneous": an empty histogram
        # (common for near-empty NVM destage histograms on quick runs)
        # reports NaN for every quantile, never 0.0 or an index error.
        import math as _math

        empty = LatencyHistogram()
        for fraction in (0.0, 0.5, 0.99, 0.999, 1.0):
            assert _math.isnan(empty.percentile(fraction))
        assert all(_math.isnan(v) for v in empty.percentiles().values())

    def test_single_sample_histogram(self):
        h = LatencyHistogram()
        h.record(1.5e-6)  # bucket 0, upper edge 2us
        for fraction in (0.0, 0.5, 0.99, 0.999, 1.0):
            assert h.percentile(fraction) == pytest.approx(2e-6)

    def test_two_sample_histogram(self):
        h = LatencyHistogram()
        h.record(1.5e-6)  # bucket 0, upper edge 2us
        h.record(1e-3)    # a much slower second sample
        # Nearest-rank: p50 resolves to the fast sample, the tail
        # quantiles to the slow one -- defined values at every fraction.
        assert h.percentile(0.5) == pytest.approx(2e-6)
        assert h.percentile(0.99) >= 1e-3
        assert h.percentile(0.999) >= 1e-3

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(1.5e-6)
        b.record(1.5e-6)
        b.record(1e-3)
        a.merge(b)
        assert a.count == 3
        assert a.buckets[0] == 2

    def test_merge_rejects_mismatched_base(self):
        with pytest.raises(ValueError):
            LatencyHistogram(base=1e-6).merge(LatencyHistogram(base=1e-3))

    def test_as_dict_keys_are_readable(self):
        """A report reads a histogram through ``percentiles()``, keyed by
        readable quantile names."""
        h = LatencyHistogram()
        h.record(1.5e-6)
        assert h.percentiles() == pytest.approx(
            {"p50": 2e-6, "p95": 2e-6, "p99": 2e-6, "p999": 2e-6}
        )

    def test_reset(self):
        """Nothing resets a histogram in place: a new one is the empty
        state, and its report is the no-data marker."""
        h = LatencyHistogram()
        assert h.count == 0 and h.sum == 0.0 and h.buckets == {}
        assert all(math.isnan(v) for v in h.percentiles().values())


class TestBucketEdges:
    """``record`` against the class docstring's definition: bucket ``i``
    is ``[base * 2**i, base * 2**(i+1))``, sub-base samples are ``-1``.

    ``int(floor(log2(x)))`` -- the formula before ``frexp`` -- rounds
    *up* to ``k`` for the float just below ``2**k`` (``k`` = -3, -2 and
    every ``k >= 3``), filing the sample one bucket too high."""

    @staticmethod
    def _bucket_of(seconds, base):
        h = LatencyHistogram(base=base)
        h.record(seconds)
        (index,) = h.buckets
        return index

    @staticmethod
    def _by_definition(seconds, base):
        if seconds < base:
            return -1
        index = 0
        while not base * 2.0**index <= seconds < base * 2.0 ** (index + 1):
            index += 1
        return index

    # Power-of-two bases keep `seconds / base` exact, so the definition
    # is decidable to the last ulp; 2**-5 puts every probe above base.
    @pytest.mark.parametrize("base", [1.0, 2.0**-5])
    @pytest.mark.parametrize("k", range(-3, 30))
    def test_samples_around_every_edge(self, k, base):
        edge = 2.0**k
        below = math.nextafter(edge, 0.0)
        probes = (
            math.nextafter(below, 0.0), below, edge,
            math.nextafter(edge, math.inf),
        )
        for seconds in probes:
            assert self._bucket_of(seconds, base) == self._by_definition(
                seconds, base
            ), (k, seconds)
        if edge >= base:
            # The edge opens its bucket; the float below it closes the
            # previous one (the underflow bucket, below ``base`` itself).
            assert self._bucket_of(edge, base) == round(math.log2(edge / base))
            assert (
                self._bucket_of(below, base)
                == self._bucket_of(edge, base) - 1
            )

    def test_agrees_with_the_old_formula_away_from_the_edges(self):
        """Two million log-uniform samples over 36 octaves: the two
        formulas differ only in the last ulp below a power of two, so no
        recorded figure moved when ``record`` changed."""
        rng = random.Random(5)
        floor, log2, frexp = math.floor, math.log2, math.frexp
        differences = 0
        for _ in range(2_000_000):
            x = 2.0 ** (rng.random() * 36.0 - 3.0)
            if int(floor(log2(x))) != frexp(x)[1] - 1:
                differences += 1
        assert differences == 0
