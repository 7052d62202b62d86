"""Histogram: bucketing, percentiles, merge, registry scraping."""

import random
from collections import Counter

import pytest

from repro.obs import Histogram, MetricsRegistry
from repro.obs.histogram import PERCENTILES


def test_empty_histogram():
    h = Histogram()
    assert h.count == 0 and len(h) == 0
    assert h.min == 0 and h.max == 0 and h.total == 0
    assert h.mean() == 0.0
    assert h.percentile(50) == 0
    assert h.buckets() == []


def test_record_updates_count_min_max_sum():
    h = Histogram()
    for v in (5, 100, 3, 77):
        h.record(v)
    assert h.count == 4
    assert h.min == 3 and h.max == 100
    assert h.total == 185
    assert h.mean() == pytest.approx(185 / 4)


def test_negative_and_float_samples_are_clamped_and_truncated():
    h = Histogram()
    h.record(-5)
    h.record(2.9)
    assert h.min == 0 and h.max == 2
    assert h.count == 2


def test_power_of_two_buckets():
    h = Histogram()
    for v in (0, 1, 2, 3, 4, 7, 8, 1000):
        h.record(v)
    triples = h.buckets()
    # bucket 0 = {0}; bucket [1,1]; [2,3]; [4,7]; [8,15]; [512,1023]
    assert (0, 0, 1) in triples
    assert (1, 1, 1) in triples
    assert (2, 3, 2) in triples
    assert (4, 7, 2) in triples
    assert (8, 15, 1) in triples
    assert (512, 1023, 1) in triples
    assert sum(n for _, _, n in triples) == h.count


def test_percentile_bucket_resolution_and_clamping():
    h = Histogram()
    for v in [10] * 90 + [1000] * 10:
        h.record(v)
    # p50 lands in the [8,15] bucket; clamped into [min, max]
    assert h.percentile(50) == 15
    # p100 is always the exact max, p0 never undershoots the min
    assert h.percentile(100) == 1000
    assert h.percentile(0) >= h.min
    # the tail bucket upper bound (1023) is clamped to the true max
    assert h.percentile(99.5) == 1000


def test_percentile_out_of_range_rejected():
    h = Histogram()
    h.record(1)
    with pytest.raises(ValueError):
        h.percentile(101)
    with pytest.raises(ValueError):
        h.percentile(-1)


def test_single_value_percentiles_are_exact():
    h = Histogram()
    h.record(37)
    for p in (1, 50, 90, 99, 100):
        assert h.percentile(p) == 37


def test_merge_folds_samples():
    a, b = Histogram(), Histogram()
    for v in (1, 2, 3):
        a.record(v)
    for v in (100, 200):
        b.record(v)
    a.merge(b)
    assert a.count == 5
    assert a.min == 1 and a.max == 200
    assert a.total == 306
    # merging an empty histogram is a no-op
    before = a.to_metrics()
    a.merge(Histogram())
    assert a.to_metrics() == before
    # merge into an empty histogram copies min/max
    c = Histogram()
    c.merge(b)
    assert c.min == 100 and c.max == 200 and c.count == 2


def test_to_metrics_exposes_stable_summary_keys():
    h = Histogram()
    for v in range(1, 101):
        h.record(v)
    m = h.to_metrics()
    assert set(m) == {"count", "min", "max", "mean", "p50", "p90", "p99", "p999"}
    assert m["count"] == 100 and m["min"] == 1 and m["max"] == 100
    assert m["p50"] <= m["p90"] <= m["p99"] <= m["p999"] <= m["max"]


def _state(h):
    return (h.count, h.min, h.max, h.total, h.buckets(), h.to_metrics())


def test_record_many_is_snapshot_identical_to_k_records():
    for v, k in ((0, 1), (1, 3), (7, 1000), (126, 17), (2**40, 5)):
        a, b = Histogram(), Histogram()
        a.record_many(v, k)
        for _ in range(k):
            b.record(v)
        assert _state(a) == _state(b), (v, k)


def test_record_many_interleaves_with_record():
    a, b = Histogram(), Histogram()
    for h in (a, b):
        h.record(3)
    a.record_many(100, 4)
    for _ in range(4):
        b.record(100)
    for h in (a, b):
        h.record(-2)  # clamped to 0, drags min down
    a.record_many(5, 2)
    b.record(5)
    b.record(5)
    assert _state(a) == _state(b)
    assert a.min == 0 and a.max == 100 and a.count == 8


def test_record_many_zero_or_negative_count_is_a_noop():
    h = Histogram()
    h.record_many(42, 0)
    h.record_many(42, -3)
    assert h.count == 0 and _state(h) == _state(Histogram())


def test_record_many_clamps_and_truncates_like_record():
    a, b = Histogram(), Histogram()
    a.record_many(-9, 2)
    a.record_many(2.9, 3)
    for v in (-9, -9, 2.9, 2.9, 2.9):
        b.record(v)
    assert _state(a) == _state(b)


def test_record_many_grows_buckets_for_a_huge_sample():
    huge = 1 << 100
    a, b = Histogram(), Histogram()
    a.record_many(huge, 7)
    for _ in range(7):
        b.record(huge)
    assert _state(a) == _state(b)
    assert a.max == huge and a.count == 7


#: percentiles the random-sample comparison checks besides the exported ones
CHECKED_PERCENTILES = (0, 1, 10, 25, 33.3, 50, 75, 95, 99.99, 100) + PERCENTILES


def _bucket(v):
    """(lo, hi) of the power-of-two bucket holding ``v``."""
    i = v.bit_length()
    return ((1 << (i - 1)) if i else 0, (1 << i) - 1 if i else 0)


def _reference(samples):
    """What a histogram of ``samples`` must report, computed from the
    sorted samples: each quantile is the bucket upper bound of the
    sample at its rank, clamped into the observed range."""
    ordered = sorted(samples)
    n, lo, hi = len(ordered), ordered[0], ordered[-1]
    counts = Counter(_bucket(v) for v in ordered)
    buckets = [(b[0], b[1], counts[b]) for b in sorted(counts)]

    def percentile(p):
        rank = max(1, -(-n * p // 100))  # the histogram's rank rule
        return min(max(_bucket(ordered[int(rank) - 1])[1], lo), hi)

    metrics = {"count": n, "min": lo, "max": hi, "mean": sum(ordered) / n}
    for p in PERCENTILES:
        metrics["p" + format(p, "g").replace(".", "")] = percentile(p)
    return metrics, buckets, [percentile(p) for p in CHECKED_PERCENTILES]


def _report(h):
    return h.to_metrics(), h.buckets(), [h.percentile(p) for p in CHECKED_PERCENTILES]


@pytest.mark.parametrize("seed", range(4))
def test_random_samples_match_a_reference_over_the_sorted_samples(seed):
    """Samples from 0 up to 2**100, log-uniform so every bucket size
    occurs, recorded three ways: one by one, as ``record_many`` runs of
    equal values, and as a merge of histograms whose bucket lists
    differ in length.  Buckets grow on demand, so each way must end in
    the reference's report."""
    rng = random.Random(seed)
    pool = [rng.getrandbits(rng.randint(0, 100)) for _ in range(80)]
    samples = [rng.choice(pool) for _ in range(1500)]
    expected = _reference(samples)

    one_by_one = Histogram()
    for v in samples:
        one_by_one.record(v)
    assert _report(one_by_one) == expected

    runs = list(Counter(samples).items())
    rng.shuffle(runs)
    batched = Histogram()
    for v, k in runs:
        batched.record_many(v, k)
    assert _report(batched) == expected

    # parts split by magnitude hold bucket lists of different lengths;
    # fold them in both directions: short into long and long into short
    ordered = sorted(samples)
    cuts = sorted(rng.sample(range(1, len(ordered)), 3))
    parts = []
    for a, b in zip([0] + cuts, cuts + [len(ordered)]):
        part = Histogram()
        for v in ordered[a:b]:
            part.record(v)
        parts.append(part)
    assert len({len(part._buckets) for part in parts}) > 1
    for order in (parts, parts[::-1]):
        merged = Histogram()
        for part in order:
            merged.merge(part)
        assert _report(merged) == expected


def test_registry_scrapes_histogram_directly_and_nested():
    reg = MetricsRegistry()
    h = Histogram()
    h.record(50)
    reg.register("pioman.latency.submit_to_complete", h)
    reg.register("group", {"wait": h, "plain": 3})
    snap = reg.snapshot()
    assert snap["pioman.latency.submit_to_complete.p99"] == 50
    assert snap["pioman.latency.submit_to_complete.count"] == 1
    assert snap["group.wait.p50"] == 50
    assert snap["group.plain"] == 3
