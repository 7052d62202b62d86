"""Fig. 4's latency statistics in plain Python, pinned to numpy.

Each expected tuple is what ``numpy`` returned for the same samples
(``mean``, ``min``, ``max`` and the default ``linear`` ``percentile`` at
50 and 99); :func:`summarize` must match it bit for bit.  The p99 cases
sit on both sides of numpy's interpolation branch (``g >= 0.5`` or not),
with samples chosen so that the two branch formulas round differently.
"""

import pytest

from repro.bench.latency import summarize

#: samples -> (mean, min, max, p50, p99)
CASES = {
    "n=1": ([7.5], (7.5, 7.5, 7.5, 7.5, 7.5)),
    "n=2, p99 g=0.99": (
        [1799.0, 1275.5], (1537.25, 1275.5, 1799.0, 1537.25, 1793.765),
    ),
    "odd n, p99 g=0.96": (
        [1322.5, 3.0, 1113.5, 20.0, 7.5], (493.3, 3.0, 1322.5, 20.0, 1314.14),
    ),
    "even n, p50 g=0.5": (
        [6.0, 1.5, 1799.0, 2.0, 1275.5, 3.5],
        (514.5833333333334, 1.5, 1799.0, 4.75, 1772.825),
    ),
    "n=60, p99 g=0.41": (
        [float(k) for k in range(58)] + [1686.0, 1175.0],
        (75.23333333333333, 0.0, 1686.0, 29.5, 1384.5099999999982),
    ),
}


@pytest.mark.parametrize("samples,want", list(CASES.values()), ids=list(CASES))
def test_summary_matches_numpy_bit_for_bit(samples, want):
    given = list(samples)
    point = summarize(3, samples)
    assert point.threads == 3
    assert (
        point.mean_one_way_ns, point.min_ns, point.max_ns, point.p50_ns, point.p99_ns
    ) == want
    assert samples == given  # summarized a sorted copy
