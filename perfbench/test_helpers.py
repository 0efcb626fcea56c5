"""Unit tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from httpclient import Request  # noqa: E402
from serving import LIMIT_MS, Phase, max_rate, median_p50, pooled  # noqa: E402
from stats import (  # noqa: E402
    covered,
    percentile,
    poisson_schedule,
    ranking,
    self_times,
    zipf_draw,
)


def test_poisson_schedule_is_seeded_sorted_and_at_the_rate():
    a = poisson_schedule(np.random.default_rng(3), 200.0, 50.0)
    b = poisson_schedule(np.random.default_rng(3), 200.0, 50.0)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) > 0) and a[0] >= 0 and a[-1] < 50.0
    assert len(a) == 200 * 50
    gaps = np.diff(a)
    # exponential gaps: the standard deviation equals the mean
    assert abs(gaps.std() / gaps.mean() - 1.0) < 0.05


def test_poisson_schedule_empty_for_no_rate():
    assert len(poisson_schedule(np.random.default_rng(0), 0.0, 10.0)) == 0


def test_zipf_draw_is_seeded_and_follows_the_ranking():
    keys = np.arange(1000)
    a = zipf_draw(np.random.default_rng(1), keys, 1.0, 20000, permutation_seed=9)
    b = zipf_draw(np.random.default_rng(1), keys, 1.0, 20000, permutation_seed=9)
    assert np.array_equal(a, b)
    ranked = ranking(keys, 9)
    counts = np.bincount(a, minlength=1000)
    top, tenth = counts[ranked[0]], counts[ranked[9]]
    assert top > 5 * tenth > 0  # rank 1 is ~10x as popular as rank 10
    # another draw seed keeps the same hot set
    c = zipf_draw(np.random.default_rng(2), keys, 1.0, 20000, permutation_seed=9)
    assert np.bincount(c, minlength=1000).argmax() == ranked[0]


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert percentile(values, 99) == 990
    assert percentile(values[:999], 99) is None
    assert percentile(list(range(200)), 95) is not None
    assert percentile(list(range(199)), 95) is None
    assert percentile(list(range(20)), 50) == 9


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(-5, 1), (9, 20)], 0, 10) == 2
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_children_once():
    spans = [
        ("root", 0.0, 10.0, 1, None, "r"),
        ("a", 1.0, 4.0, 2, 1, "r"),
        ("b", 3.0, 6.0, 3, 1, "r"),  # overlaps a: counted once in root
        ("c", 2.0, 3.0, 4, 2, "r"),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def _phase(name, rate, p99_ms, backlog=0, n=1000):
    """A phase offered at ``rate`` whose 11 slowest answers took ``p99_ms``."""
    requests = []
    for i in range(n):
        r = Request(i, "ppr", i, name, b"")
        r.status, r.due = 200, 0.0
        r.done = (p99_ms if i >= n - 11 else 1.0) / 1e3
        requests.append(r)
    info = {"scheduled_s": n / rate, "backlog": backlog, "drain_s": 1.0 if backlog else 0.1}
    return Phase(name, requests, info, {}, {})


def test_max_rate_interpolates_between_pass_and_miss():
    lo, hi = _phase("busy", 100.0, 60.0), _phase("step1", 140.0, 140.0)
    rate, where = max_rate([lo, hi])
    assert rate == pytest.approx(100.0 + (LIMIT_MS - 60.0) * 40.0 / 80.0)
    assert "between busy and step1" in where


def test_max_rate_reports_the_last_step_when_all_pass():
    rate, where = max_rate([_phase("busy", 100.0, 50.0), _phase("step2", 150.0, 90.0)])
    assert rate == pytest.approx(150.0) and where.startswith("at least")


def test_max_rate_stops_at_a_growing_backlog():
    rate, _ = max_rate([_phase("busy", 100.0, 50.0), _phase("step1", 150.0, 90.0, backlog=50)])
    assert rate == pytest.approx(100.0)


def test_max_rate_takes_points_in_rate_order():
    # busy may be offered above the first step; the points are sorted first.
    points = [_phase("busy", 150.0, 60.0), _phase("step1", 120.0, 40.0),
              _phase("step2", 190.0, 140.0)]
    rate, where = max_rate(points)
    assert rate == pytest.approx(150.0 + (LIMIT_MS - 60.0) * 40.0 / 80.0)
    assert "between busy and step2" in where


def test_max_rate_passes_over_a_miss_below_a_faster_pass():
    points = [_phase("busy", 100.0, 50.0), _phase("step1", 120.0, 150.0),
              _phase("step2", 140.0, 80.0), _phase("step3", 160.0, 120.0),
              _phase("step4", 180.0, 300.0)]
    rate, where = max_rate(points)
    assert rate == pytest.approx(140.0 + (LIMIT_MS - 80.0) * 20.0 / 40.0)
    assert "between step2 and step3" in where


def _segment(name, p50_ms, n=200):
    """A segment whose lower half answered in 1 ms and upper half in ``p50_ms``."""
    requests = []
    for i in range(n):
        r = Request(i, "ppr", i, name, b"")
        r.status, r.due = 200, 0.0
        r.done = (p50_ms if i >= n // 2 - 1 else 1.0) / 1e3
        requests.append(r)
    return Phase(name, requests, {"scheduled_s": 1.0, "backlog": 0, "drain_s": 0.1}, {}, {})


def test_median_p50_ignores_a_stalled_segment():
    segments = [_segment(f"busy{i}", p50) for i, p50 in enumerate((5.0, 4.0, 60.0, 6.0, 5.5), 1)]
    assert median_p50(segments) == pytest.approx(5.5)
    assert median_p50(segments[:1] + [_segment("busy6", 5.0, n=1)]) is None


def test_pooled_joins_requests_and_keeps_the_worst_backlog():
    a, b = _phase("busy1", 100.0, 50.0), _phase("busy2", 100.0, 80.0, backlog=3)
    joined = pooled("busy", [a, b])
    assert len(joined.requests) == 2000 and joined.info["backlog"] == 3
    assert joined.offered_rps() == pytest.approx(100.0)
