"""Pure helpers of the benchmark: schedules, key draws, percentiles, spans.

Nothing here imports the program under test, so these functions can be
unit-tested on their own (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: A reported percentile must have at least this many samples beyond it.
TAIL_SAMPLES = 10


def poisson_schedule(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Due offsets (seconds from the phase start) of a Poisson arrival stream.

    The stream is conditioned on its expected count: ``round(rate *
    duration)`` arrivals at independent uniform times, sorted.  Given its
    count, a Poisson process is exactly that, so gaps stay exponential and
    bursts stay random, while every run of a phase offers the same amount of
    work.  The offsets do not depend on how fast the server answers: that
    is what makes the load open-loop.
    """
    if rate <= 0 or duration <= 0:
        return np.empty(0)
    return np.sort(rng.uniform(0.0, duration, size=int(round(rate * duration))))


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalised Zipf-like popularity ``1 / rank**exponent`` over ``n`` keys."""
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def zipf_draw(
    rng: np.random.Generator, keys: Sequence[int], exponent: float, size: int,
    permutation_seed: int = 0,
) -> np.ndarray:
    """``size`` keys drawn with Zipf popularity over a seeded rank order.

    The popularity rank of each key is a permutation fixed by
    ``permutation_seed`` (so the hot set is not just the lowest ids); the
    draws themselves come from ``rng``.
    """
    ranked = ranking(keys, permutation_seed)
    return ranked[rng.choice(len(keys), size=size, p=zipf_weights(len(keys), exponent))]


def ranking(keys: Sequence[int], permutation_seed: int = 0) -> np.ndarray:
    """``keys`` from most to least popular under the seeded rank order."""
    keys = np.asarray(keys)
    return keys[np.random.default_rng(permutation_seed).permutation(len(keys))]


def max_percentile(count: int, wanted: float) -> Optional[float]:
    """``wanted`` if ``count`` samples leave ``TAIL_SAMPLES`` beyond it, else ``None``."""
    return wanted if count * (1.0 - wanted / 100.0) >= TAIL_SAMPLES - 1e-9 else None


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (nearest rank), or ``None`` without enough samples.

    Nearest rank returns an observed value.  A percentile is only reported
    when at least :data:`TAIL_SAMPLES` samples lie beyond it; with fewer,
    the tail is an anecdote, not a measurement.
    """
    if not values or max_percentile(len(values), q) is None:
        return None
    ordered = sorted(values)
    rank = max(int(math.ceil(q / 100.0 * len(ordered))), 1)
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# -- spans ----------------------------------------------------------------------

#: One recorded span: ``(name, start, end, span_id, parent_id, request_id)``.
Span = Tuple[str, float, float, int, Optional[int], Optional[str]]


def covered(intervals: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total, cursor = 0.0, start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, _, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        span_id: (end - start) - covered(children.get(span_id, ()), start, end)
        for _, start, end, span_id, _, _ in spans
    }
