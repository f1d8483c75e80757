"""Snippets: the most representative subsequences of a long series.

Matrix Profile XIII's question: "show me the k patterns that best
summarize this recording".  Following the published algorithm, the
similarity between a candidate snippet and a region of the series is an
MPdist-style measure over *sub*-windows of half the snippet length:
each region scores the average of its subwindows' distances to the
candidate's nearest subwindow.  The subwindow aggregation is what makes
the summary phase-invariant — a region full of sine cycles matches a
sine snippet regardless of phase alignment.

Snippets are then chosen greedily to maximize coverage (the candidate
that most reduces the series-wide area under the elementwise-minimum
region-distance curve), and every region is assigned to its nearest
snippet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.distance.mass import mass_with_stats
from repro.distance.znorm import as_series
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext

__all__ = ["Snippet", "find_snippets"]


@dataclass(frozen=True)
class Snippet:
    """One representative subsequence and the region it covers."""

    start: int
    length: int
    coverage_fraction: float


def _region_distance_curve(
    t: np.ndarray,
    candidate_start: int,
    length: int,
    sub: int,
    mu: np.ndarray,
    sigma: np.ndarray,
    context: SeriesContext = None,
) -> np.ndarray:
    """D(candidate, j) for every region start j (vectorized).

    ``prof[p]`` is the distance of the series subwindow at ``p`` to the
    *nearest* subwindow of the candidate; the region score is the mean
    of ``prof`` over the region's subwindow positions.
    """
    n_sub = t.size - sub + 1
    prof = np.full(n_sub, np.inf, dtype=np.float64)
    for offset in range(length - sub + 1):
        row = mass_with_stats(
            t, candidate_start + offset, sub, mu, sigma, context=context
        )
        np.minimum(prof, row, out=prof)
    # Sliding mean of prof over each region's subwindow span.
    span = length - sub + 1
    cumulative = np.concatenate([[0.0], np.cumsum(prof)])
    n_regions = t.size - length + 1
    return (cumulative[span : span + n_regions] - cumulative[:n_regions]) / span


def find_snippets(
    series: np.ndarray,
    length: int,
    k: int = 2,
    stride: int = None,
) -> Tuple[List[Snippet], np.ndarray]:
    """Greedy top-k snippets plus the per-region assignment.

    Returns ``(snippets, assignment)`` where ``assignment[j]`` is the
    index (into the snippet list) of the snippet whose region distance
    at ``j`` is smallest.  Coverage fractions sum to 1.
    """
    t = as_series(series, min_length=8)
    if length < 4 or length > t.size // 2:
        raise InvalidParameterError(
            f"length {length} invalid for a series of {t.size} points"
        )
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    if stride is None:
        stride = length
    if stride <= 0:
        raise InvalidParameterError(f"stride must be positive, got {stride}")

    sub = max(2, length // 2)
    ctx = SeriesContext(t)
    mu, sigma = ctx.moving_mean_std(sub)
    n_regions = t.size - length + 1
    candidates = list(range(0, n_regions, stride))
    curves = np.empty((len(candidates), n_regions), dtype=np.float64)
    for row, start in enumerate(candidates):
        curves[row] = _region_distance_curve(
            t, start, length, sub, mu, sigma, context=ctx
        )

    chosen: List[int] = []
    covered = np.full(n_regions, np.inf, dtype=np.float64)
    for _ in range(min(k, len(candidates))):
        gains = np.minimum(curves, covered[None, :]).sum(axis=1)
        gains[chosen] = np.inf
        pick = int(np.argmin(gains))
        chosen.append(pick)
        covered = np.minimum(covered, curves[pick])

    assignment = np.argmin(curves[chosen], axis=0)
    snippets = []
    for rank, row in enumerate(chosen):
        fraction = float((assignment == rank).mean())
        snippets.append(
            Snippet(
                start=candidates[row],
                length=length,
                coverage_fraction=fraction,
            )
        )
    return snippets, assignment
