"""Consensus motifs (Ostinato) and MPdist matrices over collections.

The consensus motif of a collection is the subsequence with the
smallest *radius*: the pattern whose worst-case nearest-neighbor
distance across every OTHER series in the collection is minimal — "the
behaviour every recording exhibits".  The Ostinato algorithm evaluates
each candidate subsequence's radius via AB-joins, pruning with the
best-so-far radius (Matrix Profile XV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.distance.comoment import comoment_row, distance_profile_from_qt
from repro.distance.znorm import as_series
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext
from repro.matrixprofile.mpdist import mpdist

__all__ = ["ConsensusMotif", "consensus_motif", "mpdist_matrix"]


@dataclass(frozen=True)
class ConsensusMotif:
    """The collection-wide conserved pattern."""

    series_index: int
    start: int
    length: int
    radius: float
    neighbor_starts: Tuple[int, ...]  # best match per series (self = start)


def _min_distance_to(
    query: np.ndarray, target_ctx: SeriesContext, length: int, stats
) -> Tuple[float, int]:
    """Smallest z-normalized distance of one query within a target series."""
    mu, sigma = stats
    c = comoment_row(query, target_ctx.series, mu, context=target_ctx)
    row = distance_profile_from_qt(c, length, float(query.std()), sigma)
    j = int(np.argmin(row))
    return float(row[j]), j


def consensus_motif(
    series_list: Sequence[np.ndarray], length: int
) -> ConsensusMotif:
    """The radius-minimizing subsequence across the collection.

    For every candidate window of every series, the radius is the max
    over other series of the best-match distance; candidates are
    abandoned as soon as a partial max exceeds the best-so-far radius
    (Ostinato's pruning).
    """
    if len(series_list) < 2:
        raise InvalidParameterError("need at least two series for a consensus")
    data = [as_series(s, min_length=4) for s in series_list]
    for s in data:
        if length < 2 or length > s.size // 2:
            raise InvalidParameterError(
                f"length {length} invalid for a series of {s.size} points"
            )
    contexts = [SeriesContext(s) for s in data]
    all_stats = [ctx.moving_mean_std(length) for ctx in contexts]

    best_radius = np.inf
    best: ConsensusMotif = None
    for source, series in enumerate(data):
        n_subs = series.size - length + 1
        for start in range(n_subs):
            query = series[start : start + length]
            radius = 0.0
            neighbors = [0] * len(data)
            neighbors[source] = start
            abandoned = False
            for other in range(len(data)):
                if other == source:
                    continue
                d, j = _min_distance_to(
                    query, contexts[other], length, all_stats[other]
                )
                neighbors[other] = j
                if d > radius:
                    radius = d
                if radius >= best_radius:
                    abandoned = True
                    break
            if not abandoned and radius < best_radius:
                best_radius = radius
                best = ConsensusMotif(
                    series_index=source,
                    start=start,
                    length=length,
                    radius=radius,
                    neighbor_starts=tuple(neighbors),
                )
    return best


def mpdist_matrix(
    series_list: Sequence[np.ndarray], length: int, threshold: float = 0.05
) -> np.ndarray:
    """Symmetric pairwise MPdist matrix of a collection."""
    if len(series_list) < 2:
        raise InvalidParameterError("need at least two series")
    k = len(series_list)
    out = np.zeros((k, k), dtype=np.float64)
    for i in range(k):
        for j in range(i + 1, k):
            d = mpdist(series_list[i], series_list[j], length, threshold)
            out[i, j] = d
            out[j, i] = d
    return out
