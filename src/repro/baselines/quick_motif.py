"""QUICK MOTIF (Li, U, Yiu, Gong — ICDE 2015), adapted to a length range.

Per length, QUICK MOTIF:

1. summarizes every z-normalized subsequence with PAA
   (:mod:`repro.baselines.paa`);
2. packs the summaries into Hilbert-ordered MBR pages
   (:mod:`repro.baselines.rtree`);
3. enumerates page pairs best-first by MBR min-distance, refining each
   candidate pair exactly, and stops when the next page-pair bound
   exceeds the best-so-far distance.

The result is exact.  The performance profile matches the paper's
findings: excellent on easy, regular data (ECG) and steeply degrading as
the subsequence length grows at fixed PAA width, because the summaries
lose resolution and the MBR bounds stop pruning (Figures 8 and 13).

Like the paper's benchmark adaptation, the range version simply runs the
per-length search for every length, seeded with the previous length's
motif pair as an initial best-so-far.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.baselines.paa import paa_lower_bound_factor, paa_transform
from repro.baselines.rtree import MBRIndex
from repro.kernels.context import SeriesContext
from repro.distance.comoment import pair_distances
from repro.distance.znorm import as_series, znormalized_distance
from repro.exceptions import BudgetExceededError, InvalidParameterError
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.types import MotifPair

__all__ = ["quick_motif", "quick_motif_single", "QuickMotifStats"]


@dataclass
class QuickMotifStats:
    """Pruning counters of a QUICK MOTIF run (per length)."""

    lengths: List[int] = field(default_factory=list)
    page_pairs_opened: List[int] = field(default_factory=list)
    exact_distances: List[int] = field(default_factory=list)


def quick_motif_single(
    series: np.ndarray,
    length: int,
    width: int = 8,
    leaf_capacity: int = 64,
    initial_pair: Optional[Tuple[int, int]] = None,
    deadline: Optional[float] = None,
    stats: Optional[QuickMotifStats] = None,
) -> MotifPair:
    """Exact motif pair of one length via PAA + MBR best-first search."""
    t = as_series(series, min_length=8)
    n_subs = t.size - length + 1
    if n_subs < 2:
        raise InvalidParameterError(f"length {length} leaves fewer than two windows")
    zone = exclusion_zone_half_width(length)
    effective_width = min(width, length)
    summaries = paa_transform(t, length, effective_width)
    scale = paa_lower_bound_factor(length, effective_width)
    index = MBRIndex(summaries, leaf_capacity=leaf_capacity, scale=scale)
    mu, sigma = SeriesContext(t).moving_mean_std(length)
    centred = sliding_window_view(t, length) - mu[:, None]

    bsf = np.inf
    best: Optional[Tuple[int, int]] = None
    if initial_pair is not None:
        a, b = initial_pair
        if b + length <= t.size and abs(a - b) >= zone:
            bsf = znormalized_distance(t[a : a + length], t[b : b + length])
            best = (a, b)

    pages_opened = 0
    exact_count = 0
    for bound, pa, pb in index.leaf_pairs_ascending():
        if bound >= bsf:
            break
        if deadline is not None and time.perf_counter() > deadline:
            raise BudgetExceededError(
                f"quick_motif exceeded its deadline at length {length}"
            )
        pages_opened += 1
        rows_a, rows_b = index.candidate_rows(pa, pb)
        # Point-level PAA bound before paying for exact distances.
        diff = summaries[rows_a][:, None, :] - summaries[rows_b][None, :, :]
        lb = scale * np.sqrt(np.einsum("abw,abw->ab", diff, diff))
        ii, jj = np.meshgrid(rows_a, rows_b, indexing="ij")
        survives = (lb < bsf) & (np.abs(ii - jj) >= zone)
        if pa == pb:
            survives &= ii < jj
        if not survives.any():
            continue
        left = ii[survives]
        right = jj[survives]
        dists = pair_distances(centred, sigma, length, left, right)
        exact_count += dists.size
        k = int(np.argmin(dists))
        if dists[k] < bsf:
            bsf = float(dists[k])
            best = (int(left[k]), int(right[k]))
    if stats is not None:
        stats.lengths.append(length)
        stats.page_pairs_opened.append(pages_opened)
        stats.exact_distances.append(exact_count)
    if best is None:
        raise InvalidParameterError(
            f"no non-trivial motif pair exists at length {length}"
        )
    return MotifPair.build(best[0], best[1], length, bsf)


def quick_motif(
    series: np.ndarray,
    l_min: int,
    l_max: int,
    width: int = 8,
    leaf_capacity: int = 64,
    deadline: Optional[float] = None,
    stats: Optional[QuickMotifStats] = None,
) -> Dict[int, MotifPair]:
    """Exact motif pair per length in ``[l_min, l_max]``.

    Raises :class:`BudgetExceededError` when a ``deadline`` (absolute
    ``time.perf_counter()`` value) passes — the harness uses this to
    reproduce the paper's "did not finish" entries.
    """
    t = as_series(series, min_length=8)
    if l_min > l_max:
        raise InvalidParameterError(f"l_min ({l_min}) must not exceed l_max ({l_max})")
    result: Dict[int, MotifPair] = {}
    previous: Optional[Tuple[int, int]] = None
    for length in range(l_min, l_max + 1):
        pair = quick_motif_single(
            t,
            length,
            width=width,
            leaf_capacity=leaf_capacity,
            initial_pair=previous,
            deadline=deadline,
            stats=stats,
        )
        result[length] = pair
        previous = (pair.a, pair.b)
    return result
