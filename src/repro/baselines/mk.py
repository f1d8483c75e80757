"""The MK algorithm: reference-based exact fixed-length motif discovery.

Mueen-Keogh (SDM 2009, ref. [31] of the paper) — the classic exact
motif finder that predates the matrix profile, and the engine the MOEN
baseline builds on.  MK exploits the triangle inequality in the space
of z-normalized subsequences (where the z-normalized Euclidean distance
IS a metric):

1. pick a few random *reference* subsequences and compute every
   subsequence's distance to each (O(R n log n) with MASS);
2. order candidates by their distance to the best reference;
3. scan ordered pairs: for candidates ``x, y``,
   ``|d(ref,x) - d(ref,y)|`` lower-bounds ``d(x, y)`` — once the bound
   for adjacent-in-order pairs exceeds the best-so-far, stop.

Exact; fast when the reference distances spread the candidates out;
included both for completeness of the baseline suite and as the
standard-reference implementation MK-style pruning is tested against.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.distance.comoment import pair_distances
from repro.distance.mass import mass_with_stats
from repro.distance.profile import apply_exclusion_zone
from repro.kernels.context import SeriesContext
from repro.distance.znorm import as_series
from repro.exceptions import InvalidParameterError
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.types import MotifPair

__all__ = ["mk_motif"]


#: candidate pairs scored per vectorized call; bsf tightens between calls
PAIR_BATCH = 256


def mk_motif(
    series: np.ndarray,
    length: int,
    n_references: int = 8,
    rng: Optional[np.random.Generator] = None,
) -> MotifPair:
    """Exact motif pair of one length via MK reference pruning."""
    t = as_series(series, min_length=8)
    n_subs = t.size - length + 1
    if n_subs < 2 or length < 2 or length > t.size // 2:
        raise InvalidParameterError(
            f"length {length} invalid for a series of {t.size} points"
        )
    if n_references <= 0:
        raise InvalidParameterError(
            f"n_references must be positive, got {n_references}"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    zone = exclusion_zone_half_width(length)
    mu, sigma = SeriesContext(t).moving_mean_std(length)
    centred = sliding_window_view(t, length) - mu[:, None]

    # Reference distance profiles; best-so-far from their own minima.
    refs = rng.choice(n_subs, size=min(n_references, n_subs), replace=False)
    ref_profiles = np.empty((refs.size, n_subs), dtype=np.float64)
    bsf = np.inf
    best: Tuple[int, int] = None
    for row, ref in enumerate(refs):
        profile = mass_with_stats(t, int(ref), length, mu, sigma)
        ref_profiles[row] = profile
        masked = profile.copy()
        apply_exclusion_zone(masked, int(ref), zone)
        j = int(np.argmin(masked))
        if np.isfinite(masked[j]) and masked[j] < bsf:
            bsf = float(masked[j])
            best = (int(ref), j)

    # The reference with the largest distance spread orders candidates
    # most usefully (the published heuristic).
    spread = ref_profiles.std(axis=1)
    ordering_ref = int(np.argmax(spread))
    order = np.argsort(ref_profiles[ordering_ref], kind="stable")
    ordered_dists = ref_profiles[ordering_ref][order]

    # Scan pairs by increasing offset in the ordering; stop the whole
    # scan when even adjacent entries can't beat bsf.
    for gap in range(1, n_subs):
        lower_bounds = ordered_dists[gap:] - ordered_dists[:-gap]
        if lower_bounds.size == 0 or lower_bounds.min() >= bsf:
            break
        candidates = np.where(lower_bounds < bsf)[0]
        for start in range(0, candidates.size, PAIR_BATCH):
            pos = candidates[start : start + PAIR_BATCH]
            i, j = order[pos], order[pos + gap]
            # Multi-reference pruning before the exact distances.
            bound = np.max(np.abs(ref_profiles[:, i] - ref_profiles[:, j]), axis=0)
            keep = (np.abs(i - j) >= zone) & (bound < bsf)
            if not keep.any():
                continue
            i, j = i[keep], j[keep]
            d = pair_distances(centred, sigma, length, i, j)
            k = int(np.argmin(d))
            if d[k] < bsf:
                bsf = float(d[k])
                best = (int(i[k]), int(j[k]))
    if best is None:
        raise InvalidParameterError(
            f"no non-trivial motif pair exists at length {length}"
        )
    return MotifPair.build(best[0], best[1], length, bsf)
