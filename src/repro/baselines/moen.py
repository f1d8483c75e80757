"""MOEN — enumeration of motifs of all lengths (Mueen, ICDM 2013).

MOEN is the paper's only variable-length competitor.  Its structure, as
reproduced here (see DESIGN.md for the substitution notes):

1. At the smallest length, compute the full matrix profile.
2. For each next length, *lower-bound* every subsequence's
   nearest-neighbor distance from its last exactly-known value via the
   multiplicative bound below, and *upper-bound* the motif distance by
   extending the previous length's motif pair exactly (O(l) work).
3. Only subsequences whose lower bound beats the upper bound can
   participate in a better pair; recompute exactly those rows (MASS).
4. When the bound prunes too little, refresh everything with a full
   matrix profile (this is what happens increasingly often as lengths
   grow — the degradation Figures 8 and 12 show).

The cross-length bound
----------------------
For windows x, y with z-normalized distance ``d_l`` and sigma ratios
``a = sigma[x,l] / sigma[x,l+1]``, ``b = sigma[y,l] / sigma[y,l+1]``::

    d_{l+1}^2  >=  l (a - b)^2 + a b d_l^2  >=  a b d_l^2

(drop the final term of the l+1 sum, then minimize over the cross terms;
see ``tests/test_moen.py`` for the property-based check).  Because MOEN
carries *one* bound per subsequence without remembering which neighbor
realized it, it must use the worst-case neighbor ratio
``b_min = min_j sigma[j,l] / sigma[j,l+1]``::

    mp_i(l+1)  >=  sqrt(a_i * b_min) * mp_i(l)

``b_min`` is typically < 1, so the bound *loosens multiplicatively* at
every step — precisely the weakness the VALMOD paper describes
("MOEN multiplies the lower bound by a value smaller than 1"), and the
reason its pruning collapses for wide length ranges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.distance.mass import mass_with_stats
from repro.distance.profile import apply_exclusion_zone
from repro.kernels.context import SeriesContext
from repro.distance.znorm import CONSTANT_EPS, znormalized_distance
from repro.exceptions import BudgetExceededError, InvalidParameterError
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.matrixprofile.stomp import stomp
from repro.types import MotifPair

__all__ = ["moen", "moen_step_factor", "MoenStats"]


@dataclass
class MoenStats:
    """Per-length instrumentation of a MOEN run."""

    lengths: List[int] = field(default_factory=list)
    candidate_counts: List[int] = field(default_factory=list)
    full_refreshes: int = 0
    elapsed_seconds: float = 0.0


def moen_step_factor(
    sigma_prev: np.ndarray, sigma_next: np.ndarray, n_next: int
) -> np.ndarray:
    """Per-subsequence multiplicative factors ``sqrt(a_i * b_min)``.

    ``sigma_prev`` / ``sigma_next`` are the window standard deviations at
    lengths ``l`` and ``l+1``; ``n_next`` the number of windows at l+1.
    """
    a = sigma_prev[:n_next] / np.maximum(sigma_next[:n_next], CONSTANT_EPS)
    b_min = float(a.min()) if a.size else 1.0
    return np.sqrt(np.maximum(a * b_min, 0.0))


def moen(
    series: np.ndarray,
    l_min: int,
    l_max: int,
    refresh_fraction: float = 0.5,
    stats: Optional[MoenStats] = None,
    deadline: Optional[float] = None,
) -> Dict[int, MotifPair]:
    """Exact motif pair per length with MOEN's pruning strategy.

    ``refresh_fraction``: when more than this fraction of subsequences
    survive the lower-bound prune, fall back to a full matrix profile for
    the length (refreshing all bounds) instead of row-by-row MASS.
    ``deadline`` (absolute ``time.perf_counter()`` value) aborts slow
    runs with :class:`BudgetExceededError` for DNF reporting.
    """
    ctx = SeriesContext(series, min_length=8)
    t = ctx.series
    if l_min > l_max:
        raise InvalidParameterError(f"l_min ({l_min}) must not exceed l_max ({l_max})")
    start = time.perf_counter()
    result: Dict[int, MotifPair] = {}

    mp = stomp(t, l_min, context=ctx)
    result[l_min] = mp.motif_pair()
    lower = mp.profile.copy()
    lower[~np.isfinite(lower)] = np.inf
    _, sigma_prev = ctx.moving_mean_std(l_min)

    for length in range(l_min + 1, l_max + 1):
        if deadline is not None and time.perf_counter() > deadline:
            raise BudgetExceededError(
                f"moen exceeded its deadline at length {length}"
            )
        n_subs = t.size - length + 1
        mu, sigma = ctx.moving_mean_std(length)
        # Carry the per-row NN lower bounds one length forward.
        factors = moen_step_factor(sigma_prev, sigma, n_subs)
        lower = lower[:n_subs] * factors
        sigma_prev = sigma

        # Upper bound: the previous motif pair, extended by one point.
        prev = result[length - 1]
        zone = exclusion_zone_half_width(length)
        best_a, best_b = prev.a, prev.b
        if best_b + length <= t.size and abs(best_a - best_b) >= zone:
            bsf = znormalized_distance(
                t[best_a : best_a + length], t[best_b : best_b + length]
            )
        else:
            bsf = np.inf
        best_pair = (best_a, best_b) if np.isfinite(bsf) else None

        candidates = np.where(lower < bsf)[0]
        if stats is not None:
            stats.lengths.append(length)
            stats.candidate_counts.append(int(candidates.size))
        if candidates.size > refresh_fraction * n_subs:
            # Bound too loose: refresh everything (MOEN's worst case).
            mp = stomp(t, length, context=ctx)
            result[length] = mp.motif_pair()
            lower = mp.profile.copy()
            lower[~np.isfinite(lower)] = np.inf
            if stats is not None:
                stats.full_refreshes += 1
            continue

        for row in candidates:
            row = int(row)
            profile = mass_with_stats(t, row, length, mu, sigma, context=ctx)
            apply_exclusion_zone(profile, row, zone)
            j = int(np.argmin(profile))
            exact = float(profile[j])
            lower[row] = exact if np.isfinite(exact) else np.inf
            if exact < bsf:
                bsf = exact
                best_pair = (row, j)
        if best_pair is None:
            raise InvalidParameterError(
                f"no non-trivial motif pair exists at length {length}"
            )
        result[length] = MotifPair.build(best_pair[0], best_pair[1], length, bsf)

    if stats is not None:
        stats.elapsed_seconds = time.perf_counter() - start
    return result
