"""STAMP: MASS-based matrix profile with anytime semantics.

STAMP computes one MASS distance profile per query.  Because rows are
independent, they can be visited in random order and the run stopped
early; the paper cites this anytime property (Section 2) as one of the
mitigations for the O(n^2) cost.  :func:`stamp` supports both the full
run and the anytime variant via ``max_rows`` / ``rng``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.types import FloatArray

from repro.distance.mass import mass_with_stats
from repro.distance.profile import apply_exclusion_zone
from repro.distance.sliding import validate_subsequence_length
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.matrixprofile.index import MatrixProfile

__all__ = ["stamp"]


def stamp(
    series: FloatArray,
    length: int,
    max_rows: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    context: Optional[SeriesContext] = None,
) -> MatrixProfile:
    """Compute the matrix profile with STAMP.

    Parameters
    ----------
    series, length:
        The data series and subsequence length.
    max_rows:
        Anytime budget: stop after this many distance profiles.  ``None``
        computes all rows (exact result).
    rng:
        Row visiting order for anytime runs; sequential when ``None``.

    With ``max_rows`` set, the result is an *upper-bound approximation* of
    the true matrix profile: every computed entry is exact, every
    untouched entry stays at ``inf``.  Because each MASS profile updates
    both the query row and all its matches, convergence is fast in
    practice — the property the paper leans on.
    """
    ctx = SeriesContext.ensure(series, context, min_length=4)
    t = ctx.series
    n_subs = validate_subsequence_length(t.size, length)
    mu, sigma = ctx.moving_mean_std(length)
    zone = exclusion_zone_half_width(length)
    profile = np.full(n_subs, np.inf, dtype=np.float64)
    index = np.full(n_subs, -1, dtype=np.int64)

    order = np.arange(n_subs)
    if rng is not None:
        order = rng.permutation(n_subs)
    if max_rows is not None:
        if max_rows <= 0:
            raise InvalidParameterError(
                f"max_rows must be positive, got {max_rows}"
            )
        order = order[:max_rows]

    if obs.enabled():
        # Cells this run will touch: for each visited row, every column
        # outside its exclusion-zone window.  Over a full run this sums
        # to the same k(k+1) closed form every exact engine reports.
        visited = np.asarray(order, dtype=np.int64)
        lo = np.maximum(visited - zone + 1, 0)
        hi = np.minimum(visited + zone, n_subs)
        obs.add("engine.rows", int(visited.size))
        obs.add("engine.cells", int((n_subs - (hi - lo)).sum()))
        obs.add("stamp.mass_rows", int(visited.size))
    with obs.span("engine.stamp"):
        for i in order:
            row = mass_with_stats(t, int(i), length, mu, sigma, context=ctx)
            apply_exclusion_zone(row, int(i), zone)
            # Update the query row ...
            j = int(np.argmin(row))
            if row[j] < profile[i]:
                profile[i] = row[j]
                index[i] = j
            # ... and every row this profile improves (the anytime trick).
            better = row < profile
            profile[better] = row[better]
            index[better] = int(i)
    return MatrixProfile(profile=profile, index=index, length=length)
