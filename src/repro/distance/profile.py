"""Distance-profile helpers: the naive reference and the exclusion zone.

A distance profile (Definition 2.4) holds the z-normalized Euclidean
distance between one query subsequence and every other subsequence of the
series.  The fast form, Eq. 3 on centred co-moments, lives in
:mod:`repro.distance.comoment`.
"""

from __future__ import annotations

import numpy as np

from repro.types import FloatArray

from repro.distance.znorm import as_series, znormalized_distance
from repro.exceptions import InvalidParameterError

__all__ = [
    "naive_distance_profile",
    "apply_exclusion_zone",
]


def naive_distance_profile(series: FloatArray, start: int, length: int) -> FloatArray:
    """Reference distance profile by explicit re-normalization (O(n l)).

    Slow but obviously correct; used as ground truth in tests and by the
    brute-force engines.  No exclusion zone is applied.
    """
    t = as_series(series)
    n_subs = t.size - length + 1
    if not 0 <= start < n_subs:
        raise InvalidParameterError(
            f"query start {start} out of range for {n_subs} subsequences"
        )
    query = t[start : start + length]
    profile = np.empty(n_subs, dtype=np.float64)
    for j in range(n_subs):
        profile[j] = znormalized_distance(query, t[j : j + length])
    return profile


def apply_exclusion_zone(
    profile: FloatArray, center: int, exclusion: int, value: float = np.inf
) -> FloatArray:
    """Mask the trivial-match region around ``center`` in place.

    The paper's exclusion zone covers positions within ``l/2`` of the
    query (Section 2); ``exclusion`` is that half-width.  Returns the
    profile for chaining.
    """
    if center < 0 or exclusion < 0:
        raise InvalidParameterError(
            f"center and exclusion must be non-negative, got {center}, {exclusion}"
        )
    lo = max(0, center - exclusion + 1)
    hi = min(profile.size, center + exclusion)
    profile[lo:hi] = value
    return profile

