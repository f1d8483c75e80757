"""Brute-force matrix profile: the ground truth every engine is tested on.

O(n^2 l): z-normalizes every subsequence explicitly and compares all
pairs.  Deliberately written with no shared state with the fast kernels so
an error in the optimized code cannot hide here.
"""

from __future__ import annotations

import numpy as np

from repro.types import FloatArray

from repro.distance.znorm import as_series, znormalized_distance
from repro.distance.sliding import validate_subsequence_length
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.matrixprofile.index import MatrixProfile

__all__ = ["brute_force_matrix_profile"]


def brute_force_matrix_profile(series: FloatArray, length: int) -> MatrixProfile:
    """Compute the matrix profile by exhaustive pairwise comparison."""
    t = as_series(series, min_length=4)
    n_subs = validate_subsequence_length(t.size, length)
    zone = exclusion_zone_half_width(length)
    profile = np.full(n_subs, np.inf, dtype=np.float64)
    index = np.full(n_subs, -1, dtype=np.int64)
    for i in range(n_subs):
        for j in range(i + zone, n_subs):
            d = znormalized_distance(t[i : i + length], t[j : j + length])
            if d < profile[i]:
                profile[i] = d
                index[i] = j
            if d < profile[j]:
                profile[j] = d
                index[j] = i
    return MatrixProfile(profile=profile, index=index, length=length)
