"""Distance-profile kernels: Eq. 3 of the paper, vectorized.

A distance profile (Definition 2.4) holds the z-normalized Euclidean
distance between one query subsequence and every other subsequence of the
series.  Given the sliding dot products ``QT`` and the per-window
statistics, Eq. 3 turns each entry into::

    dist(T[i], T[j]) = sqrt(2 l (1 - (QT[i,j] - l mu_i mu_j) / (l sigma_i sigma_j)))

Constant windows are handled with the conventions documented in
:mod:`repro.distance.znorm`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.types import FloatArray, IntArray

from repro.distance.znorm import CONSTANT_EPS, as_series, znormalized_distance
from repro.exceptions import InvalidParameterError

__all__ = [
    "correlation_from_qt",
    "distance_profile_from_qt",
    "naive_distance_profile",
    "apply_exclusion_zone",
]


def correlation_from_qt(
    qt: FloatArray,
    length: Union[int, IntArray],
    mu_q: Union[float, FloatArray],
    sigma_q: Union[float, FloatArray],
    mu: FloatArray,
    sigma: FloatArray,
) -> FloatArray:
    """Pearson correlation between the query and every window, from QT.

    ``qt`` is the sliding dot product of the query against the series,
    ``mu_q`` / ``sigma_q`` the query statistics, ``mu`` / ``sigma`` the
    per-window statistics.  Windows where either side is constant get
    correlation 0 here; the distance kernel overrides them explicitly.
    Broadcasts over rows like :func:`distance_profile_from_qt`.
    """
    cols = qt.shape[-1]
    denom = length * sigma_q * sigma[..., :cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = (qt - length * mu_q * mu[..., :cols]) / denom
    corr[~np.isfinite(corr)] = 0.0
    np.clip(corr, -1.0, 1.0, out=corr)
    return corr


def distance_profile_from_qt(
    qt: FloatArray,
    length: Union[int, IntArray],
    mu_q: Union[float, FloatArray],
    sigma_q: Union[float, FloatArray],
    mu: FloatArray,
    sigma: FloatArray,
) -> FloatArray:
    """Vectorized Eq. 3: distance profile from dot products and statistics.

    Applies the constant-window conventions: distance 0 when both the
    query and the window are constant, ``sqrt(l)`` when exactly one is.

    Broadcasts over rows: with a ``(rows, n)`` stack of dot-product
    rows, pass ``length``, ``mu_q`` and ``sigma_q`` as ``(rows, 1)``
    columns and ``mu`` / ``sigma`` as ``(rows, >= n)`` stacks; each row
    is then bitwise the 1-D profile of its own query.
    """
    if np.asarray(length).min() <= 0:
        raise InvalidParameterError(f"length must be positive, got {length}")
    # A constant query's row is all conventions, so its sigma needs no
    # floor: whatever the division leaves there is overwritten here.  The
    # conventions are set as correlations, which the exact arithmetic
    # below turns into distances: 1 gives 0 (both sides constant), 1/2
    # gives 2l·(1 - 1/2) = l, so sqrt(l) (exactly one side constant).
    corr = correlation_from_qt(qt, length, mu_q, sigma_q, mu, sigma)
    window_const = sigma[..., : qt.shape[-1]] < CONSTANT_EPS
    corr[window_const] = 1.0
    corr[window_const != (sigma_q < CONSTANT_EPS)] = 0.5
    profile = np.subtract(1.0, corr, out=corr)
    profile *= 2.0 * length
    np.maximum(profile, 0.0, out=profile)
    return np.sqrt(profile, out=profile)


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

