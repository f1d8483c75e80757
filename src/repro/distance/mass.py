"""MASS: Mueen's Algorithm for Similarity Search.

Computes one full distance profile in O(n log n): a single FFT sliding dot
product followed by the closed-form Eq. 3 kernel.  This is the inner loop
of STAMP and the recomputation primitive of VALMOD's Algorithm 4 (lines
30-33).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro import obs
from repro.types import FloatArray

from repro.distance.comoment import comoment_row, distance_profile_from_qt
from repro.distance.sliding import moving_mean_std
from repro.distance.znorm import as_series
from repro.exceptions import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - kernels sits above this layer
    from repro.kernels.context import SeriesContext

__all__ = ["mass", "mass_with_stats"]


def mass(
    series: FloatArray,
    start: int,
    length: int,
    context: Optional["SeriesContext"] = None,
) -> FloatArray:
    """Distance profile of ``series[start : start + length]`` vs all windows.

    Convenience wrapper that computes the window statistics internally
    (or pulls them from ``context`` when one for this series is passed);
    use :func:`mass_with_stats` inside loops that already have them.
    """
    t = as_series(series)
    if context is not None and context.matches(t):
        mu, sigma = context.moving_mean_std(length)
    else:
        mu, sigma = moving_mean_std(t, length)
    return mass_with_stats(t, start, length, mu, sigma, context=context)


def mass_with_stats(
    series: FloatArray,
    start: int,
    length: int,
    mu: FloatArray,
    sigma: FloatArray,
    context: Optional["SeriesContext"] = None,
) -> FloatArray:
    """MASS with precomputed per-window statistics.

    ``mu`` / ``sigma`` must be the length-``length`` moving statistics of
    ``series``.  Passing ``context`` reuses the cached series spectrum for
    the FFT (duck-typed so the distance layer never imports
    :mod:`repro.kernels` — any object with a matching
    ``matches``/``sliding_dot_product`` works).
    """
    t = np.asarray(series, dtype=np.float64)
    n_subs = t.size - length + 1
    if n_subs <= 0:
        raise InvalidParameterError(
            f"length {length} leaves no subsequences in series of {t.size} points"
        )
    if not 0 <= start < n_subs:
        raise InvalidParameterError(
            f"query start {start} out of range for {n_subs} subsequences"
        )
    obs.add("mass.profile_calls")
    c = comoment_row(t[start : start + length], t, mu, context=context)
    return distance_profile_from_qt(c, length, float(sigma[start]), sigma)


def mass_pair(series: FloatArray, length: int, i: int, j: int) -> Tuple[float, float]:
    """Distance and correlation between windows ``i`` and ``j`` (exact).

    Small helper used by engines that need a single pairwise value without
    materializing a profile.
    """
    t = np.asarray(series, dtype=np.float64)
    a = t[i : i + length]
    b = t[j : j + length]
    c = np.array([np.dot(a - a.mean(), b - b.mean())])
    d = float(distance_profile_from_qt(c, length, a.std(), np.array([b.std()]))[0])
    return d, 1.0 - d * d / (2.0 * length)
