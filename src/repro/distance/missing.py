"""z-normalized distance under missing data.

VALMOD's Eq. 2 is imported from Zhu, Mueen & Keogh, "Admissible Time
Series Motif Discovery with Missing Data" (ref. [55] of the paper): the
lower bound there answers "how close could these windows be, given that
some values are unknown?"  This module implements that setting directly,
which both grounds Eq. 2's provenance and makes the library usable on
real sensor data with gaps.

Semantics
---------
Missing values are NaN.  For two windows with missing entries, the
*admissible* distance is the minimum achievable z-normalized distance
over all imputations of the missing values — a lower bound on the true
(unobserved) distance.  We compute it the same way Eq. 1 is derived:
restrict to the co-observed positions and minimize over the affine
normalization of each side, which yields the correlation-based closed
form below.  Motif discovery that prunes with these bounds never
discards the true motif (the paper's admissibility argument).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.types import BoolArray, FloatArray

from repro.exceptions import InvalidParameterError, InvalidSeriesError

__all__ = [
    "admissible_distance",
    "missing_aware_profile",
    "has_missing",
]

_EPS = 1e-13


def has_missing(series: FloatArray) -> bool:
    """True when the series contains NaN gaps."""
    return bool(np.isnan(np.asarray(series, dtype=np.float64)).any())


def admissible_distance(a: FloatArray, b: FloatArray) -> float:
    """Minimum achievable z-normalized distance given the NaN gaps.

    With no gaps this equals the exact z-normalized distance.  With
    gaps, it is the tight lower bound over imputations: only the
    co-observed positions constrain the distance, and each side's
    normalization over its missing part is free (Eq. 1's minimization).

    Fully-disjoint observations (no co-observed positions) yield 0 —
    the vacuous bound.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise InvalidParameterError(
            f"windows must have equal length, got {x.size} and {y.size}"
        )
    if x.size < 2:
        raise InvalidSeriesError("windows must have at least 2 points")
    x_gappy = bool(np.isnan(x).any())
    y_gappy = bool(np.isnan(y).any())
    if x_gappy and y_gappy:
        # Both normalizations are free: scaling both fragments toward
        # zero drives the distance to zero, so only the vacuous bound is
        # admissible (matching the published treatment of double gaps).
        return 0.0
    if x_gappy:
        x, y = y, x  # make x the complete side
        y_gappy = True
    observed = ~np.isnan(y)
    m = int(observed.sum())
    if m < 2:
        return 0.0
    xo = x[observed]
    yo = y[observed]
    sig_xo = float(xo.std())
    sig_yo = float(yo.std())
    if sig_xo < _EPS or sig_yo < _EPS:
        return 0.0  # a constant observed part constrains nothing
    q = float(np.dot(xo - xo.mean(), yo - yo.mean()) / (m * sig_xo * sig_yo))
    q = min(1.0, max(-1.0, q))
    if not y_gappy:
        return math.sqrt(2.0 * m * (1.0 - q))  # both complete: exact
    # One side gappy: Eq. 2's one-anchored minimization over the gappy
    # side's normalization, scaled by the complete side's restriction.
    sig_x_full = float(x.std())
    if sig_x_full < _EPS:
        return 0.0
    factor = 1.0 if q <= 0.0 else math.sqrt(max(0.0, 1.0 - q * q))
    return factor * math.sqrt(m) * sig_xo / sig_x_full


def missing_aware_profile(
    series: FloatArray, start: int, length: int
) -> Tuple[FloatArray, BoolArray]:
    """Admissible distance profile of one query over a gappy series.

    Returns ``(bounds, exact_mask)``: ``bounds[j]`` is the admissible
    distance between windows ``start`` and ``j``; ``exact_mask[j]`` is
    True where neither window has gaps, i.e. the bound is the exact
    distance.  O(n l) — the gappy setting defeats the FFT tricks, which
    is the published algorithm's behaviour too.
    """
    t = np.asarray(series, dtype=np.float64)
    n_subs = t.size - length + 1
    if n_subs <= 0:
        raise InvalidParameterError(
            f"length {length} leaves no subsequences in {t.size} points"
        )
    if not 0 <= start < n_subs:
        raise InvalidParameterError(f"query start {start} out of range")
    query = t[start : start + length]
    query_gappy = bool(np.isnan(query).any())
    bounds = np.empty(n_subs, dtype=np.float64)
    exact = np.empty(n_subs, dtype=bool)
    for j in range(n_subs):
        window = t[j : j + length]
        bounds[j] = admissible_distance(query, window)
        exact[j] = not (query_gappy or np.isnan(window).any())
    return bounds, exact
