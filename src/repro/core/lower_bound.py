"""The lower-bounding distance of Eq. 1-2 — the heart of VALMOD.

Setting
-------
We know the correlation ``q`` between subsequences ``T[i]`` and ``T[j]``
at length ``l`` and want a bound on their z-normalized distance at length
``l + k`` *without looking at the last k values of* ``T[i]``.  Minimizing
over all possible normalizations of the unknown extension (Eq. 1) yields
the closed form of Eq. 2::

    LB(d[i,j; l+k]) = sqrt(l)           * sigma[j,l] / sigma[j,l+k]   if q <= 0
                      sqrt(l (1 - q^2)) * sigma[j,l] / sigma[j,l+k]   otherwise

where ``j`` is the subsequence whose extension *is* known (the distance
profile owner in VALMOD).

The two properties VALMOD exploits, both proved by inspection of the
formula and both covered by property-based tests:

* **Admissibility** — ``LB <= d`` for every ``k >= 0``.
* **Rank preservation** — within one distance profile, only the factor
  ``1 / sigma[j, l+k]`` depends on ``k``, and it is shared by every entry
  of the profile; the ranking of entries by LB is therefore identical for
  every ``k``.

We factor the formula as ``LB(l + k) = lb_base / sigma[j, l+k]`` with
``lb_base = f(q) * sqrt(l) * sigma[j, l]`` and ``f(q) = 1`` for ``q <= 0``
else ``sqrt(1 - q^2)``.  ``lb_base`` is constant per entry, which is what
``listDP`` stores.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro.types import FloatArray

from repro.distance.comoment import comoment_row, correlation_from_qt
from repro.distance.znorm import CONSTANT_EPS, as_series
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext

__all__ = [
    "lower_bound_base",
    "lower_bound_from_base",
    "lower_bound_distance",
    "lower_bound_profile",
    "tightness_of_lower_bound",
]

FloatOrArray = Union[float, FloatArray]


def lower_bound_base(
    correlation: FloatOrArray, length: int, sigma_owner: FloatOrArray
) -> FloatOrArray:
    """The k-independent numerator ``f(q) * sqrt(l) * sigma[j,l]`` of Eq. 2.

    ``correlation`` is ``q`` between the pair at the base length,
    ``sigma_owner`` the standard deviation of the profile-owner
    subsequence (the one whose extension is known) at the base length.
    Accepts scalars or arrays of correlations; an array ``sigma_owner``
    broadcasts against them (one owner per row).
    """
    if length <= 0:
        raise InvalidParameterError(f"length must be positive, got {length}")
    q = np.clip(np.asarray(correlation, dtype=np.float64), -1.0, 1.0)
    # A correlation within a few ulps of +/-1 is a perfect match whose
    # computed q picked up rounding noise; snapping to the limit keeps the
    # bound admissible (raising |q| only shrinks f(q), never inflates it).
    q = np.where(np.abs(q) > 1.0 - 1e-12, np.sign(q), q)
    factor = np.where(q <= 0.0, 1.0, np.sqrt(np.maximum(1.0 - q * q, 0.0)))
    result = factor * math.sqrt(length) * sigma_owner
    if np.isscalar(correlation) or getattr(correlation, "ndim", 1) == 0:
        return float(result)
    return result


def lower_bound_from_base(
    lb_base: FloatOrArray, sigma_owner_at_target: FloatOrArray
) -> FloatOrArray:
    """Eq. 2 evaluated at a target length: ``lb_base / sigma[j, l+k]``.

    Constant (zero-sigma) owner windows make the bound vacuous, not
    invalid, so they map to 0.
    """
    sigma = np.asarray(sigma_owner_at_target, dtype=np.float64)
    base = np.asarray(lb_base, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        lb = np.where(sigma < CONSTANT_EPS, 0.0, base / np.maximum(sigma, CONSTANT_EPS))
    if lb.ndim == 0:
        return float(lb)
    return lb


def lower_bound_distance(
    series: FloatArray, i: int, j: int, length: int, k: int
) -> float:
    """Eq. 2 for one pair, computed explicitly (reference implementation).

    Bounds ``dist(T[i, l+k], T[j, l+k])`` from the length-``l`` statistics
    of both subsequences plus ``sigma[j, l+k]``.  Used directly by tests
    and by the analysis modules; the engines use the factored form.
    """
    t = as_series(series)
    if k < 0:
        raise InvalidParameterError(f"k must be non-negative, got {k}")
    if min(i, j) < 0 or length <= 0:
        raise InvalidParameterError(
            f"need i, j >= 0 and length > 0, got i={i}, j={j}, length={length}"
        )
    if j + length + k > t.size:
        raise InvalidParameterError(
            f"owner subsequence at {j} of length {length + k} exceeds the series"
        )
    if i + length > t.size:
        raise InvalidParameterError(
            f"subsequence at {i} of length {length} exceeds the series"
        )
    a = t[i : i + length]
    b = t[j : j + length]
    sig_a = float(a.std())
    sig_b = float(b.std())
    if sig_a < CONSTANT_EPS or sig_b < CONSTANT_EPS:
        return 0.0  # degenerate windows: only the vacuous bound is admissible
    q = float(np.dot(a - a.mean(), b - b.mean()) / (length * sig_a * sig_b))
    sig_owner_ext = float(t[j : j + length + k].std())
    base = lower_bound_base(q, length, sig_b)
    return float(lower_bound_from_base(base, sig_owner_ext))


def lower_bound_profile(
    series: FloatArray, owner: int, length: int, k: int
) -> FloatArray:
    """The lower-bound distance profile ``LB(D_j^{l+k})`` of Section 4.1.

    Entry ``i`` bounds ``dist(T[i, l+k], T[owner, l+k])``.  The vector has
    one entry per subsequence of length ``l + k`` (the candidate set at
    the *target* length).
    """
    t = np.asarray(series, dtype=np.float64)
    if k < 0:
        raise InvalidParameterError(f"k must be non-negative, got {k}")
    target = length + k
    n_target = t.size - target + 1
    if n_target <= 0:
        raise InvalidParameterError(
            f"target length {target} leaves no subsequences in {t.size} points"
        )
    if owner >= n_target:
        raise InvalidParameterError(
            f"owner {owner} has no subsequence of target length {target}"
        )
    ctx = SeriesContext(t)
    mu, sigma = ctx.moving_mean_std(length)
    c = comoment_row(t[owner : owner + length], t, mu, context=ctx)
    corr = correlation_from_qt(
        c, length, max(float(sigma[owner]), CONSTANT_EPS), sigma
    )
    base = lower_bound_base(corr[:n_target], length, float(sigma[owner]))
    sig_owner_ext = float(t[owner : owner + target].std())
    lb = lower_bound_from_base(base, sig_owner_ext)
    lb = np.asarray(lb, dtype=np.float64)
    # Degenerate candidate windows make q meaningless -> vacuous bound.
    lb[sigma[:n_target] < CONSTANT_EPS] = 0.0
    if float(sigma[owner]) < CONSTANT_EPS:
        lb[:] = 0.0
    return lb


def tightness_of_lower_bound(
    lb: FloatOrArray, true_distance: FloatOrArray
) -> FloatOrArray:
    """TLB = LB / true distance, the quality measure of Figure 10.

    Ranges in [0, 1] for an admissible bound; pairs at distance 0 define
    TLB = 1 (the bound is exact there).
    """
    lb_arr = np.asarray(lb, dtype=np.float64)
    if not np.isfinite(lb_arr).all():
        raise InvalidParameterError("lower bounds contain NaN or infinite values")
    d_arr = np.asarray(true_distance, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        tlb = np.where(d_arr <= 0.0, 1.0, lb_arr / np.where(d_arr <= 0.0, 1.0, d_arr))
    if tlb.ndim == 0:
        return float(tlb)
    return tlb
