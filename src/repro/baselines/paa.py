"""Piecewise Aggregate Approximation (PAA) over z-normalized subsequences.

QUICK MOTIF's summarization layer.  Every subsequence of length ``l`` is
z-normalized and reduced to ``w`` segment means.  The classic PAA bound
(Keogh et al.) makes the summaries a *lower-bounding* representation::

    dist(x, y)  >=  sqrt(s) * || PAA(x) - PAA(y) ||,    s = l // w

where the distance on the left is taken over the first ``w * s`` points
of the z-normalized subsequences (truncating the remainder only drops
non-negative terms, so the bound stays admissible for the full length).

The whole transform is computed for *all* subsequences at once from the
series prefix sums — O(n w) total.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distance.sliding import prefix_sums
from repro.kernels.context import SeriesContext
from repro.distance.znorm import CONSTANT_EPS
from repro.exceptions import InvalidParameterError

__all__ = ["paa_transform", "paa_lower_bound_factor", "paa_pairwise_lower_bound"]


def paa_lower_bound_factor(length: int, width: int) -> float:
    """The ``sqrt(s)`` scale turning PAA distances into distance bounds."""
    if width <= 0 or width > length:
        raise InvalidParameterError(
            f"PAA width must be in [1, length], got {width} for length {length}"
        )
    return math.sqrt(length // width)


def paa_transform(series: np.ndarray, length: int, width: int) -> np.ndarray:
    """PAA summaries of every z-normalized subsequence.

    Returns an ``(n - l + 1, w)`` matrix; row ``i`` is the PAA of the
    z-normalized ``series[i : i + l]`` computed over ``w`` equal segments
    of ``s = l // w`` points (trailing remainder ignored, consistent with
    the lower bound).  Constant subsequences summarize to zeros.
    """
    t = np.asarray(series, dtype=np.float64)
    n_subs = t.size - length + 1
    if n_subs <= 0:
        raise InvalidParameterError(
            f"length {length} leaves no subsequences in {t.size} points"
        )
    if width <= 0 or width > length:
        raise InvalidParameterError(
            f"PAA width must be in [1, length], got {width} for length {length}"
        )
    seg = length // width
    cumsum = prefix_sums(t)
    mu, sigma = SeriesContext(t).moving_mean_std(length)
    starts = np.arange(n_subs)
    summaries = np.empty((n_subs, width), dtype=np.float64)
    for k in range(width):
        lo = starts + k * seg
        seg_mean = (cumsum[lo + seg] - cumsum[lo]) / seg
        summaries[:, k] = seg_mean - mu
    safe_sigma = np.maximum(sigma, CONSTANT_EPS)
    summaries /= safe_sigma[:, None]
    summaries[sigma < CONSTANT_EPS] = 0.0
    return summaries


def paa_pairwise_lower_bound(
    paa_a: np.ndarray, paa_b: np.ndarray, length: int, width: int
) -> np.ndarray:
    """Lower-bound distance matrix between two PAA row blocks.

    ``paa_a`` is ``(ka, w)``, ``paa_b`` ``(kb, w)``; the result is
    ``(ka, kb)`` of admissible bounds on the true z-normalized distances.
    """
    diff = paa_a[:, None, :] - paa_b[None, :, :]
    return paa_lower_bound_factor(length, width) * np.sqrt(
        np.einsum("abw,abw->ab", diff, diff)
    )

