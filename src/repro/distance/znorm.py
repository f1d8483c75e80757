"""z-normalization and the exact z-normalized Euclidean distance.

This module is the reference ("naive") implementation of the distance used
throughout the paper.  Every fast kernel in the library (Eq. 3, MASS,
STOMP, the lower bound of Eq. 2) is tested against these functions.

Degenerate (constant) subsequences have undefined z-normalization; we
adopt the standard matrix-profile convention:

* both subsequences constant        -> distance 0
* exactly one subsequence constant  -> distance ``sqrt(l)``

which is the limit behaviour used by the reference C implementations and
keeps all downstream pruning admissible.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro.types import FloatArray

from repro.exceptions import InvalidParameterError, InvalidSeriesError

__all__ = [
    "as_series",
    "znormalize",
    "znormalized_distance",
    "pearson_to_distance",
    "distance_to_pearson",
    "CONSTANT_EPS",
]

#: standard deviations below this threshold are treated as zero (constant
#: subsequence).  Relative to z-normalized data this is conservatively tiny.
CONSTANT_EPS = 1e-13

ArrayLike = Union[FloatArray, list, tuple]


def as_series(data: ArrayLike, min_length: int = 2) -> FloatArray:
    """Validate and convert input to a 1-D float64 array.

    Raises :class:`InvalidSeriesError` for non-1-D input, series shorter
    than ``min_length``, or non-finite values.
    """
    if min_length < 1:
        raise InvalidParameterError(f"min_length must be positive, got {min_length}")
    series = np.asarray(data, dtype=np.float64)
    if series.ndim != 1:
        raise InvalidSeriesError(f"expected a 1-D series, got ndim={series.ndim}")
    if series.size < min_length:
        raise InvalidSeriesError(
            f"series too short: {series.size} points, need at least {min_length}"
        )
    if not np.isfinite(series).all():
        raise InvalidSeriesError("series contains NaN or infinite values")
    return series


def znormalize(subsequence: ArrayLike) -> FloatArray:
    """Return the z-normalized copy ``(x - mean) / std`` of a subsequence.

    A constant subsequence (std below :data:`CONSTANT_EPS`) normalizes to
    the all-zeros vector, consistent with the distance conventions above.
    """
    x = np.asarray(subsequence, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise InvalidSeriesError("znormalize expects a non-empty 1-D array")
    if not np.isfinite(x).all():
        raise InvalidSeriesError("subsequence contains NaN or infinite values")
    mu = x.mean()
    sigma = x.std()
    if sigma < CONSTANT_EPS:
        return np.zeros_like(x)
    return (x - mu) / sigma


def znormalized_distance(a: ArrayLike, b: ArrayLike) -> float:
    """Exact z-normalized Euclidean distance between two subsequences.

    This is the ``dist`` function of Definition 2.3, computed the slow,
    obviously-correct way: z-normalize both inputs, then take the plain
    Euclidean distance.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise InvalidParameterError(
            f"subsequences must have equal length, got {x.size} and {y.size}"
        )
    x_const = x.std() < CONSTANT_EPS
    y_const = y.std() < CONSTANT_EPS
    if x_const and y_const:
        return 0.0
    if x_const or y_const:
        return math.sqrt(x.size)
    return float(np.linalg.norm(znormalize(x) - znormalize(y)))


def pearson_to_distance(correlation: float, length: int) -> float:
    """Convert Pearson correlation to z-normalized Euclidean distance.

    Implements ``dist = sqrt(2 * l * (1 - q))`` — the identity underlying
    Eq. 3 of the paper.  The correlation is clipped to [-1, 1] to absorb
    floating-point drift from the incremental dot-product updates.
    """
    if length <= 0:
        raise InvalidParameterError(f"length must be positive, got {length}")
    q = min(1.0, max(-1.0, correlation))
    return math.sqrt(2.0 * length * (1.0 - q))


def distance_to_pearson(distance: float, length: int) -> float:
    """Inverse of :func:`pearson_to_distance`: ``q = 1 - dist^2 / (2l)``."""
    if length <= 0:
        raise InvalidParameterError(f"length must be positive, got {length}")
    return 1.0 - (distance * distance) / (2.0 * length)
