"""FLUSS semantic segmentation (Matrix Profile VIII).

Another sibling primitive of the matrix-profile family: the *arc curve*
counts, for every position, how many nearest-neighbor arcs (from the
matrix-profile index) cross above it.  Inside a homogeneous regime,
arcs are dense; at a regime boundary, few arcs cross — so the minima of
the corrected arc curve locate semantic segment boundaries (Gharghabi
et al., 2017).

The correction divides by the expected crossings of an
arc-at-random-positions model (an inverted parabola), clipping to
[0, 1]; edges are masked because the parabola vanishes there.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.types import FloatArray, IntArray

from repro.distance.znorm import as_series
from repro.exceptions import InvalidParameterError
from repro.matrixprofile.stomp import stomp

__all__ = [
    "arc_curve",
    "boundaries_from_cac",
    "corrected_arc_curve",
    "fluss",
    "regime_boundaries",
]


def arc_curve(index: IntArray) -> FloatArray:
    """Raw arc crossings per position from a matrix-profile index."""
    idx = np.asarray(index, dtype=np.int64)
    n = idx.size
    delta = np.zeros(n + 1, dtype=np.int64)
    for i, j in enumerate(idx):
        if j < 0:
            continue
        lo, hi = (i, int(j)) if i < j else (int(j), i)
        delta[lo] += 1
        delta[hi] -= 1
    return np.cumsum(delta[:n]).astype(np.float64)


def corrected_arc_curve(index: IntArray, length: int) -> FloatArray:
    """The CAC: arcs normalized by the random-arc parabola, in [0, 1].

    Positions within one subsequence length of either edge are set to
    1.0 (no boundary can be detected there), per the published practice.
    """
    idx = np.asarray(index, dtype=np.int64)
    n = idx.size
    if n < 3:
        raise InvalidParameterError("index too short for an arc curve")
    crossings = arc_curve(idx)
    positions = np.arange(n, dtype=np.float64)
    expected = 2.0 * positions * (n - positions) / n
    expected[expected < 1e-9] = 1e-9
    cac = np.minimum(crossings / expected, 1.0)
    guard = min(length, n // 2)
    cac[:guard] = 1.0
    cac[n - guard :] = 1.0
    return cac


def fluss(series: FloatArray, length: int) -> FloatArray:
    """Corrected arc curve of a series (computes the MP internally)."""
    t = as_series(series, min_length=8)
    mp = stomp(t, length)
    return corrected_arc_curve(mp.index, length)


def boundaries_from_cac(
    cac: FloatArray, length: int, n_regimes: int = 2
) -> List[int]:
    """The ``n_regimes - 1`` deepest minima of a precomputed CAC.

    Boundaries are extracted greedily: take the global CAC minimum, mask
    ``5 * length`` around it (the published separation heuristic), and
    repeat.  Callers that already hold a CAC (e.g. the
    :mod:`repro.features` façade) avoid recomputing the matrix profile
    :func:`fluss` would rebuild.
    """
    if n_regimes < 2:
        raise InvalidParameterError(f"n_regimes must be >= 2, got {n_regimes}")
    remaining = np.asarray(cac, dtype=np.float64).copy()
    boundaries: List[int] = []
    separation = 5 * length
    for _ in range(n_regimes - 1):
        pos = int(np.argmin(remaining))
        if remaining[pos] >= 1.0:
            break  # nothing left to split
        boundaries.append(pos)
        lo = max(0, pos - separation)
        hi = min(remaining.size, pos + separation)
        remaining[lo:hi] = 1.0
    return sorted(boundaries)


def regime_boundaries(
    series: FloatArray, length: int, n_regimes: int = 2
) -> List[int]:
    """The ``n_regimes - 1`` deepest CAC minima, mutually separated.

    Convenience wrapper: computes :func:`fluss` and delegates to
    :func:`boundaries_from_cac`.
    """
    return boundaries_from_cac(fluss(series, length), length, n_regimes)
