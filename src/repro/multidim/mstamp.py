"""mSTAMP: the k-dimensional matrix profile for every k at once.

Algorithm (Yeh et al. 2017): for every query position, compute one
z-normalized distance profile *per dimension*, sort the per-position
distances across dimensions ascending, and prefix-average them.  The
k-th row of the result is the best achievable average distance using
the k best-agreeing dimensions — so row k's minimum is the k-dimensional
motif, and the argsorted dimension ids say *which* dimensions
participate.

Cost: O(d n^2) time via per-dimension MASS profiles, O(d n) memory per
query row.  Exactness is inherited from MASS (tested against a naive
implementation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.distance.mass import mass_with_stats
from repro.distance.profile import apply_exclusion_zone
from repro.exceptions import InvalidParameterError, InvalidSeriesError
from repro.kernels.context import SeriesContext
from repro.matrixprofile.exclusion import exclusion_zone_half_width

__all__ = ["MultidimMatrixProfile", "MultidimMotif", "mstamp", "multidim_motifs"]


@dataclass(frozen=True)
class MultidimMotif:
    """The k-dimensional motif: a pair plus its participating dimensions."""

    k: int
    a: int
    b: int
    distance: float  # mean per-dimension z-normalized distance
    dimensions: Tuple[int, ...]

    @property
    def normalized_distance(self) -> float:
        return self.distance  # already an average of same-length distances


@dataclass
class MultidimMatrixProfile:
    """The (d, n_subs) multidimensional matrix profile.

    ``profile[k-1, i]`` is the smallest mean distance between window
    ``i`` and any non-trivial window, using the best k dimensions;
    ``index[k-1, i]`` that neighbor's offset.
    """

    length: int
    profile: np.ndarray
    index: np.ndarray

    @property
    def n_dimensions(self) -> int:
        return self.profile.shape[0]

    def motif(self, k: int, series: np.ndarray = None) -> MultidimMotif:
        """The k-dimensional motif (1-based k).

        Passing the original ``series`` recovers the participating
        dimensions (the k best-agreeing ones at the motif location).
        """
        if not 1 <= k <= self.n_dimensions:
            raise InvalidParameterError(
                f"k must be in [1, {self.n_dimensions}], got {k}"
            )
        row = self.profile[k - 1]
        finite = np.isfinite(row)
        if not finite.any():
            raise InvalidParameterError(f"no {k}-dimensional motif exists")
        a = int(np.argmin(np.where(finite, row, np.inf)))
        b = int(self.index[k - 1, a])
        dims: Tuple[int, ...] = tuple()
        if series is not None:
            dims = _participating_dimensions(series, self.length, a, b, k)
        return MultidimMotif(
            k=k, a=min(a, b), b=max(a, b), distance=float(row[a]), dimensions=dims
        )


def _validate_multidim(series: np.ndarray) -> np.ndarray:
    data = np.asarray(series, dtype=np.float64)
    if data.ndim != 2:
        raise InvalidSeriesError(
            f"multidimensional series must be (d, n), got ndim={data.ndim}"
        )
    if data.shape[0] < 1 or data.shape[0] > data.shape[1]:
        raise InvalidSeriesError(
            f"expected (d, n) with d <= n, got shape {data.shape}"
        )
    if not np.isfinite(data).all():
        raise InvalidSeriesError("series contains NaN or infinite values")
    return data


def _participating_dimensions(
    series: np.ndarray, length: int, a: int, b: int, k: int
) -> Tuple[int, ...]:
    """The k dimensions with the smallest pairwise distances at (a, b)."""
    from repro.distance.znorm import znormalized_distance

    data = _validate_multidim(series)
    distances = np.array(
        [
            znormalized_distance(
                data[dim, a : a + length], data[dim, b : b + length]
            )
            for dim in range(data.shape[0])
        ]
    )
    return tuple(int(d) for d in np.argsort(distances, kind="stable")[:k])


def mstamp(series: np.ndarray, length: int) -> MultidimMatrixProfile:
    """Compute the multidimensional matrix profile of a (d, n) series."""
    data = _validate_multidim(series)
    d, n = data.shape
    n_subs = n - length + 1
    if n_subs < 2 or length < 2 or length > n // 2:
        raise InvalidParameterError(
            f"length {length} invalid for a series of {n} points"
        )
    zone = exclusion_zone_half_width(length)
    # One context per dimension: each caches its stats and series FFT for
    # the whole query loop below.
    contexts = [SeriesContext(data[dim]) for dim in range(d)]
    stats = [ctx.moving_mean_std(length) for ctx in contexts]

    profile = np.full((d, n_subs), np.inf, dtype=np.float64)
    index = np.full((d, n_subs), -1, dtype=np.int64)
    per_dim = np.empty((d, n_subs), dtype=np.float64)

    for i in range(n_subs):
        for dim in range(d):
            mu, sigma = stats[dim]
            per_dim[dim] = mass_with_stats(
                data[dim], i, length, mu, sigma, context=contexts[dim]
            )
        # Sort distances across dimensions per candidate position, then
        # prefix-average: row k-1 = best-k-dimensions mean distance.
        ordered = np.sort(per_dim, axis=0)
        cumulative = np.cumsum(ordered, axis=0)
        cumulative /= np.arange(1, d + 1)[:, None]
        for k_row in range(d):
            row = cumulative[k_row]
            masked = row.copy()
            apply_exclusion_zone(masked, i, zone)
            j = int(np.argmin(masked))
            if np.isfinite(masked[j]) and masked[j] < profile[k_row, i]:
                profile[k_row, i] = masked[j]
                index[k_row, i] = j
    return MultidimMatrixProfile(length=length, profile=profile, index=index)


def multidim_motifs(series: np.ndarray, length: int) -> List[MultidimMotif]:
    """The k-dimensional motif for every k = 1..d, with dimensions."""
    data = _validate_multidim(series)
    mp = mstamp(data, length)
    return [
        mp.motif(k, series=data) for k in range(1, mp.n_dimensions + 1)
    ]
