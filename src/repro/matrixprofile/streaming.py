"""Incremental (streaming) matrix profile — STAMPI-style appends.

The matrix-profile line of work supports online maintenance: when a new
point arrives, one new subsequence appears, and the profile is updated
by (a) computing the new subsequence's distance profile and (b) letting
it improve existing entries.  Total cost per append is O(n) with the
incremental dot-product update — the same recurrence STOMP uses, rotated
90 degrees.

The window, its statistics and the trailing co-moment row live in a
:class:`~repro.kernels.streaming_stats.StreamingSeriesStats`, the same
streaming core :class:`~repro.matrixprofile.streaming_valmod.StreamingValmod`
uses: amortized-doubling buffers, one exact O(l) stats computation per
append instead of a per-append context rebuild, and the co-moment
recurrence re-anchored exactly by the shared drift rule.  The
``streaming.buffer.regrows`` counter proves the amortization (log₂
growths over any run) and ``stats.cache.misses`` stays flat across
appends.

With ``max_points=`` the engine keeps a sliding window: the oldest
points are retired after each append, surviving rows whose recorded
neighbor was evicted are repaired by an exact distance-row recompute
(``streaming.rows.repaired``), and the result equals a from-scratch
computation on the retained window.

This engine exists because the paper's motivating deployments
(AspenTech's precursor search, EPG monitoring) are streaming settings;
the variable-length generalization lives in
:mod:`repro.matrixprofile.streaming_valmod`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.distance.comoment import comoment_row, distance_profile_from_qt
from repro.distance.profile import apply_exclusion_zone
from repro.distance.znorm import as_series
from repro.exceptions import (
    InvalidParameterError,
    NotComputedError,
    WindowTooSmallError,
)
from repro.kernels.streaming_stats import StreamingSeriesStats
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.matrixprofile.index import MatrixProfile

__all__ = ["StreamingMatrixProfile"]


class StreamingMatrixProfile:
    """Maintains the matrix profile of a growing (or sliding) series.

    Usage::

        smp = StreamingMatrixProfile(initial_series, length=64)
        for value in feed:
            smp.append(value)
        motif = smp.matrix_profile().motif_pair()

    Appends are O(n) each; the result after any number of appends equals
    a from-scratch computation on the concatenated series (tested).
    With ``max_points`` the window slides and the result equals a
    from-scratch computation on the retained window.
    """

    def __init__(
        self,
        series: np.ndarray,
        length: int,
        *,
        max_points: Optional[int] = None,
    ) -> None:
        t = as_series(series, min_length=4)
        if length < 2 or length > t.size // 2:
            raise InvalidParameterError(
                f"length {length} invalid for an initial series of {t.size} points"
            )
        self.length = int(length)
        self._zone = exclusion_zone_half_width(self.length)
        if max_points is not None:
            max_points = int(max_points)
            if max_points < 2 * self.length:
                raise WindowTooSmallError(
                    f"max_points={max_points} cannot hold two non-overlapping "
                    f"subsequences of length {self.length} "
                    f"(need >= {2 * self.length})"
                )
        self._max_points = max_points
        self._start = 0
        self._window = StreamingSeriesStats(t, self.length, self.length)
        from repro.matrixprofile.stomp import stomp

        mp = stomp(t, self.length)
        # profile/index share the window's capacity and grow with it
        n_subs = self.n_subsequences
        self._profile: Optional[np.ndarray] = np.empty(
            self._window.capacity, dtype=np.float64
        )
        self._index: Optional[np.ndarray] = np.empty(
            self._window.capacity, dtype=mp.index.dtype
        )
        self._profile[:n_subs] = mp.profile
        self._index[:n_subs] = mp.index
        if self._max_points is not None and t.size > self._max_points:
            self._evict(t.size - self._max_points)

    def __len__(self) -> int:
        return self._window.n_points

    @property
    def n_subsequences(self) -> int:
        return self._window.n_points - self.length + 1

    @property
    def window_start(self) -> int:
        """Absolute stream offset of the first retained point."""
        return self._start

    @property
    def max_points(self) -> Optional[int]:
        """Sliding-window capacity (None = unbounded growth)."""
        return self._max_points

    def append(self, value: float) -> None:
        """Ingest one new point, updating the profile in O(n)."""
        if not np.isfinite(value):
            raise InvalidParameterError(f"appended value must be finite, got {value}")
        with obs.span("streaming.append"):
            obs.add("streaming.appends")
            self._append(float(value))
            if self._max_points is not None and len(self) > self._max_points:
                self._evict(len(self) - self._max_points)

    def _append(self, value: float) -> None:
        window = self._window
        window.append(value)
        length = self.length
        mu, sigma = window.mean_std(length)
        n_subs = mu.size
        new = n_subs - 1  # offset of the subsequence that just appeared
        cap = window.capacity
        if self._profile.size < cap:
            # the window just doubled (counted in streaming.buffer.regrows)
            for name in ("_profile", "_index"):
                old = getattr(self, name)
                grown = np.empty(cap, dtype=old.dtype)
                grown[: old.size] = old
                setattr(self, name, grown)
        row = distance_profile_from_qt(
            window.trailing_comoment(), length, float(sigma[new]), sigma
        )
        lo = max(0, new - self._zone + 1)
        row[lo:] = np.inf

        profile = self._profile
        index = self._index
        profile[new] = np.inf
        index[new] = -1
        j = int(np.argmin(row))
        if np.isfinite(row[j]):
            profile[new] = row[j]
            index[new] = j
        better = row < profile[:n_subs]
        profile[:n_subs][better] = row[better]
        index[:n_subs][better] = new

    def _evict(self, count: int) -> None:
        """Retire the ``count`` oldest points and repair orphaned rows."""
        length = self.length
        remaining = len(self) - count
        if remaining < 2 * length:
            raise WindowTooSmallError(
                f"evicting {count} points would leave {remaining} < "
                f"{2 * length} needed for length {length}"
            )
        obs.add("streaming.entries.evicted", count)
        n_subs = self.n_subsequences - count
        self._window.evict(count)
        self._start += count
        for arr in (self._profile, self._index):
            arr[:n_subs] = arr[count : count + n_subs]
        profile = self._profile
        index = self._index
        idx = index[:n_subs]
        had_neighbor = idx >= 0
        idx[had_neighbor] -= count
        # Rows whose recorded neighbor was evicted lost the witness of
        # their profile value (the minimum may now be larger): recompute
        # them exactly against the surviving window.  Rows whose
        # neighbor survives keep exact values — the old minimum is
        # attained by a survivor.
        stale = np.flatnonzero(had_neighbor & (idx < 0))
        if stale.size:
            obs.add("streaming.rows.repaired", int(stale.size))
            t = self._window.series()
            mu, sigma = self._window.mean_std(length)
            for j in stale:
                j = int(j)
                c_row = comoment_row(t[j : j + length], t, mu, direct=True)
                row = distance_profile_from_qt(c_row, length, float(sigma[j]), sigma)
                apply_exclusion_zone(row, j, self._zone)
                jj = int(np.argmin(row))
                if np.isfinite(row[jj]):
                    profile[j] = row[jj]
                    index[j] = jj
                else:
                    profile[j] = np.inf
                    index[j] = -1

    def extend(self, values: Sequence[float]) -> None:
        """Append many points."""
        for value in values:
            self.append(value)

    def matrix_profile(self) -> MatrixProfile:
        """The current profile as an immutable snapshot."""
        if self._profile is None or self._index is None:
            raise NotComputedError("streaming profile not initialized")
        n_subs = self.n_subsequences
        return MatrixProfile(
            profile=self._profile[:n_subs].copy(),
            index=self._index[:n_subs].copy(),
            length=self.length,
        )

    def series(self) -> np.ndarray:
        """A copy of the current series window."""
        return self._window.series().copy()
