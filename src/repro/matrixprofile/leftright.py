"""Left/right matrix profiles — the substrate for time-series chains.

The *left* matrix profile stores, per subsequence, the nearest neighbor
that occurs strictly earlier in time; the *right* profile the nearest
later one.  Both fall out of the same STOMP sweep at no extra asymptotic
cost, and they power directional analyses: time-series chains
(:mod:`repro.core.chains`) and online discord tracking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distance.sliding import validate_subsequence_length
from repro.kernels.context import SeriesContext
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.matrixprofile.index import MatrixProfile
from repro.matrixprofile.stomp import iterate_stomp_rows

__all__ = ["LeftRightProfiles", "stomp_left_right"]


@dataclass
class LeftRightProfiles:
    """Joint (full, left, right) matrix profiles of one length."""

    length: int
    profile: np.ndarray
    index: np.ndarray
    left_profile: np.ndarray
    left_index: np.ndarray
    right_profile: np.ndarray
    right_index: np.ndarray

    def full(self) -> MatrixProfile:
        return MatrixProfile(
            profile=self.profile.copy(), index=self.index.copy(), length=self.length
        )

    def left(self) -> MatrixProfile:
        return MatrixProfile(
            profile=self.left_profile.copy(),
            index=self.left_index.copy(),
            length=self.length,
        )

    def right(self) -> MatrixProfile:
        return MatrixProfile(
            profile=self.right_profile.copy(),
            index=self.right_index.copy(),
            length=self.length,
        )


def stomp_left_right(
    series: np.ndarray, length: int, context: "SeriesContext | None" = None
) -> LeftRightProfiles:
    """One STOMP sweep producing the full, left, and right profiles."""
    ctx = SeriesContext.ensure(series, context, min_length=4)
    t = ctx.series
    n_subs = validate_subsequence_length(t.size, length)
    mu, sigma = ctx.moving_mean_std(length)
    zone = exclusion_zone_half_width(length)

    profile = np.full(n_subs, np.inf, dtype=np.float64)
    index = np.full(n_subs, -1, dtype=np.int64)
    left_profile = np.full(n_subs, np.inf, dtype=np.float64)
    left_index = np.full(n_subs, -1, dtype=np.int64)
    right_profile = np.full(n_subs, np.inf, dtype=np.float64)
    right_index = np.full(n_subs, -1, dtype=np.int64)

    for i, _, row in iterate_stomp_rows(t, length, mu, sigma, context=ctx):
        j = int(np.argmin(row))
        if np.isfinite(row[j]):
            profile[i] = row[j]
            index[i] = j
        # Left: neighbors strictly before the zone.
        left_hi = max(0, i - zone + 1)
        if left_hi > 0:
            lj = int(np.argmin(row[:left_hi]))
            if np.isfinite(row[lj]):
                left_profile[i] = row[lj]
                left_index[i] = lj
        # Right: neighbors strictly after the zone.
        right_lo = min(n_subs, i + zone)
        if right_lo < n_subs:
            rj = right_lo + int(np.argmin(row[right_lo:]))
            if np.isfinite(row[rj]):
                right_profile[i] = row[rj]
                right_index[i] = rj

    return LeftRightProfiles(
        length=length,
        profile=profile,
        index=index,
        left_profile=left_profile,
        left_index=left_index,
        right_profile=right_profile,
        right_index=right_index,
    )
