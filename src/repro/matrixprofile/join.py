"""AB-join matrix profiles: similarity join between two series.

The original Matrix Profile paper frames everything as a special case
of the *all-pairs similarity join*: for every window of series A, the
nearest window of series B (no exclusion zone — the series are
different).  The self-join is the ordinary matrix profile.

The AB-join powers the cross-series tools: MPdist
(:mod:`repro.matrixprofile.mpdist`), consensus motifs
(:mod:`repro.multiseries.consensus`), and "have we seen this behaviour
in that other recording?" queries.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.distance.comoment import comoment_row, distance_profile_from_qt, increments
from repro.distance.znorm import as_series
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext
from repro.matrixprofile.index import MatrixProfile
from repro.types import MotifPair

__all__ = ["stomp_ab_join", "ab_join_motif"]


def stomp_ab_join(
    series_a: np.ndarray, series_b: np.ndarray, length: int
) -> MatrixProfile:
    """For every window of A, the distance/offset of its NN in B.

    O(|A| |B|) via the STOMP recurrence run across series: consecutive
    A-queries share their dot products against B.  No exclusion zone
    (different series cannot trivially match).  The returned object's
    ``index`` refers to offsets in B.
    """
    a = as_series(series_a, min_length=4)
    b = as_series(series_b, min_length=4)
    if length < 2 or length > min(a.size, b.size):
        raise InvalidParameterError(
            f"length {length} invalid for series of {a.size} and {b.size} points"
        )
    n_a = a.size - length + 1
    n_b = b.size - length + 1
    ctx_b = SeriesContext(b)
    mu_a, sigma_a = SeriesContext(a).moving_mean_std(length)
    mu_b, sigma_b = ctx_b.moving_mean_std(length)

    profile = np.empty(n_a, dtype=np.float64)
    index = np.empty(n_a, dtype=np.int64)
    c = comoment_row(a[:length], b, mu_b, context=ctx_b)
    df_a, dg_a = increments(a, length, mu_a)
    df_b, dg_b = increments(b, length, mu_b)
    b_first = b[:length] - mu_b[0]
    for i in range(n_a):
        if i > 0:
            c[1:] = c[:-1] + dg_b * df_a[i - 1] + df_b * dg_a[i - 1]
            c[0] = float(np.dot(a[i : i + length] - mu_a[i], b_first))
        row = distance_profile_from_qt(c, length, float(sigma_a[i]), sigma_b)
        j = int(np.argmin(row))
        profile[i] = row[j]
        index[i] = j
    return MatrixProfile(profile=profile, index=index, length=length)


def ab_join_motif(
    series_a: np.ndarray, series_b: np.ndarray, length: int
) -> Tuple[MotifPair, MatrixProfile]:
    """The closest cross-series pair.

    Unlike the self-join case, ``pair.a`` is an offset in A and
    ``pair.b`` an offset in B — the fields are NOT reordered.
    """
    join = stomp_ab_join(series_a, series_b, length)
    i = int(np.argmin(join.profile))
    distance = float(join.profile[i])
    from repro.types import length_normalized

    pair = MotifPair(
        normalized_distance=length_normalized(distance, length),
        distance=distance,
        length=length,
        a=i,
        b=int(join.index[i]),
    )
    return pair, join
