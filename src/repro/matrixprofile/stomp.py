"""STOMP: the O(n^2) matrix-profile engine of Zhu et al. (2016).

STOMP exploits the overlap of consecutive queries: the sliding dot
products of query ``i`` derive from those of query ``i-1`` in O(1) per
entry (Algorithm 3, line 11 of the paper).  Only the first row needs an
FFT.

:func:`iterate_stomp_qt` exposes the recurrence's dot-product rows as a
generator so VALMOD's Algorithm 3 — which is STOMP plus lower-bound
bookkeeping — can reuse the exact same inner loop for windows longer
than ``DIRECT_DOT_MAX`` (shorter ones come from a GEMM);
:func:`iterate_stomp_rows` adds the per-row distance profile for the
engines.  The ``row_range`` parameter lets a caller replay the recurrence
up to a start row and only yield a block of rows — the primitive
Algorithm 3's row-block workers build on.

The rows are centred co-moments (:mod:`repro.distance.comoment`), so a
large DC offset costs no digits.  A shelf of large values still rounds
the update terms of the windows that touch it at its own size; the drift
rule of :func:`repro.distance.comoment.anchor_rows` recomputes those
rows exactly.  The schedule is a pure function of the input, so a row-block
worker of Algorithm 3 (:mod:`repro.core.compute_mp`) that replays the
recurrence from row 0 reproduces the serial results bit for bit.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro import obs
from repro.types import FloatArray

from repro.distance.comoment import (
    anchor_rows,
    comoment_row,
    distance_profile_from_qt,
    increments,
)
from repro.distance.profile import apply_exclusion_zone
from repro.distance.sliding import validate_subsequence_length
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext
from repro.matrixprofile.exclusion import contributing_cells, exclusion_zone_half_width
from repro.matrixprofile.index import MatrixProfile

__all__ = ["stomp", "iterate_stomp_qt", "iterate_stomp_rows"]


def iterate_stomp_qt(
    series: FloatArray,
    length: int,
    mu: FloatArray,
    sigma: FloatArray,
    row_range: Optional[Tuple[int, int]] = None,
    context: Optional[SeriesContext] = None,
) -> Iterator[Tuple[int, FloatArray]]:
    """Yield ``(i, c)``: the co-moments of window ``i`` with every window.

    The bare STOMP recurrence on centred co-moments, with no distance
    profile per row; VALMOD's Algorithm 3 ranks these rows itself
    (:func:`repro.core.entries.rank_rows`).

    ``row_range`` restricts the yielded rows to ``[start, stop)``: the
    recurrence is still replayed from row 0, so every yielded row is
    bitwise identical to a full run.  Workers of the parallel Algorithm-3
    path use this to split rows across processes.

    The yielded array is reused across iterations — callers that keep it
    must copy.
    """
    t = series
    n_subs = t.size - length + 1
    start, stop = (0, n_subs) if row_range is None else row_range
    if not 0 <= start <= stop <= n_subs:
        raise InvalidParameterError(
            f"row_range {row_range!r} out of bounds for {n_subs} rows"
        )
    c_first = comoment_row(t[:length], t, mu, context=context)
    c = c_first.copy()
    df, dg = increments(t, length, mu)
    anchors = anchor_rows(t, length, df, dg, sigma)
    anchor_pos = 0
    for i in range(stop):
        if i > 0:
            if anchor_pos < anchors.size and anchors[anchor_pos] == i:
                # Accumulated drift too large: recompute the row exactly.
                obs.add("comoment.reanchors")
                c = comoment_row(t[i : i + length], t, mu, direct=True)
                anchor_pos += 1
            else:
                # C[i, j] = C[i-1, j-1] + df[i-1] dg[j-1] + dg[i-1] df[j-1]
                c[1:] = c[:-1] + dg * df[i - 1] + df * dg[i - 1]
            c[0] = c_first[i]
        if i >= start:
            yield i, c


def iterate_stomp_rows(
    series: FloatArray,
    length: int,
    mu: FloatArray,
    sigma: FloatArray,
    apply_exclusion: bool = True,
    row_range: Optional[Tuple[int, int]] = None,
    context: Optional[SeriesContext] = None,
) -> Iterator[Tuple[int, FloatArray, FloatArray]]:
    """Yield ``(i, qt, distance_profile)`` for every query ``i``.

    :func:`iterate_stomp_qt` plus Eq. 3 applied to each row, with the
    exclusion zone already masked to ``inf`` when ``apply_exclusion``.
    ``row_range`` is passed through.  The yielded arrays are reused
    across iterations — callers that keep them must copy.
    """
    zone = exclusion_zone_half_width(length)
    for i, c in iterate_stomp_qt(
        series, length, mu, sigma, row_range=row_range, context=context
    ):
        profile = distance_profile_from_qt(c, length, float(sigma[i]), sigma)
        if apply_exclusion:
            apply_exclusion_zone(profile, i, zone)
        yield i, c, profile


def stomp(
    series: FloatArray,
    length: int,
    context: Optional[SeriesContext] = None,
) -> MatrixProfile:
    """Compute the full matrix profile with STOMP.

    ``context`` optionally carries a :class:`SeriesContext` for this
    series; its cached window statistics and series FFT are then reused
    (results are identical either way).
    """
    ctx = SeriesContext.ensure(series, context, min_length=4)
    t = ctx.series
    n_subs = validate_subsequence_length(t.size, length)
    mu, sigma = ctx.moving_mean_std(length)
    if obs.enabled():
        obs.add("engine.rows", n_subs)
        obs.add(
            "engine.cells",
            contributing_cells(n_subs, exclusion_zone_half_width(length)),
        )
    profile = np.empty(n_subs, dtype=np.float64)
    index = np.empty(n_subs, dtype=np.int64)
    with obs.span("engine.stomp"):
        for i, _, row in iterate_stomp_rows(t, length, mu, sigma, context=ctx):
            j = int(np.argmin(row))
            profile[i] = row[j]
            index[i] = j if np.isfinite(row[j]) else -1
    return MatrixProfile(profile=profile, index=index, length=length)
