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
engines.  The ``row_range`` parameter starts the recurrence from an
exactly computed row and yields only a range of rows — the primitive
Algorithm 3's tiles build on.

The rows are centred co-moments (:mod:`repro.distance.comoment`), so a
large DC offset costs no digits.  A shelf of large values still rounds
the update terms of the windows that touch it at its own size; the drift
rule of :func:`repro.distance.comoment.anchor_rows` recomputes those
rows exactly.  The schedule is a pure function of the input, so a row
range honours the anchors inside it whoever runs it.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

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

    ``row_range`` restricts the rows to ``[start, stop)``: row ``start``
    is computed exactly, as row 0 is (:func:`comoment_row` on the cached
    spectrum), and the recurrence runs from there, so no row between 0
    and ``start`` is computed (row 0 still supplies column 0, ``C[i, 0]
    = C[0, i]``).  The rows after ``start`` round like a recurrence
    started at ``start``, not at 0.

    The yielded array is reused across iterations — callers that keep it
    must copy.
    """
    n_subs = series.size - length + 1
    start, stop = (0, n_subs) if row_range is None else row_range
    if not 0 <= start <= stop <= n_subs:
        raise InvalidParameterError(
            f"row_range {row_range!r} out of bounds for {n_subs} rows"
        )
    return _iterate_tiles(series, length, mu, sigma, [(start, stop)], context)


def _iterate_tiles(
    series: FloatArray,
    length: int,
    mu: FloatArray,
    sigma: FloatArray,
    tiles: Sequence[Tuple[int, int]],
    context: Optional[SeriesContext],
) -> Iterator[Tuple[int, FloatArray]]:
    """:func:`iterate_stomp_qt` over several row ranges, in order, each
    started from an exact row; row 0, the increments and the anchor rows
    are computed once for all of them (Algorithm 3's tiles,
    :mod:`repro.core.compute_mp`)."""
    t = series
    c_first = comoment_row(t[:length], t, mu, context=context)
    df, dg = increments(t, length, mu)
    anchors = anchor_rows(t, length, df, dg, sigma)
    for start, stop in tiles:
        if start == stop:
            continue
        if start == 0:
            c = c_first.copy()
        else:
            c = comoment_row(t[start : start + length], t, mu, context=context)
        anchor_pos = int(np.searchsorted(anchors, start, side="right"))
        for i in range(start, stop):
            if i > start:
                if anchor_pos < anchors.size and anchors[anchor_pos] == i:
                    # Accumulated drift too large: recompute the row exactly.
                    obs.add("comoment.reanchors")
                    c = comoment_row(t[i : i + length], t, mu, direct=True)
                    anchor_pos += 1
                else:
                    # C[i, j] = C[i-1, j-1] + df[i-1] dg[j-1] + dg[i-1] df[j-1]
                    c[1:] = c[:-1] + dg * df[i - 1] + df * dg[i - 1]
            c[0] = c_first[i]
            yield i, c


def iterate_stomp_rows(
    series: FloatArray,
    length: int,
    mu: FloatArray,
    sigma: FloatArray,
    context: Optional[SeriesContext] = None,
) -> Iterator[Tuple[int, FloatArray, FloatArray]]:
    """Yield ``(i, qt, distance_profile)`` for every query ``i``.

    :func:`iterate_stomp_qt` plus Eq. 3 applied to each row, with the
    exclusion zone already masked to ``inf``.  The yielded arrays are
    reused across iterations — callers that keep them must copy.
    """
    zone = exclusion_zone_half_width(length)
    for i, c in iterate_stomp_qt(series, length, mu, sigma, context=context):
        profile = distance_profile_from_qt(c, length, float(sigma[i]), sigma)
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
