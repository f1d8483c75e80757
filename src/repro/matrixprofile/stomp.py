"""STOMP: the O(n^2) matrix-profile engine of Zhu et al. (2016).

STOMP exploits the overlap of consecutive queries: the sliding dot
products of query ``i`` derive from those of query ``i-1`` in O(1) per
entry (Algorithm 3, line 11 of the paper).  Only the first row needs an
FFT.

:func:`iterate_stomp_qt` exposes the recurrence's dot-product rows as a
generator so VALMOD's Algorithm 3 — which is STOMP plus lower-bound
bookkeeping — can reuse the exact same inner loop;
:func:`iterate_stomp_rows` adds the per-row distance profile for the
engines.  The ``row_range`` parameter lets a caller replay the recurrence
up to a start row and only yield a block of rows — the primitive
Algorithm 3's row-block workers build on.

Numerical robustness
--------------------
The rolling update accumulates one rounding error per row.  For data in a
sane range the drift is harmless, but a high-magnitude flat segment (a
sensor stuck at a large constant) makes the update subtract and re-add
huge products, and the cancellation error can corrupt every later row.
:func:`stomp_reanchor_rows` pre-computes — deterministically, from the
series alone — the rows at which the accumulated drift bound crosses a
tolerance; at those rows the recurrence is re-anchored with an exactly
summed dot-product row.  The schedule is a pure function of the input so
a row-block worker of Algorithm 3 (:mod:`repro.core.compute_mp`) that
replays the recurrence from row 0 reproduces the serial results bit for
bit.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro import obs
from repro.types import FloatArray, IntArray

from repro.distance.profile import apply_exclusion_zone, distance_profile_from_qt
from repro.distance.sliding import sliding_dot_product, validate_subsequence_length
from repro.distance.znorm import CONSTANT_EPS
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext
from repro.matrixprofile.exclusion import contributing_cells, exclusion_zone_half_width
from repro.matrixprofile.index import MatrixProfile

__all__ = [
    "stomp",
    "iterate_stomp_qt",
    "iterate_stomp_rows",
    "stomp_reanchor_rows",
    "exact_qt_row",
]

#: relative drift in the rolling dot products tolerated before the row is
#: recomputed exactly.  Expressed as a fraction of the ``l sigma^2`` scale
#: at which dot-product noise becomes visible in Eq. 3 correlations.
QT_DRIFT_TOL = 1e-9


def exact_qt_row(series: FloatArray, start: int, length: int) -> FloatArray:
    """Dot products of window ``start`` against every window, summed exactly.

    Direct correlation (no FFT) regardless of length: its error is local
    to each output — the property the re-anchoring fix relies on, since an
    FFT row spreads the magnitude of a flat shelf across every column.
    """
    return np.correlate(series, series[start : start + length], mode="valid")


def stomp_reanchor_rows(
    series: FloatArray, length: int, sigma: FloatArray
) -> IntArray:
    """Rows at which the STOMP recurrence must be re-anchored.

    Tracks an upper bound on the per-row cancellation drift of the rolling
    dot-product update — each row ``i`` touches the products
    ``t[i-1] * t[j-1]`` and ``t[i+l-1] * t[j+l-1]``, so the bound grows by
    ``eps * (t[i-1]^2 + t[i+l-1]^2)`` — and schedules an exact recompute
    whenever the accumulated bound crosses ``QT_DRIFT_TOL`` of the
    ``l sigma^2`` scale that Eq. 3 divides by.  For data without extreme
    magnitudes the schedule is empty and the fast path is untouched.

    Deterministic in the inputs: serial STOMP and every row-block worker
    of Algorithm 3 compute the same schedule, which keeps their outputs
    bitwise identical.
    """
    t = np.asarray(series, dtype=np.float64)
    n_subs = t.size - length + 1
    if n_subs <= 1:
        return np.empty(0, dtype=np.int64)
    live = sigma[sigma >= CONSTANT_EPS]
    if live.size == 0:
        return np.empty(0, dtype=np.int64)
    floor = float(np.median(live))
    budget = QT_DRIFT_TOL * length * floor * floor
    if budget <= 0.0 or not np.isfinite(budget):
        return np.empty(0, dtype=np.int64)
    eps = float(np.finfo(np.float64).eps)
    heads = t[: n_subs - 1]
    tails = t[length : length + n_subs - 1]
    steps = eps * (heads * heads + tails * tails)
    # drift[i] = accumulated bound through the update of row i
    drift = np.concatenate([[0.0], np.cumsum(steps)])
    anchors = []
    base = 0.0
    while True:
        nxt = int(np.searchsorted(drift, base + budget, side="right"))
        if nxt >= drift.size:
            break
        anchors.append(nxt)
        base = drift[nxt]
    return np.asarray(anchors, dtype=np.int64)


def iterate_stomp_qt(
    series: FloatArray,
    length: int,
    sigma: FloatArray,
    row_range: Optional[Tuple[int, int]] = None,
    context: Optional[SeriesContext] = None,
) -> Iterator[Tuple[int, FloatArray]]:
    """Yield ``(i, qt)``: the dot products of query ``i`` against all windows.

    The bare STOMP recurrence, with no distance profile per row; VALMOD's
    Algorithm 3 ranks these rows itself (:func:`repro.core.entries.rank_rows`).

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
    if context is not None and context.matches(t):
        qt_first = context.sliding_dot_product(t[:length])
    else:
        qt_first = sliding_dot_product(t[:length], t)
    qt = qt_first.copy()
    anchors = stomp_reanchor_rows(t, length, sigma)
    anchor_pos = 0
    # Cached slices for the O(1) per-entry dot-product update:
    #   QT_i[j] = QT_{i-1}[j-1] - t[j-1] t[i-1] + t[j+l-1] t[i+l-1]
    heads = t[: n_subs - 1]
    tails = t[length : length + n_subs - 1]
    for i in range(stop):
        if i > 0:
            if anchor_pos < anchors.size and anchors[anchor_pos] == i:
                # Accumulated drift too large: recompute the row exactly.
                qt = exact_qt_row(t, i, length)
                anchor_pos += 1
            else:
                qt[1:] = qt[:-1] - heads * t[i - 1] + tails * t[i + length - 1]
            qt[0] = qt_first[i]
        if i >= start:
            yield i, qt


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
    for i, qt in iterate_stomp_qt(
        series, length, sigma, row_range=row_range, context=context
    ):
        profile = distance_profile_from_qt(
            qt, length, float(mu[i]), float(sigma[i]), mu, sigma
        )
        if apply_exclusion:
            apply_exclusion_zone(profile, i, zone)
        yield i, qt, profile


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
        anchors = stomp_reanchor_rows(t, length, sigma)
        obs.add("engine.rows", n_subs)
        obs.add(
            "engine.cells",
            contributing_cells(n_subs, exclusion_zone_half_width(length)),
        )
        obs.add("stomp.qt_reanchor_rows", int(anchors.size))
        obs.add("stomp.qt_rolling_rows", max(n_subs - 1 - int(anchors.size), 0))
    profile = np.empty(n_subs, dtype=np.float64)
    index = np.empty(n_subs, dtype=np.int64)
    with obs.span("engine.stomp"):
        for i, _, row in iterate_stomp_rows(t, length, mu, sigma, context=ctx):
            j = int(np.argmin(row))
            profile[i] = row[j]
            index[i] = j if np.isfinite(row[j]) else -1
    return MatrixProfile(profile=profile, index=index, length=length)
