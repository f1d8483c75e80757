"""STOMP: the O(n^2) matrix-profile engine of Zhu et al. (2016).

STOMP exploits the overlap of consecutive queries: the sliding dot
products of query ``i`` derive from those of query ``i-1`` in O(1) per
entry (Algorithm 3, line 11 of the paper).  Only the first row needs an
FFT.

The recurrence itself is :func:`repro.distance.comoment.comoment_rows`,
the one producer of recurrence rows: VALMOD's Algorithm 3 (STOMP plus
lower-bound bookkeeping) runs it over tiles for windows longer than
``DIRECT_DOT_MAX``, and ``blocked-stomp`` scores its rows there too.
:func:`iterate_stomp_rows` adds the per-row distance profile for the
rowwise engines.

The rows are centred co-moments (:mod:`repro.distance.comoment`), so a
large DC offset costs no digits.  A shelf of large values still rounds
the update terms of the windows that touch it at its own size; the drift
rule of :func:`repro.distance.comoment.anchor_rows` recomputes those
rows exactly.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro import obs
from repro.types import FloatArray

from repro.distance.comoment import comoment_rows, distance_profile_from_qt
from repro.distance.profile import apply_exclusion_zone
from repro.distance.sliding import validate_subsequence_length
from repro.kernels.context import SeriesContext
from repro.matrixprofile.exclusion import contributing_cells, exclusion_zone_half_width
from repro.matrixprofile.index import MatrixProfile

__all__ = ["stomp", "iterate_stomp_rows"]


def iterate_stomp_rows(
    series: FloatArray,
    length: int,
    mu: FloatArray,
    sigma: FloatArray,
    context: Optional[SeriesContext] = None,
) -> Iterator[Tuple[int, FloatArray, FloatArray]]:
    """Yield ``(i, qt, distance_profile)`` for every query ``i``.

    :func:`~repro.distance.comoment.comoment_rows` over all rows plus
    Eq. 3 applied to each row, with the exclusion zone already masked to
    ``inf``.  The yielded arrays are reused across iterations — callers
    that keep them must copy.
    """
    zone = exclusion_zone_half_width(length)
    rows = [(0, series.size - length + 1)]
    for i, c in comoment_rows(series, length, mu, sigma, rows, context):
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
