"""``repro.kernels`` — shared per-series state and blocked compute kernels.

Two layers the whole compute stack builds on (see ``docs/KERNELS.md``):

:mod:`repro.kernels.context`
    :class:`~repro.kernels.context.SeriesContext`, the per-series cache of
    window statistics (one ``moving_mean_std`` per length) and FFT plans
    (one ``rfft`` of the padded series per plan size), threaded through
    every engine and both VALMOD sweep layers as an optional argument.
:mod:`repro.kernels.blocked`
    :func:`~repro.kernels.blocked.blocked_stomp`, the blocked STOMP
    backend (``engine="blocked-stomp"``): a GEMM over z-normalised
    windows for windows of at most ``DIRECT_DOT_MAX`` points, the shared
    co-moment recurrence (:func:`repro.distance.comoment.comoment_rows`)
    scored in rank space above that, and one Eq.-3 epilogue for both.

Layering: this package imports only :mod:`repro.distance`, :mod:`repro.obs`
and the foundation modules at import time (engine types are resolved
lazily), so engines above it can import :class:`SeriesContext` freely.
"""

from repro.kernels.context import SeriesContext
from repro.kernels.blocked import DEFAULT_BLOCK_ROWS, blocked_stomp
from repro.kernels.streaming_stats import StreamingSeriesStats

#: Version of the numerical contract the kernels implement.  Bump this
#: whenever a kernel change may alter results at the bit level (new
#: recurrence order, different clipping, changed dtype policy): the
#: content-addressed feature store (``repro.features.store``) folds it
#: into every cache key, so stale entries computed under the old
#: contract miss instead of shadowing fresh results.
KERNEL_SCHEMA_VERSION = 8

__all__ = [
    "KERNEL_SCHEMA_VERSION",
    "SeriesContext",
    "StreamingSeriesStats",
    "DEFAULT_BLOCK_ROWS",
    "blocked_stomp",
]
