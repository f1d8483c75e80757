"""Per-series cache of window statistics and FFT plans.

Every O(n^2) engine, both VALMOD sweep layers, and most analysis modules
need the same two derived quantities of a series: the running mean/std of
every window of one length (:func:`repro.distance.sliding.moving_mean_std`)
and the zero-padded ``rfft`` of the full series that powers every FFT
sliding dot product.  Before this layer existed each module recomputed
both from scratch — VALMOD's l_min→l_max sweep redid the series transform
once per length, and a single CLI invocation could run ``moving_mean_std``
on the same ``(series, length)`` pair a dozen times across engines,
lower-bound code and reporting.

:class:`SeriesContext` memoizes both, keyed exactly the way the distance
layer computes them, so the cached path is **bitwise identical** to the
uncached one: cache hits return the array the uncached call would have
produced (same function, same inputs, NumPy's FFT and reductions are
deterministic).  The context is threaded through the compute stack as an
optional trailing argument — every public entry point still works without
one, constructing a throwaway context internally.

Cache effectiveness is observable (``docs/OBSERVABILITY.md``):

``stats.cache.misses`` / ``stats.cache.hits``
    per-length window-statistics computations vs. reuses.
``fft.plan.build`` / ``fft.plan.reuse``
    series spectra computed vs. reused across sliding dot products.

Layering: this module sits directly above :mod:`repro.distance` and below
every engine; it imports nothing from :mod:`repro.matrixprofile` or
:mod:`repro.core`, so any of those layers may import it freely (lint rule
R008 pushes them to).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.types import ComplexArray, FloatArray, SeriesLike

from repro.distance.sliding import (
    DIRECT_DOT_MAX,
    fft_plan_size,
    moving_mean_std,
    sliding_dot_product,
)
from repro.distance.znorm import as_series

__all__ = ["SeriesContext"]


class SeriesContext:
    """Memoized per-series state shared across engines and sweep lengths.

    Construct one per analyzed series and pass it to every compute call
    that accepts a ``context`` argument.  All caches fill lazily; a
    context that is never asked for anything costs one :func:`as_series`
    validation.

    The cached arrays are returned with ``writeable=False`` so an
    accidental in-place mutation by one consumer cannot corrupt every
    other consumer of the cache (NumPy raises instead).
    """

    __slots__ = ("series", "_stats", "_ffts")

    def __init__(self, series: SeriesLike, min_length: int = 2) -> None:
        self.series: FloatArray = as_series(series, min_length=min_length)
        self._stats: Dict[int, Tuple[FloatArray, FloatArray]] = {}
        self._ffts: Dict[int, ComplexArray] = {}

    # -- construction helpers ------------------------------------------

    @classmethod
    def ensure(
        cls,
        series: SeriesLike,
        context: Optional["SeriesContext"] = None,
        min_length: int = 2,
    ) -> "SeriesContext":
        """Return ``context`` if it caches ``series``, else a fresh one.

        The standard prologue of every context-aware entry point: callers
        that pass a context for the right series get full reuse; callers
        that pass none (or a context built for another series) get a
        private context and the old uncached behavior, bit for bit.
        """
        if context is not None and context.matches(series):
            return context
        return cls(series, min_length=min_length)

    def matches(self, series: SeriesLike) -> bool:
        """True when this context's caches describe ``series``.

        Identity and shared memory are checked first; the O(n) value
        comparison only runs for distinct same-length buffers, and is
        negligible next to any computation worth caching.
        """
        t = np.asarray(series)
        mine = self.series
        if t.ndim != 1 or t.size != mine.size:
            return False
        if t is mine or np.shares_memory(t, mine):
            return True
        return bool(np.array_equal(t, mine))

    # -- cached primitives ---------------------------------------------

    def moving_mean_std(self, length: int) -> Tuple[FloatArray, FloatArray]:
        """Cached :func:`repro.distance.sliding.moving_mean_std`.

        One computation per distinct ``length`` for the lifetime of the
        context; every further request is a dictionary hit.
        """
        cached = self._stats.get(length)
        if cached is not None:
            obs.add("stats.cache.hits")
            return cached
        obs.add("stats.cache.misses")
        mu, sigma = moving_mean_std(self.series, length)
        mu.setflags(write=False)
        sigma.setflags(write=False)
        self._stats[length] = (mu, sigma)
        return mu, sigma

    def series_fft(self, size: int) -> ComplexArray:
        """Cached ``np.fft.rfft(series, size)`` for one padded plan size.

        The series half of every FFT sliding dot product.  All queries of
        lengths that zero-pad to the same power of two share one
        transform — for VALMOD that is typically the whole l_min→l_max
        sweep.
        """
        cached = self._ffts.get(size)
        if cached is not None:
            obs.add("fft.plan.reuse")
            return cached
        obs.add("fft.plan.build")
        spectrum = np.fft.rfft(self.series, size)
        spectrum.setflags(write=False)
        self._ffts[size] = spectrum
        return spectrum

    def sliding_dot_product(self, query: FloatArray) -> FloatArray:
        """Dot product of ``query`` against every window, reusing the plan.

        Bitwise identical to
        ``sliding_dot_product(query, self.series)``: the direct path for
        short queries is untouched, and the FFT path receives this
        context's cached series spectrum for the exact plan size the
        uncached call would build.
        """
        q = np.asarray(query, dtype=np.float64)
        if q.size <= DIRECT_DOT_MAX:
            return sliding_dot_product(q, self.series)
        size = fft_plan_size(self.series.size, q.size)
        return sliding_dot_product(q, self.series, series_fft=self.series_fft(size))

    def window_dot_products(self, queries: FloatArray) -> FloatArray:
        """Dot products of each row of ``queries`` against every window.

        Row ``b`` equals ``sliding_dot_product(queries[b])`` on the FFT
        path, up to rounding: one batched transform of the ``B`` queries
        times this context's cached series spectrum.  O(B n log n) time
        and O(B n) memory whatever the query length is, which makes it
        the long-window path; for windows of at most ``DIRECT_DOT_MAX``
        points a GEMM over the windows is cheaper.
        """
        t = self.series
        length = queries.shape[1]
        obs.add("mass.fft_calls", len(queries))
        size = fft_plan_size(t.size, length)
        spectra = np.fft.rfft(queries[:, ::-1], size, axis=1)
        spectra *= self.series_fft(size)
        return np.fft.irfft(spectra, size, axis=1)[:, length - 1 : t.size]

    # -- introspection -------------------------------------------------

    @property
    def cached_stat_lengths(self) -> Tuple[int, ...]:
        """Lengths with memoized window statistics (ascending)."""
        return tuple(sorted(self._stats))

    @property
    def cached_fft_sizes(self) -> Tuple[int, ...]:
        """Plan sizes with memoized series spectra (ascending)."""
        return tuple(sorted(self._ffts))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SeriesContext(n={self.series.size}, "
            f"stats={list(self.cached_stat_lengths)}, "
            f"ffts={list(self.cached_fft_sizes)})"
        )

