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

A context can also open a :class:`Workspace` for a stretch of work
(:meth:`SeriesContext.open_workspace`, one per ``Valmod`` run): scratch
blocks that Algorithms 3 and 4 reuse from one length to the next
instead of allocating (and faulting in) fresh pages at every step.

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

import math
import mmap
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

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

__all__ = ["SeriesContext", "Workspace"]


class Workspace:
    """Scratch blocks reused from one block of rows to the next.

    Algorithms 3 and 4 score rows a block at a time.  Allocating every
    block afresh costs more than its arithmetic: a block of a few hundred
    KiB is mapped fresh by glibc, or trimmed back to the OS when freed,
    so each one faults in new zero pages.  A workspace keeps one buffer
    per named *slot* and hands out views of it.

    Contract:

    * :meth:`take` returns a C-contiguous float64 view of ``shape``
      whose contents are arbitrary; the caller writes every element it
      reads.
    * The view is valid until the next :meth:`take` of the same slot,
      which may hand out the same memory or a new, larger buffer.  Slots
      do not alias each other.
    * A workspace serves one thread of work and is not shared between
      processes (each pool worker builds its own).

    Backing, chosen by lifetime (``EXPERIMENTS.md``, "Fresh pages in
    Algorithms 3 and 4", measures both):

    * by default, NumPy (malloc) blocks, for a workspace dropped at the
      end of one pass: its blocks reuse pages the heap already holds.
      Mapped instead, one Algorithm 3 pass raised ``ecg_motifs``' peak
      memory by 4%, since the maps' pages came on top of the heap's.
    * ``mapped=True``: each buffer its own private anonymous memory map,
      for a workspace that outlives many passes (a ``Valmod`` run's): a
      heap block held that long would pin the heap's top and keep the
      pages freed below it resident, while a map is returned to the OS
      whole when the workspace is dropped.

    Pages of either are resident only once written, so a caller that
    knows how large a slot will grow reserves that size up front
    (:meth:`reserve`) at the cost of address space, not memory, and
    later, larger blocks reuse the pages already written.
    """

    __slots__ = ("_buffers", "_mapped")

    def __init__(self, mapped: bool = False) -> None:
        self._buffers: Dict[str, FloatArray] = {}
        self._mapped = mapped

    def reserve(self, slot: str, size: int) -> None:
        """Make ``slot``'s buffer hold at least ``size`` float64 values.

        A larger buffer replaces the old one, whose contents are lost.
        """
        buffer = self._buffers.get(slot)
        if buffer is None or buffer.size < size:
            if self._mapped:
                raw = mmap.mmap(
                    -1, max(size, 1) * 8, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
                )
                buffer = np.frombuffer(raw, dtype=np.float64)
            else:
                buffer = np.empty(size, dtype=np.float64)
            self._buffers[slot] = buffer

    def take(self, slot: str, shape: Tuple[int, ...]) -> FloatArray:
        """A ``shape`` block from ``slot``'s buffer (see above)."""
        size = math.prod(shape)
        self.reserve(slot, size)
        return self._buffers[slot][:size].reshape(shape)


class SeriesContext:
    """Memoized per-series state shared across engines and sweep lengths.

    Construct one per analyzed series and pass it to every compute call
    that accepts a ``context`` argument.  All caches fill lazily; a
    context that is never asked for anything costs one :func:`as_series`
    validation.

    The cached arrays are returned with ``writeable=False`` so an
    accidental in-place mutation by one consumer cannot corrupt every
    other consumer of the cache (NumPy raises instead).

    :meth:`workspace` is the scratch :class:`Workspace` of the open
    :meth:`open_workspace` block (a mapped one), or a fresh heap one
    outside such a block.
    ``Valmod.run`` opens one block per run, so within a run Algorithm 3
    at l <= 64 and every step of Algorithm 4's partial recompute reuse
    the same pages; the workspace is dropped, and its maps returned to
    the OS, when the run returns, even if the context lives on (the
    :mod:`repro.features` façade keeps its context for the discord
    phases).  Its slots, each under the contract of
    :meth:`Workspace.take`:

    ``"centred"``
        the ``(n_subs, l)`` centred windows of
        :func:`repro.distance.comoment.window_comoments`.  Only one
        ``window_comoments`` function may be live per workspace: the
        next call overwrites the windows the previous one reads.
    ``"comoments"``
        the GEMM chunk that function returns, valid until its next call;
        at l > 64, Algorithm 3's stack of recurrence rows.
    ``"rank"``
        the ``(B, n)`` rank block inside
        :func:`repro.core.entries.rank_rows`; never returned.

    Above 64 points no step of a run takes these slots, so Algorithm 3
    ranks in a workspace of its own, dropped when its pass ends
    (:mod:`repro.core.compute_mp`), and the recompute ranks its fresh FFT
    rows in fresh blocks.  A context with an open workspace serves one
    thread of work.
    """

    __slots__ = ("series", "_stats", "_ffts", "_workspace")

    def __init__(self, series: SeriesLike, min_length: int = 2) -> None:
        self.series: FloatArray = as_series(series, min_length=min_length)
        self._stats: Dict[int, Tuple[FloatArray, FloatArray]] = {}
        self._ffts: Dict[int, ComplexArray] = {}
        self._workspace: Optional[Workspace] = None

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

    @contextmanager
    def open_workspace(self) -> Iterator[Workspace]:
        """Hold one :class:`Workspace` for the ``with`` block.

        Inside the block :meth:`workspace` returns it; it is dropped when
        the block ends.  A block opened inside another one shares the
        outer block's workspace.
        """
        if self._workspace is not None:
            yield self._workspace
            return
        self._workspace = Workspace(mapped=True)
        # The centred windows of every length up to DIRECT_DOT_MAX fit in
        # n x DIRECT_DOT_MAX values, so a run's later lengths reuse the
        # pages its first one wrote instead of mapping anew.
        self._workspace.reserve("centred", self.series.size * DIRECT_DOT_MAX)
        try:
            yield self._workspace
        finally:
            self._workspace = None

    def workspace(self) -> Workspace:
        """The open block's mapped :class:`Workspace`, else a fresh heap one."""
        return self._workspace if self._workspace is not None else Workspace()

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

