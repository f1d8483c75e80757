"""Algorithm 3 — ComputeMatrixProfile with lower-bound bookkeeping.

Produces the co-moment rows of every window ``FILL_BLOCK_ROWS`` at a
time and ranks each stack with :func:`~repro.core.entries.rank_rows`:
one rank-space pass per row yields both the profile minimum and the p
entries with the smallest lower-bound distance, which go into the
:class:`~repro.core.entries.EntryStore`.  No distance profile is built.
This is the O(n^2 log p) first phase of VALMOD.

The rows come from one of two sources, split at ``DIRECT_DOT_MAX`` (64
points) like the partial recompute of Algorithm 4:

* short windows: one GEMM over the centred windows per chunk of the
  absolute row grid, from :func:`repro.distance.comoment.window_comoments`
  (the producer the partial recompute uses).
* long windows: the STOMP co-moment recurrence every batch engine
  shares (:func:`repro.distance.comoment.comoment_rows`), restarted from
  an exactly computed row at the start of every ``TILE_ROWS`` tile of
  the absolute row grid (SCAMP's tiles, Zimmerman et al., "Matrix
  Profile XIV").

Each block of rows (its centred windows, co-moment rows and rank
block) is taken from one :class:`~repro.kernels.context.Workspace`, so a
pass faults its scratch pages in once rather than once per block.  At
l <= 64 that is the context's open workspace, which a ``Valmod`` run's
partial recompute goes on to reuse; above, no later step takes those
slots, so the pass keeps a workspace of its own.

Each row depends only on its grid chunk or tile, and every row is ranked
on its own, whatever stack it lands in.  With ``n_jobs > 1`` the rows
are split into blocks of whole tiles processed by worker processes, so
the assembled profile, index, and listDP rows are bitwise identical to
a serial run.  No worker runs the recurrence over a row outside its
block; row 0, which the recurrence cannot produce, supplies column 0
(``C[i, 0] = C[0, i]``) from one FFT per block.
The series travels pickled in each task (it is O(n), small next to the
O(n p) listDP rows a block sends back); each block result comes back as
plain arrays the parent stitches together.  This pool is the package's
only process-parallel path; ``docs/ENGINES.md`` measures it against
serial.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from multiprocessing.context import BaseContext
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.types import FloatArray, IntArray

from repro.core.entries import EntryStore, rank_rows
from repro.distance.comoment import comoment_rows, window_comoments
from repro.distance.sliding import DIRECT_DOT_MAX, validate_subsequence_length
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext, Workspace
from repro.matrixprofile.index import MatrixProfile

__all__ = ["compute_matrix_profile", "resolve_n_jobs", "row_blocks"]

#: rows ranked per :func:`rank_rows` call, and the row grid of the
#: short-window GEMM: enough rows to amortize the per-call NumPy and BLAS
#: overhead, while the (32, n) ranking buffers stay far below the (n, p)
#: listDP store that sets Algorithm 3's peak memory.
FILL_BLOCK_ROWS = 32

#: rows per tile, the unit of the pool's blocks and, at long windows,
#: of one recurrence run: its exact first row costs one FFT, about 3% of
#: 256 recurrence rows, and a multiple of ``FILL_BLOCK_ROWS`` keeps
#: tiles on the GEMM's chunk grid.
TILE_ROWS = 256


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` request to a positive worker count.

    ``None`` and ``0`` mean "let the library decide" (all visible CPUs);
    negative values follow the joblib convention ``cpus + 1 + n_jobs``
    (so ``-1`` is all CPUs, ``-2`` all but one).
    """
    if n_jobs is not None and (isinstance(n_jobs, bool) or not isinstance(n_jobs, int)):
        raise InvalidParameterError(f"n_jobs must be an int or None, got {n_jobs!r}")
    cpus = os.cpu_count() or 1
    if n_jobs is None or n_jobs == 0:
        return cpus
    if n_jobs < 0:
        return max(1, cpus + 1 + n_jobs)
    return int(n_jobs)


def _preferred_context() -> BaseContext:
    """Fork where available (cheap worker start), else the default."""
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return get_context()


def row_blocks(n_rows: int, n_blocks: int) -> List[Tuple[int, int]]:
    """Split ``[0, n_rows)`` into at most ``n_blocks`` runs of whole tiles.

    The ``TILE_ROWS`` tiles are dealt out as evenly as possible, earlier
    blocks taking the extra tiles, so block sizes differ by at most one
    tile; a series of one tile gives one block.
    """
    n_tiles = -(-n_rows // TILE_ROWS)
    n_blocks = max(1, min(n_blocks, n_tiles))
    base, extra = divmod(n_tiles, n_blocks)
    bounds = [0]
    for k in range(n_blocks):
        bounds.append(min(n_rows, bounds[-1] + (base + (k < extra)) * TILE_ROWS))
    return list(zip(bounds[:-1], bounds[1:]))


def _comoment_stacks(
    ctx: SeriesContext,
    length: int,
    mu: FloatArray,
    sigma: FloatArray,
    start: int,
    stop: int,
    space: Workspace,
) -> Iterator[Tuple[int, FloatArray]]:
    """Yield ``(first, stack)``: co-moment rows ``first, first + 1, ...``.

    ``[start, stop)`` is a run of whole tiles (:func:`row_blocks`).  The
    stacks cover it in order, one chunk ``[k B, (k + 1) B)`` of the
    absolute grid each, ``B = FILL_BLOCK_ROWS``.  Every stack is a view of
    ``space``'s ``"comoments"`` slot, valid until the next one.

    * short windows: one GEMM per chunk, from
      :func:`~repro.distance.comoment.window_comoments`.  BLAS rounds a
      row depending on how many rows share its block, which the grid
      keeps the same in every run.
    * long windows: the STOMP recurrence, started from an exact row at
      every tile (:func:`~repro.distance.comoment.comoment_rows`).
    """
    if length <= DIRECT_DOT_MAX:
        comoments = window_comoments(ctx, length, mu, space)
        for first in range(start, stop, FILL_BLOCK_ROWS):
            yield first, comoments(slice(first, min(first + FILL_BLOCK_ROWS, stop)))
        return
    tiles = [(tile, min(tile + TILE_ROWS, stop)) for tile in range(start, stop, TILE_ROWS)]
    stack = space.take("comoments", (FILL_BLOCK_ROWS, ctx.series.size - length + 1))
    filled = 0
    for i, c in comoment_rows(ctx.series, length, mu, sigma, tiles, ctx):
        stack[filled] = c
        filled += 1
        # Tiles are whole chunks, so a stack never spans two of them.
        if filled == FILL_BLOCK_ROWS or i == stop - 1:
            yield i + 1 - filled, stack[:filled]
            filled = 0


def _fill_block(
    ctx: SeriesContext,
    length: int,
    start: int,
    stop: int,
    profile: FloatArray,
    index: IntArray,
    store: EntryStore,
) -> None:
    """Profile, index, and listDP rows for the row block ``[start, stop)``.

    Row ``i`` is written at position ``i - start`` of ``profile``,
    ``index`` and ``store``.  :func:`_comoment_stacks` produces every row
    from its own chunk or tile, and :func:`rank_rows` scores every row on
    its own, so every produced row matches a full serial run bit for bit.
    The blocks (centred windows, co-moment rows, rank block) come from
    one :class:`~repro.kernels.context.Workspace` for the whole block:
    ``ctx.workspace()`` at l <= 64, a workspace dropped at the block's
    end above.
    """
    mu, sigma = ctx.moving_mean_std(length)
    obs.add("compute_mp.cells", (stop - start) * mu.size)
    space = ctx.workspace() if length <= DIRECT_DOT_MAX else Workspace()
    for first, stack in _comoment_stacks(ctx, length, mu, sigma, start, stop, space):
        last = first + stack.shape[0]
        ranked = rank_rows(stack, np.arange(first, last), sigma, length, store.p, space)
        slots = slice(first - start, last - start)
        profile[slots] = ranked.profile
        index[slots] = ranked.index
        store.fill_rows(slots, ranked, length)


def _block_worker(task):
    """Worker-process entry: evaluate one row block of the series.

    Returns the block result plus the worker's tracer snapshot (None
    when tracing is off) so the parent can aggregate listDP counters.
    """
    t, length, p, start, stop, trace = task
    obs.worker_begin(trace)
    rows = stop - start
    profile = np.empty(rows, dtype=np.float64)
    index = np.empty(rows, dtype=np.int64)
    store = EntryStore.empty(rows, p, length)
    with obs.span("compute_mp/block"):
        _fill_block(
            SeriesContext(t, min_length=4), length, start, stop,
            profile, index, store,
        )
    block = (profile, index, store.neighbor, store.qt, store.lb_base)
    return (start, stop) + block + (obs.worker_snapshot(),)


def compute_matrix_profile(
    series: FloatArray,
    length: int,
    p: int,
    n_jobs: Optional[int] = 1,
    context: Optional[SeriesContext] = None,
) -> Tuple[MatrixProfile, EntryStore]:
    """Matrix profile at ``length`` plus the listDP store (Algorithm 3).

    Returns the exact :class:`MatrixProfile` and an
    :class:`EntryStore` holding, for every subsequence, the p candidates
    with the smallest lower bound for greater lengths.  ``n_jobs``
    distributes row blocks over worker processes (``None``/``0`` = all
    CPUs); results are identical for every worker count.  ``context``
    optionally carries cached series statistics; workers rebuild their
    own from the series they receive (the cache is per-process).
    """
    ctx = SeriesContext.ensure(series, context, min_length=4)
    t = ctx.series
    n_subs = validate_subsequence_length(t.size, length)
    jobs = 1 if n_jobs == 1 else resolve_n_jobs(n_jobs)
    blocks = row_blocks(n_subs, jobs)
    store = EntryStore.empty(n_subs, p, length)
    profile = np.empty(n_subs, dtype=np.float64)
    index = np.empty(n_subs, dtype=np.int64)
    obs.add("compute_mp.rows", n_subs)

    if len(blocks) <= 1:
        with obs.span("compute_mp"):
            with obs.span("block"):
                _fill_block(ctx, length, 0, n_subs, profile, index, store)
        return MatrixProfile(profile=profile, index=index, length=length), store

    tasks = [(t, length, p, start, stop, obs.enabled()) for start, stop in blocks]
    with obs.span("compute_mp"):
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(blocks)), mp_context=_preferred_context()
        ) as pool:
            for start, stop, prof, idx, nb, qt, lb, trace in pool.map(
                _block_worker, tasks
            ):
                profile[start:stop] = prof
                index[start:stop] = idx
                store.neighbor[start:stop] = nb
                store.qt[start:stop] = qt
                store.lb_base[start:stop] = lb
                obs.merge(trace)
    return MatrixProfile(profile=profile, index=index, length=length), store
