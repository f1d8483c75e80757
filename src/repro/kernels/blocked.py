"""Blocked STOMP: the matrix profile scored in rank space, no distance rows.

Serial STOMP (:mod:`repro.matrixprofile.stomp`) pays one Python iteration
per row, and inside it roughly a dozen full-row NumPy temporaries: Eq. 3
normalizes, clips, masks and square-roots the whole row, and only then an
argmin runs.  This kernel never builds a distance row.  Its dot products
come from one of two sources, cut at ``DIRECT_DOT_MAX`` (the cut the
one-row sliding dot product and the partial recompute's GEMM already
make):

* **Short windows** (``l <= DIRECT_DOT_MAX``): one GEMM per block of
  ``B = block_rows`` rows over the z-normalised windows, on the upper
  triangle only.  ``Z = (W - mu) / sigma`` is built once per call, with
  the rows of constant windows zeroed, and ``Z[r0:r1] @ Z[r0:].T`` is
  ``l * corr`` of the block's rows against every column from ``r0`` on.
  ``l * corr`` is symmetric, so each pair is computed once (twice only
  inside a block's own square) and read from both ends: a row takes the
  argmax over its columns ``>= r0`` (the row side), and for the columns
  ``>= r1`` the block's column maxima stand in for those rows' cells
  against ``[r0, r1)`` (the column side; only the columns that improve
  pay an argmax).  Blocks run last to first, so a column side always
  meets candidates at larger offsets, and ``>=`` hands it a tie: every
  row keeps its smallest best offset, as a full-row argmax would.
  There is no recurrence and nothing to re-anchor: the arithmetic is the
  brute-force oracle's (z-normalise each window, then take dot
  products), batched.  The GEMM costs ``O(n l)`` per row against the
  recurrence's ``O(n)``; docs/ENGINES.md gives the measurements behind
  the cut.
* **Long windows**: the co-moment rows of
  :func:`repro.distance.comoment.comoment_rows`, the STOMP recurrence
  Algorithm 3 and ``stomp`` run too, with its drift rule.  Each row is
  scored as it arrives, in *ranking* space: ``rank_j = C_j / sigma_j``
  equals ``corr_ij * l * sigma_i``, a positive per-row multiple of the
  correlation, so its argmax is the row's nearest neighbor.  ``B`` plays
  no part here.

Both paths end in one epilogue (:func:`_finish`): the rows' winning
``l * corr`` values pay Eq. 3's clip and sqrt in one vectorised pass.
The scores buffer is preallocated once per call.

Numerical behavior:

* The short path matches the oracle to rounding, large DC offsets
  included: it z-normalises the windows before the GEMM.  A pair read
  from the column side is ``z_j . z_i`` instead of ``z_i . z_j``, which
  can differ in the last bit.
* The long path carries centred co-moments, so offsets cost no digits
  either, and its rows are bit for bit those of serial STOMP; only the
  scoring (rank space against Eq. 3) rounds differently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import obs
from repro.types import BoolArray, FloatArray, IntArray

from repro.distance.comoment import comoment_rows
from repro.distance.sliding import DIRECT_DOT_MAX, validate_subsequence_length
from repro.distance.znorm import CONSTANT_EPS
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext

if TYPE_CHECKING:  # pragma: no cover - engines sit above this layer
    from repro.matrixprofile.index import MatrixProfile

__all__ = ["blocked_stomp", "DEFAULT_BLOCK_ROWS"]

#: default rows per GEMM block: large enough to amortize the per-call
#: BLAS and NumPy overhead over tens of thousands of cells.  See
#: docs/ENGINES.md for how to choose a different value.
DEFAULT_BLOCK_ROWS = 64


def _finish(
    lcorr: FloatArray, nbr: IntArray, length: int
) -> tuple[FloatArray, IntArray]:
    """The profile and index from each row's winning ``l * corr`` and column.

    A row whose every column is excluded carries ``-inf`` and reports no
    neighbor.  Clipping to ``[-l, l]`` keeps ``l - lcorr`` non-negative.
    """
    found = np.isfinite(lcorr)
    np.clip(lcorr, -length, length, out=lcorr)
    profile = np.where(found, np.sqrt(2.0 * (length - lcorr)), np.inf)
    return profile, np.where(found, nbr, -1)


def _gemm_blocks(
    t: FloatArray,
    length: int,
    mu: FloatArray,
    sigma: FloatArray,
    window_const: BoolArray,
    zone: int,
    block_rows: int,
    best: FloatArray,
    nbr: IntArray,
) -> tuple[int, int]:
    """Short-window path: score the upper triangle a block at a time.

    Writes each row's winning ``l * corr`` and column into ``best`` and
    ``nbr``; returns the number of blocks and of cells the GEMMs computed.
    """
    n_subs = mu.size
    z = sliding_window_view(t, length) - mu[:, None]
    z /= np.maximum(sigma, CONSTANT_EPS)[:, None]
    z[window_const] = 0.0
    const_cols = np.flatnonzero(window_const)
    half = 0.5 * length

    # Block [r0, r1) holds z[r0:r1] @ z[r0:].T in a contiguous buffer of
    # rows of width w = pad + (n - r0): ``pad`` columns of -inf, then the
    # row's l*corr.  Each row's pad doubles as the previous row's right
    # pad, so the exclusion band of local row k starts at flat offset
    # k * (w + 1) and the whole band is one sheared view.
    pad = zone - 1
    width = min(block_rows, n_subs)
    flat = np.empty(width * (n_subs + pad) + pad)
    item = flat.itemsize
    local = np.arange(width)
    blocks = cells = 0
    # Blocks run last to first, so a block's column side meets rows whose
    # candidates all lie at larger offsets: ``>=`` lets the smaller offset
    # win a tie, as a full-row argmax would.
    for r0 in reversed(range(0, n_subs, block_rows)):
        r1 = min(r0 + block_rows, n_subs)
        b_rows = r1 - r0
        w = pad + n_subs - r0
        g = flat[: b_rows * w].reshape(b_rows, w)
        g[:, :pad] = -np.inf
        flat[b_rows * w : b_rows * w + pad] = -np.inf
        lcorr = g[:, pad:]
        np.matmul(z[r0:r1], z[r0:].T, out=lcorr)
        if const_cols.size:
            # Constant windows: distance 0 to each other, sqrt(l) to
            # everything else, i.e. l*corr of l and l/2.
            cols = const_cols[const_cols >= r0] - r0
            lcorr[:, cols] = half
            own = np.flatnonzero(window_const[r0:r1])
            lcorr[own] = half
            lcorr[np.ix_(own, cols)] = length
        band = np.ndarray(
            (b_rows, 2 * zone - 1), buffer=flat, strides=((w + 1) * item, item)
        )
        band.fill(-np.inf)
        # Row side: the block's rows against every column >= r0.
        j = g.argmax(axis=1)
        best[r0:r1] = g[local[:b_rows], j]
        nbr[r0:r1] = j + (r0 - pad)
        # Column side: the rows >= r1 against the block's rows, read from
        # the column maxima; only the columns that improve pay an argmax.
        if r1 < n_subs:
            tail = lcorr[:, b_rows:]
            cmax = tail.max(axis=0)
            up = np.flatnonzero(cmax >= best[r1:])
            if up.size:
                rows = up + r1
                best[rows] = cmax[up]
                nbr[rows] = tail.T[up].argmax(axis=1) + r0
        blocks += 1
        cells += b_rows * (n_subs - r0)
    return blocks, cells


def _recurrence_rows(
    ctx: SeriesContext,
    length: int,
    mu: FloatArray,
    sigma: FloatArray,
    window_const: BoolArray,
    zone: int,
    best: FloatArray,
    nbr: IntArray,
) -> None:
    """Long-window path: score each recurrence row in rank space into
    ``best`` (``l * corr``) and ``nbr``."""
    n_subs = mu.size
    # rank[i, j] = C[i, j] * invsig[j] = corr_ij * l * sigma_i, and
    # lc_scale[i] takes a row's winning rank to l * corr.  Constant query
    # rows are scored in l * corr directly (scale 1).
    invsig = 1.0 / np.maximum(sigma, CONSTANT_EPS)
    lc_scale = np.where(window_const, 1.0, invsig)
    const_cols = np.flatnonzero(window_const)
    half = 0.5 * length
    rank = np.empty(n_subs, dtype=np.float64)
    rows = [(0, n_subs)]
    for i, c in comoment_rows(ctx.series, length, mu, sigma, rows, ctx):
        if window_const[i]:
            # Constant query: distance 0 to constant windows, sqrt(l) to
            # everything else (scale-free ranking).
            rank.fill(half)
            rank[const_cols] = length
        else:
            np.multiply(c, invsig, out=rank)
            if const_cols.size:
                rank[const_cols] = half * sigma[i]
        rank[max(0, i - zone + 1) : i + zone] = -np.inf
        j = int(np.argmax(rank))
        best[i] = rank[j]
        nbr[i] = j
    best *= lc_scale


def blocked_stomp(
    series: FloatArray,
    length: int,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    context: Optional[SeriesContext] = None,
) -> "MatrixProfile":
    """Compute the full matrix profile with the blocked STOMP kernel.

    Parameters
    ----------
    block_rows:
        Rows per GEMM block (``B``) at ``length <= DIRECT_DOT_MAX``;
        ``B=1`` degenerates to a rowwise schedule, and any ``B`` larger
        than the number of subsequences processes everything in one
        block.  All block sizes produce the same profile up to rounding.
        Longer windows are scored a row at a time and ignore it.
    context:
        Optional :class:`SeriesContext`; pass one to reuse cached window
        statistics and the cached series FFT across calls and lengths.
    """
    from repro.matrixprofile.exclusion import contributing_cells, exclusion_zone_half_width
    from repro.matrixprofile.index import MatrixProfile

    if block_rows < 1:
        raise InvalidParameterError(
            f"block_rows must be at least 1, got {block_rows}"
        )
    ctx = SeriesContext.ensure(series, context, min_length=4)
    t = ctx.series
    n_subs = validate_subsequence_length(t.size, length)
    mu, sigma = ctx.moving_mean_std(length)
    zone = exclusion_zone_half_width(length)
    window_const = sigma < CONSTANT_EPS

    if obs.enabled():
        obs.add("engine.rows", n_subs)
        obs.add("engine.cells", contributing_cells(n_subs, zone))

    best = np.empty(n_subs, dtype=np.float64)
    nbr = np.empty(n_subs, dtype=np.int64)
    with obs.span("engine.blocked_stomp"):
        if length <= DIRECT_DOT_MAX:
            blocks, cells = _gemm_blocks(
                t, length, mu, sigma, window_const, zone, block_rows, best, nbr
            )
            obs.add("kernel.blocks", blocks)
            obs.add("kernel.gemm_cells", cells)
            obs.add("kernel.gemm_rows", n_subs)
            obs.gauge("kernel.block_rows", block_rows)
        else:
            _recurrence_rows(ctx, length, mu, sigma, window_const, zone, best, nbr)
        profile, index = _finish(best, nbr, length)
    return MatrixProfile(profile=profile, index=index, length=length)
