"""Blocked STOMP: the matrix profile scored a block of rows at a time.

Serial STOMP (:mod:`repro.matrixprofile.stomp`) pays one Python iteration
per row, and inside it roughly a dozen full-row NumPy temporaries: the
rolling update allocates four scratch vectors, Eq. 3 normalizes, clips,
masks and square-roots the whole row, and only then an argmin runs.  On a
single core the run is memory-bound — the distance work streams several
freshly allocated row-sized arrays per row.

This kernel restructures the work around blocks of ``B = block_rows``
rows.  A block's dot products come from one of two sources, cut at
``DIRECT_DOT_MAX`` (the cut the one-row sliding dot product and the
partial recompute's GEMM already make):

* **Short windows** (``l <= DIRECT_DOT_MAX``): one GEMM per block over
  the z-normalised windows.  ``Z = (W - mu) / sigma`` is built once per
  call, with the rows of constant windows zeroed, and ``Z[r0:r1] @ Z.T``
  is ``l * corr`` for the whole block.  There is no recurrence and
  nothing to re-anchor: the arithmetic is the brute-force oracle's
  (z-normalise each window, then take dot products), batched.  The GEMM
  costs ``O(n l)`` per row against the recurrence's ``O(n)``;
  docs/ENGINES.md gives the measurements behind the cut.
* **Long windows**: the co-moment recurrence of
  :mod:`repro.distance.comoment` in *sheared* coordinates, where the
  rolling update loses its column shift: with
  ``S[k, m] = C[r0 + k][m + k]`` the recurrence

      C[i][j] = C[i-1][j-1] + df[i-1] dg[j-1] + dg[i-1] df[j-1]

  reads ``S[k] = S[k-1] + delta_k`` where every ``delta_k`` is a plain
  window of the (padded) ``dg`` and ``df`` vectors times two scalars —
  zero-copy sliding windows shared by the whole block.  Each increment
  row is built with two full-width multiplies, seeded with the diagonal
  entering at column 0 from ``c_first``, and accumulated onto its
  predecessor while both rows are cache-resident.  Each accumulated row
  is scored in *ranking* space: ``rank_j = C_j / sigma_j`` equals
  ``corr_ij * l * sigma_i``, a positive per-row multiple of the
  correlation, so its argmax is the row's nearest neighbor.

Both paths end every block in one epilogue (:func:`_finish_block`): the
rows' winning ``l * corr`` values pay Eq. 3's clip and sqrt in one
vectorised pass.  All scratch buffers are preallocated once per call.

Numerical behavior:

* The short path matches the oracle to rounding, large DC offsets
  included: it z-normalises the windows before the GEMM.
* The long path carries centred co-moments, so offsets cost no digits
  either; the drift rule of :func:`repro.distance.comoment.anchor_rows`
  is honored by force-starting a new block (with an exactly summed row)
  at every anchor row.  Within a block the sheared accumulation groups
  the additions differently than the serial per-row update, so results
  agree with serial STOMP to rounding (and with ``brute`` within the
  differential harness tolerance), not bitwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from repro import obs
from repro.types import BoolArray, FloatArray, IntArray

from repro.distance.comoment import anchor_rows, comoment_row, increments
from repro.distance.sliding import DIRECT_DOT_MAX, validate_subsequence_length
from repro.distance.znorm import CONSTANT_EPS
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext

if TYPE_CHECKING:  # pragma: no cover - engines sit above this layer
    from repro.matrixprofile.index import MatrixProfile

__all__ = ["blocked_stomp", "DEFAULT_BLOCK_ROWS"]

#: default rows per block: large enough to amortize the block's shared
#: window views and boundary handling over tens of thousands of cells,
#: small enough that the two live scratch rows stay cache-resident.
#: See docs/ENGINES.md for how to choose a different value.
DEFAULT_BLOCK_ROWS = 64


def _finish_block(
    profile: FloatArray,
    index: IntArray,
    rows: slice,
    lcorr: FloatArray,
    nbr: IntArray,
    length: int,
) -> None:
    """Write a block's profile entries from each row's winning ``l * corr``.

    A row whose every column is excluded carries ``-inf`` and reports no
    neighbor.  Clipping to ``[-l, l]`` keeps ``l - lcorr`` non-negative.
    """
    found = np.isfinite(lcorr)
    np.clip(lcorr, -length, length, out=lcorr)
    profile[rows] = np.where(found, np.sqrt(2.0 * (length - lcorr)), np.inf)
    index[rows] = np.where(found, nbr, -1)


def _gemm_blocks(
    t: FloatArray,
    length: int,
    mu: FloatArray,
    sigma: FloatArray,
    window_const: BoolArray,
    zone: int,
    block_rows: int,
    profile: FloatArray,
    index: IntArray,
) -> int:
    """Short-window path: score each block from one GEMM; returns blocks."""
    n_subs = mu.size
    z = sliding_window_view(t, length) - mu[:, None]
    z /= np.maximum(sigma, CONSTANT_EPS)[:, None]
    z[window_const] = 0.0
    const_cols = np.flatnonzero(window_const)
    half = 0.5 * length

    # Each scores row is one row's l*corr with ``pad`` columns of -inf on
    # either side, so the exclusion band of local row k starts at column
    # r0 + k and the whole band is one sheared view.
    pad = zone - 1
    scores = np.full((min(block_rows, n_subs), n_subs + 2 * pad), -np.inf)
    row_step, col_step = scores.strides
    blocks = 0
    for r0 in range(0, n_subs, block_rows):
        r1 = min(r0 + block_rows, n_subs)
        b_rows = r1 - r0
        g = scores[:b_rows]
        lcorr = g[:, pad : pad + n_subs]
        np.matmul(z[r0:r1], z.T, out=lcorr)
        if const_cols.size:
            # Constant windows: distance 0 to each other, sqrt(l) to
            # everything else, i.e. l*corr of l and l/2.
            lcorr[:, const_cols] = half
            own = np.flatnonzero(window_const[r0:r1])
            lcorr[own] = half
            lcorr[np.ix_(own, const_cols)] = length
        band = as_strided(
            g[0, r0:], shape=(b_rows, 2 * zone - 1), strides=(row_step + col_step, col_step)
        )
        band.fill(-np.inf)
        j = g.argmax(axis=1)
        best = g[np.arange(b_rows), j]
        _finish_block(profile, index, slice(r0, r1), best, j - pad, length)
        blocks += 1
    return blocks


def _sheared_blocks(
    t: FloatArray,
    length: int,
    mu: FloatArray,
    sigma: FloatArray,
    window_const: BoolArray,
    zone: int,
    block_rows: int,
    c_first: FloatArray,
    profile: FloatArray,
    index: IntArray,
) -> int:
    """Long-window path: the sheared recurrence; returns the block count."""
    n_subs = mu.size
    df, dg = increments(t, length, mu)
    anchor_list = [int(a) for a in anchor_rows(t, length, df, dg, sigma)]
    anchor_set = frozenset(anchor_list)

    # rank[i, j] = C[i, j] * invsig[j] = corr_ij * l * sigma_i, and
    # lc_scale[i] takes a row's winning rank to l * corr.  Constant query
    # rows are scored in l * corr directly (scale 1).
    invsig = 1.0 / np.maximum(sigma, CONSTANT_EPS)
    lc_scale = np.where(window_const, 1.0, invsig)
    any_window_const = bool(window_const.any())

    # Padded increments: dfp[x + pad] == df[x], zeros outside.  Lets the
    # sheared increment rows be plain windows even where they cover
    # out-of-range diagonals (those cells only pollute rows that are
    # never extracted).
    pad = min(block_rows, n_subs)
    dfp = np.zeros(df.size + 2 * pad, dtype=np.float64)
    dgp = np.zeros(df.size + 2 * pad, dtype=np.float64)
    dfp[pad : pad + df.size] = df
    dgp[pad : pad + dg.size] = dg

    # Scratch, allocated once per call and reused by every block.
    width_max = n_subs + pad - 1
    block = np.empty((pad, width_max), dtype=np.float64)
    tmprow = np.empty(width_max, dtype=np.float64)
    buf = np.empty(n_subs, dtype=np.float64)
    buf2 = np.empty(n_subs, dtype=np.float64)
    best = np.empty(pad, dtype=np.float64)
    nbr = np.empty(pad, dtype=np.int64)

    carry: Optional[FloatArray] = None
    blocks = 0
    r0 = 0
    next_anchor = 0
    while r0 < n_subs:
        r1 = min(r0 + block_rows, n_subs)
        # The drift schedule is respected at block boundaries: every
        # anchor row starts a new block with an exactly summed row.
        while next_anchor < len(anchor_list) and anchor_list[next_anchor] <= r0:
            next_anchor += 1
        if next_anchor < len(anchor_list) and anchor_list[next_anchor] < r1:
            r1 = anchor_list[next_anchor]
        b_rows = r1 - r0
        width = n_subs + b_rows - 1
        blocks += 1

        # --- row r0 of the block: full row via the serial update -------
        if r0 == 0:
            row0 = c_first
        elif r0 in anchor_set:
            obs.add("comoment.reanchors")
            row0 = comoment_row(t[r0 : r0 + length], t, mu, direct=True)
            row0[0] = c_first[r0]
        else:
            # carry is always set here: every non-anchor r0 > 0 follows
            # a completed block that stored its last row.
            np.multiply(dg, df[r0 - 1], out=buf2[1:])
            buf2[1:] += carry[:-1]
            buf2[1:] += df * dg[r0 - 1]
            buf2[0] = c_first[r0]
            row0 = buf2
        s = block[:b_rows, :width]
        s[0, : b_rows - 1] = 0.0
        s[0, b_rows - 1 :] = row0[:n_subs]

        # Shared zero-copy window views for the block's increments.
        if b_rows > 1:
            base = pad - b_rows
            m1 = sliding_window_view(dgp, width)[base + 1 : base + b_rows]
            m2 = sliding_window_view(dfp, width)[base + 1 : base + b_rows]
            a_coef = df[r0 : r1 - 1]
            b_coef = dg[r0 : r1 - 1]

        # --- build, accumulate and score row by row --------------------
        # Each row is materialized, chained onto its predecessor and
        # scored while both stay cache-hot; the shear keeps every
        # operation a full-width contiguous vector op.
        for k in range(b_rows):
            i = r0 + k
            shift = b_rows - 1 - k
            if k > 0:
                row = s[k]
                np.multiply(m1[k - 1], a_coef[k - 1], out=row)
                np.multiply(m2[k - 1], b_coef[k - 1], out=tmprow[:width])
                row += tmprow[:width]
                # Seed the diagonal entering at column 0, zero the
                # j < 0 cells, then advance the sheared cumsum.
                row[:shift] = 0.0
                row[shift] = c_first[i]
                row += s[k - 1]
            lo = max(0, i - zone + 1)
            hi = min(n_subs, i + zone)
            if window_const[i]:
                # Constant query: distance 0 to constant windows,
                # sqrt(l) to everything else (scale-free ranking).
                buf.fill(0.5 * length)
                buf[window_const] = length
            else:
                np.multiply(s[k, shift : shift + n_subs], invsig, out=buf)
                if any_window_const:
                    buf[window_const] = 0.5 * length * sigma[i]
            buf[lo:hi] = -np.inf
            j = int(np.argmax(buf))
            best[k] = buf[j]
            nbr[k] = j
        lcorr = best[:b_rows] * lc_scale[r0:r1]
        _finish_block(profile, index, slice(r0, r1), lcorr, nbr[:b_rows], length)
        carry = np.array(s[b_rows - 1, :n_subs])
        r0 = r1
    return blocks


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
        Rows scored per block (``B``).  ``B=1`` degenerates to a rowwise
        schedule; any ``B`` larger than the number of subsequences
        processes everything in one block.  All block sizes produce the
        same profile up to rounding.
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
    gemm = length <= DIRECT_DOT_MAX

    if obs.enabled():
        obs.add("engine.rows", n_subs)
        obs.add("engine.cells", contributing_cells(n_subs, zone))
        obs.gauge("kernel.block_rows", block_rows)

    profile = np.empty(n_subs, dtype=np.float64)
    index = np.empty(n_subs, dtype=np.int64)
    with obs.span("engine.blocked_stomp"):
        if gemm:
            blocks = _gemm_blocks(
                t, length, mu, sigma, window_const, zone, block_rows, profile, index
            )
        else:
            blocks = _sheared_blocks(
                t, length, mu, sigma, window_const, zone, block_rows,
                comoment_row(t[:length], t, mu, context=ctx), profile, index,
            )

    if obs.enabled():
        obs.add("kernel.blocks", blocks)
        if gemm:
            obs.add("kernel.gemm_rows", n_subs)
    return MatrixProfile(profile=profile, index=index, length=length)
