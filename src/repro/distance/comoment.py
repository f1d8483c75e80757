"""The centred co-moment: where a dot-product row becomes a correlation.

Every exact path carries ``C[i, j] = sum_k (t[i+k] - mu_i) (t[j+k] -
mu_j) = l sigma_i sigma_j corr_ij`` instead of the raw dot product
``QT``: the paper's ``(QT - l mu_i mu_j) / (l sigma_i sigma_j)`` cancels
every digit at a DC offset ``|mu| >> sigma``.  This module owns the
first row (:func:`comoment_row`), the co-moment rows of a block of
windows (:func:`window_comoments`), SCAMP's increments (Zimmerman et al.,
"Matrix Profile XIV"; :func:`increments`), the STOMP recurrence over
them that every batch engine iterates (:func:`comoment_rows`), Eq. 3 on
co-moments with the constant-window conventions
(:func:`distance_profile_from_qt`) and the one re-anchor rule
(:func:`anchor_rows`).  ``docs/ALGORITHMS.md``
("Exactness contract") states what the paths built on it promise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import obs
from repro.distance.sliding import DIRECT_DOT_MAX, sliding_dot_product
from repro.distance.znorm import CONSTANT_EPS
from repro.exceptions import InvalidParameterError
from repro.types import FloatArray, IntArray

if TYPE_CHECKING:  # pragma: no cover - kernels sits above this layer
    from repro.kernels.context import SeriesContext, Workspace

__all__ = [
    "DRIFT_TOL",
    "anchor_rows",
    "comoment_row",
    "comoment_rows",
    "correlation_from_qt",
    "distance_profile_from_qt",
    "drift_budget",
    "drift_floor",
    "drift_steps",
    "increments",
    "pair_distances",
    "window_comoments",
]

#: drift tolerated in a co-moment recurrence before a row is recomputed
#: exactly, as a bound on the error of the row's correlations.
DRIFT_TOL = 1e-9

_EPS = float(np.finfo(np.float64).eps)


def comoment_row(
    query: FloatArray,
    series: FloatArray,
    mu: FloatArray,
    context: Optional["SeriesContext"] = None,
    direct: bool = False,
) -> FloatArray:
    """``C[j] = sum_k (query[k] - mean(query)) (series[j+k] - mu[j])``.

    ``mu`` holds the window means of ``series`` at ``len(query)``.  The
    query is centred before the sliding dot product, and ``mu_j`` times
    the centred query's sum (rounding leaves it about ``l eps |mu|``, not
    zero) is taken off afterwards.  ``context`` supplies the cached series
    spectrum for the FFT; ``direct`` forces ``np.correlate``, whose error
    stays local to each output (the exact rows of :func:`anchor_rows`).
    A ``(B, l)`` stack of queries gives ``(B, n)`` rows from one batched
    FFT on ``context``.
    """
    q = np.asarray(query, dtype=np.float64)
    q = q - q.mean(axis=-1, keepdims=True)
    if q.ndim == 2:
        rows = context.window_dot_products(q)
    elif direct:
        rows = np.correlate(series, q, mode="valid")
    elif context is not None and context.matches(series):
        rows = context.sliding_dot_product(q)
    else:
        rows = sliding_dot_product(q, series)
    rows -= mu[: rows.shape[-1]] * q.sum(axis=-1, keepdims=True)
    return rows


def window_comoments(
    context: "SeriesContext",
    length: int,
    mu: FloatArray,
    workspace: "Workspace",
) -> Callable[[Union[slice, IntArray]], FloatArray]:
    """The co-moment rows of a block of windows, as a function of the block.

    Returns a function mapping window offsets ``rows`` (an index array or
    a slice) to the ``(B, n)`` co-moments of those windows with every
    window of ``context.series`` at ``length``; ``mu`` holds that length's
    window means.  Split at ``DIRECT_DOT_MAX`` like :func:`comoment_row`:

    * short windows: one GEMM over the centred windows, O(B n l); the
      n x l centred copy is made once, when this function is called.
      BLAS may round a row differently depending on how many rows share
      its block, so callers that must reproduce a row bit for bit ask
      for the same block every time.  The centred windows and the
      returned rows live in ``workspace``'s ``"centred"`` and
      ``"comoments"`` slots: the rows are valid until the next call of
      the returned function, and only one such function may be live per
      workspace.
    * long windows: a batched FFT on the cached series spectrum
      (:func:`comoment_row` on a stack of queries), O(B n log n) time and
      O(B n) memory; the rows are fresh arrays.
    """
    windows = sliding_window_view(context.series, length)
    if length > DIRECT_DOT_MAX:
        return lambda rows: comoment_row(
            windows[rows], context.series, mu, context=context
        )
    centred = np.subtract(
        windows, mu[:, None], out=workspace.take("centred", windows.shape)
    )

    def comoments(rows: Union[slice, IntArray]) -> FloatArray:
        block = centred[rows]
        out = workspace.take("comoments", (block.shape[0], centred.shape[0]))
        return np.matmul(block, centred.T, out=out)

    return comoments


def increments(
    series: FloatArray, length: int, mu: FloatArray
) -> Tuple[FloatArray, FloatArray]:
    """SCAMP's ``df[k] = (t[k+l] - t[k]) / 2`` and ``dg[k] = (t[k+l] -
    mu[k+1]) + (t[k] - mu[k])``: ``C[i+1, j+1] = C[i, j] + df[i] dg[j] +
    df[j] dg[i]``."""
    head = series[: series.size - length]
    tail = series[length:]
    df = 0.5 * (tail - head)
    dg = (tail - mu[1 : head.size + 1]) + (head - mu[: head.size])
    return df, dg


def comoment_rows(
    series: FloatArray,
    length: int,
    mu: FloatArray,
    sigma: FloatArray,
    tiles: Sequence[Tuple[int, int]],
    context: Optional["SeriesContext"] = None,
) -> Iterator[Tuple[int, FloatArray]]:
    """Yield ``(i, c)``: the co-moments of window ``i`` with every window.

    The STOMP recurrence (Algorithm 3, line 11) on centred co-moments,
    run over the row ranges ``tiles`` in order.  Each range ``[start,
    stop)`` starts from an exact row (:func:`comoment_row` on
    ``context``'s spectrum), so no row before ``start`` is formed and the
    rows after it round like a recurrence started there.  Row 0 supplies
    column 0 (``C[i, 0] = C[0, i]``), and the rows of :func:`anchor_rows`
    are recomputed exactly wherever they fall; row 0, the increments and
    the anchors are computed once for all tiles.  ``mu`` and ``sigma``
    are the window statistics of ``series`` at ``length``.

    The update allocates nothing: it writes into one of two rows it
    swaps, so the yielded array is reused — callers that keep it must
    copy.
    """
    t = series
    n_subs = t.size - length + 1
    c_first = comoment_row(t[:length], t, mu, context=context)
    df, dg = increments(t, length, mu)
    anchors = anchor_rows(t, length, df, dg, sigma)
    cur = np.empty(n_subs, dtype=np.float64)
    prev = np.empty(n_subs, dtype=np.float64)
    term = np.empty(n_subs - 1, dtype=np.float64)
    for start, stop in tiles:
        if start == stop:
            continue
        if start == 0:
            cur[:] = c_first
        else:
            cur[:] = comoment_row(t[start : start + length], t, mu, context=context)
        anchor_pos = int(np.searchsorted(anchors, start, side="right"))
        for i in range(start, stop):
            if i > start:
                if anchor_pos < anchors.size and anchors[anchor_pos] == i:
                    # Accumulated drift too large: recompute the row exactly.
                    obs.add("comoment.reanchors")
                    cur[:] = comoment_row(t[i : i + length], t, mu, direct=True)
                    anchor_pos += 1
                else:
                    # C[i, j] = (C[i-1, j-1] + dg[j-1] df[i-1]) + df[j-1] dg[i-1]
                    prev, cur = cur, prev
                    row = cur[1:]
                    np.multiply(dg, df[i - 1], out=row)
                    np.add(prev[:-1], row, out=row)
                    np.multiply(df, dg[i - 1], out=term)
                    np.add(row, term, out=row)
            cur[0] = c_first[i]
            yield i, cur


def correlation_from_qt(
    c: FloatArray,
    length: Union[int, IntArray],
    sigma_q: Union[float, FloatArray],
    sigma: FloatArray,
) -> FloatArray:
    """Pearson correlation ``C / (l sigma_q sigma_j)``, 0 where a side is
    constant; broadcasts like :func:`distance_profile_from_qt`."""
    cols = c.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = c / (length * sigma_q * sigma[..., :cols])
    corr[~np.isfinite(corr)] = 0.0
    np.clip(corr, -1.0, 1.0, out=corr)
    return corr


def distance_profile_from_qt(
    c: FloatArray,
    length: Union[int, IntArray],
    sigma_q: Union[float, FloatArray],
    sigma: FloatArray,
) -> FloatArray:
    """Vectorized Eq. 3: z-normalized distances from co-moments.

    Applies the constant-window conventions: distance 0 when both the
    query and the window are constant, ``sqrt(l)`` when exactly one is.

    Broadcasts over rows: with a ``(rows, n)`` stack of co-moment rows,
    pass ``length`` and ``sigma_q`` as ``(rows, 1)`` columns and
    ``sigma`` as a ``(rows, >= n)`` stack; each row is then bitwise the
    1-D profile of its own query.  Pairwise forms pass ``sigma_q`` and
    ``sigma`` with the shape of ``c``.
    """
    if np.asarray(length).min() <= 0:
        raise InvalidParameterError(f"length must be positive, got {length}")
    # The conventions are set as correlations, which the exact arithmetic
    # below turns into distances: 1 gives 0 (both sides constant), 1/2
    # gives 2l·(1 - 1/2) = l, so sqrt(l) (exactly one side constant).
    corr = correlation_from_qt(c, length, sigma_q, sigma)
    window_const = sigma[..., : c.shape[-1]] < CONSTANT_EPS
    corr[window_const] = 1.0
    corr[window_const != (sigma_q < CONSTANT_EPS)] = 0.5
    profile = np.subtract(1.0, corr, out=corr)
    profile *= 2.0 * length
    np.maximum(profile, 0.0, out=profile)
    return np.sqrt(profile, out=profile)


def pair_distances(
    centred: FloatArray,
    sigma: FloatArray,
    length: int,
    left: IntArray,
    right: IntArray,
) -> FloatArray:
    """Eq. 3 for explicit window pairs ``(left[k], right[k])``, one
    co-moment each; ``centred`` holds every window minus its mean."""
    c = np.einsum("ij,ij->i", centred[left], centred[right])
    return distance_profile_from_qt(c, length, sigma[left], sigma[right])


def drift_floor(sigma: FloatArray) -> float:
    """The smallest non-constant window deviation (0 when there is none),
    the smallest ``sigma_j`` a row's co-moments are divided by."""
    live = sigma[sigma >= CONSTANT_EPS]
    return float(live.min()) if live.size else 0.0


def drift_budget(
    length: int, sigma_row: Union[float, FloatArray], floor: float
) -> Union[float, FloatArray]:
    """Drift a row may accumulate: ``DRIFT_TOL l max(sigma_i, floor)
    floor``, so that every correlation ``C_ij / (l sigma_i sigma_j)`` of
    the row moves by at most ``DRIFT_TOL``."""
    return DRIFT_TOL * length * np.maximum(sigma_row, floor) * floor


def drift_steps(
    series: FloatArray, length: int, df: FloatArray, dg: FloatArray, centre: float
) -> FloatArray:
    """Per-update rounding bound of the co-moment recurrence.

    Step ``i`` (from row ``i`` to row ``i + 1``) adds ``df[i] dg[j] +
    df[j] dg[i]`` to every entry.  The products round by about
    ``eps (|df_i| max|dg| + |dg_i| max|df|)``, and ``df`` / ``dg`` carry
    the rounding of the values they are formed from, whose size is their
    distance from ``centre`` (an offset shared by the whole series cancels
    exactly).  With ``s = |df| + |dg| + |t_head - centre| + |t_tail -
    centre|`` the step is bounded by ``eps s_i max(s)``.
    """
    if df.size == 0:
        return np.empty(0, dtype=np.float64)
    size = np.abs(df) + np.abs(dg)
    size += np.abs(series[: df.size] - centre)
    size += np.abs(series[length:] - centre)
    return _EPS * size * float(size.max())


def anchor_rows(
    series: FloatArray, length: int, df: FloatArray, dg: FloatArray, sigma: FloatArray
) -> IntArray:
    """Rows at which a co-moment recurrence is recomputed exactly.

    Adds up :func:`drift_steps` about the series median and schedules an
    exact row each time the total since the last one passes the row's
    :func:`drift_budget`.  On data whose windows share one scale, offsets
    included, the schedule is empty; a shelf of large values makes the
    rows whose windows touch it anchors, and the first rows past it,
    whose deviations are small again.  A pure function of its inputs,
    so every run over the same rows honours the same schedule bit for
    bit.
    """
    floor = drift_floor(sigma)
    if floor <= 0.0 or df.size == 0:
        return np.empty(0, dtype=np.int64)
    # drift[i] = accumulated bound through the update into row i.  Row i
    # is the next anchor after row a once drift[i] - budget[i] > drift[a];
    # no row up to a passes that, so the running maximum finds it.
    steps = drift_steps(series, length, df, dg, float(np.median(series)))
    drift = np.concatenate([[0.0], np.cumsum(steps)])
    over = np.maximum.accumulate(drift - drift_budget(length, sigma[: drift.size], floor))
    anchors = []
    base = 0.0
    while True:
        nxt = int(np.searchsorted(over, base, side="right"))
        if nxt >= over.size:
            break
        anchors.append(nxt)
        base = drift[nxt]
    return np.asarray(anchors, dtype=np.int64)
