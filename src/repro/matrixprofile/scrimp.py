"""SCRIMP: the diagonal-order matrix-profile engine (Zhu et al. 2018).

STOMP computes the distance matrix row by row; SCRIMP computes it
*diagonal by diagonal*.  Along a diagonal ``d`` (pairs ``(i, i + d)``)
the centred co-moment of :mod:`repro.distance.comoment` obeys::

    C(i, i+d) = C(i-1, i-1+d) + df[i-1] dg[i-1+d] + dg[i-1] df[i-1+d]

so one cumulative sum evaluates a whole diagonal at once, restarted from
an exact co-moment at every anchor row of the shared drift rule.
Two properties make SCRIMP valuable here:

* **Anytime-exactness**: diagonals can be visited in random order and
  the run stopped early; unlike STAMP's row order, every *pair* touched
  is final, and convergence is uniform across the profile.
* **PRE-SCRIMP**: an O(n^2 / s) approximate warm-up that samples every
  s-th row and refines neighbors locally; we implement it as the
  optional first phase, as in the published algorithm.

Both the full run and the anytime run are tested against brute force.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import obs
from repro.types import FloatArray, IntArray

from repro.distance.comoment import anchor_rows, distance_profile_from_qt, increments
from repro.distance.mass import mass_with_stats
from repro.distance.profile import apply_exclusion_zone
from repro.distance.sliding import validate_subsequence_length
from repro.distance.znorm import CONSTANT_EPS
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.matrixprofile.index import MatrixProfile

__all__ = ["scrimp", "pre_scrimp"]


def _diagonal_distances(
    t: FloatArray,
    diag: int,
    length: int,
    mu: FloatArray,
    sigma: FloatArray,
    df: FloatArray,
    dg: FloatArray,
    anchors: IntArray,
) -> FloatArray:
    """Exact distances of every pair along diagonal ``diag`` (vectorized)."""
    m = mu.size - diag  # number of pairs (i, i + diag)
    steps = df[: m - 1] * dg[diag:] + dg[: m - 1] * df[diag:]
    c = np.empty(m, dtype=np.float64)
    # exact co-moments at row 0 and every anchor row, then the recurrence
    # as a cumulative sum over each run of rows between them
    starts = np.concatenate([[0], anchors[anchors < m]])
    ends = np.append(starts[1:], m)
    windows = sliding_window_view(t, length)
    c[starts] = np.einsum(
        "ij,ij->i",
        windows[starts] - mu[starts, None],
        windows[starts + diag] - mu[starts + diag, None],
    )
    runs = ends - starts > 1
    for s, e in zip(starts[runs].tolist(), ends[runs].tolist()):
        np.cumsum(steps[s : e - 1], out=c[s + 1 : e])
        c[s + 1 : e] += c[s]
    return distance_profile_from_qt(c, length, sigma[:m], sigma[diag:])


def scrimp(
    series: FloatArray,
    length: int,
    fraction: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    context: Optional[SeriesContext] = None,
) -> MatrixProfile:
    """Matrix profile by diagonal traversal.

    Parameters
    ----------
    fraction:
        Anytime budget: the fraction of diagonals to visit (1.0 = exact).
        Visited pairs produce exact entries; unvisited pairs may leave
        entries above their true value.
    rng:
        Diagonal visiting order for anytime runs; nearest-first when None.
    """
    ctx = SeriesContext.ensure(series, context, min_length=4)
    t = ctx.series
    n_subs = validate_subsequence_length(t.size, length)
    if not 0.0 < fraction <= 1.0:
        raise InvalidParameterError(f"fraction must be in (0, 1], got {fraction}")
    mu, sigma = ctx.moving_mean_std(length)
    df, dg = increments(t, length, mu)
    anchors = anchor_rows(t, length, df, dg, sigma)
    zone = exclusion_zone_half_width(length)
    profile = np.full(n_subs, np.inf, dtype=np.float64)
    index = np.full(n_subs, -1, dtype=np.int64)

    diagonals = np.arange(zone, n_subs)
    if rng is not None:
        diagonals = rng.permutation(diagonals)
    budget = max(1, int(round(fraction * diagonals.size)))
    if obs.enabled():
        # Each visited diagonal d holds n_subs - d pairs, seen from both
        # sides; a full run sums to the shared k(k+1) cell count.
        visited = diagonals[:budget].astype(np.int64)
        obs.add("engine.rows", n_subs)
        obs.add("engine.cells", int((2 * (n_subs - visited)).sum()))
        obs.add("scrimp.diagonals", int(visited.size))
    with obs.span("engine.scrimp"):
        for diag in diagonals[:budget]:
            diag = int(diag)
            dist = _diagonal_distances(t, diag, length, mu, sigma, df, dg, anchors)
            m = dist.size
            rows = np.arange(m)
            cols = rows + diag
            better_row = dist < profile[:m]
            profile[rows[better_row]] = dist[better_row]
            index[rows[better_row]] = cols[better_row]
            better_col = dist < profile[diag:]
            profile[cols[better_col]] = dist[better_col]
            index[cols[better_col]] = rows[better_col]
    return MatrixProfile(profile=profile, index=index, length=length)


def pre_scrimp(
    series: FloatArray,
    length: int,
    stride: Optional[int] = None,
    context: Optional[SeriesContext] = None,
) -> MatrixProfile:
    """PRE-SCRIMP: the O(n^2 / s) approximate warm-up phase.

    Computes a full MASS distance profile for every ``stride``-th
    subsequence and propagates each discovered neighbor to the positions
    in between (shifting both windows together keeps them similar) — the
    published algorithm's "anytime seed".  Entries are upper bounds.
    """
    ctx = SeriesContext.ensure(series, context, min_length=4)
    t = ctx.series
    n_subs = validate_subsequence_length(t.size, length)
    if stride is None:
        # PRE-SCRIMP's published sampling stride happens to be l/2 but it
        # is a row-sampling rate, not a trivial-match zone.
        stride = max(1, length // 2)
    if stride <= 0:
        raise InvalidParameterError(f"stride must be positive, got {stride}")
    mu, sigma = ctx.moving_mean_std(length)
    zone = exclusion_zone_half_width(length)
    profile = np.full(n_subs, np.inf, dtype=np.float64)
    index = np.full(n_subs, -1, dtype=np.int64)

    for anchor in range(0, n_subs, stride):
        row = mass_with_stats(t, anchor, length, mu, sigma, context=ctx)
        apply_exclusion_zone(row, anchor, zone)
        j = int(np.argmin(row))
        if not np.isfinite(row[j]):
            continue
        if row[j] < profile[anchor]:
            profile[anchor] = row[j]
            index[anchor] = j
        if row[j] < profile[j]:
            profile[j] = row[j]
            index[j] = anchor
        # Propagate the (anchor, j) match to neighboring offsets.
        for shift in range(1, stride):
            a, b = anchor + shift, j + shift
            if a >= n_subs or b >= n_subs:
                break
            d = float(
                np.sqrt(
                    max(
                        0.0,
                        np.sum(
                            (
                                (t[a : a + length] - mu[a])
                                / max(sigma[a], CONSTANT_EPS)
                                - (t[b : b + length] - mu[b])
                                / max(sigma[b], CONSTANT_EPS)
                            )
                            ** 2
                        ),
                    )
                )
            )
            if d < profile[a]:
                profile[a] = d
                index[a] = b
            if d < profile[b]:
                profile[b] = d
                index[b] = a
    return MatrixProfile(profile=profile, index=index, length=length)
