"""Algorithm 4 — ComputeSubMP: the matrix profile for subsequent lengths.

Given the ``listDP`` store built at a smaller length, this routine tries
to find the motif pair of the new length by evaluating only the ``p``
stored entries per distance profile (O(n p) work), instead of the full
O(n^2) matrix profile.

Validity logic (paper, Section 4.4)
-----------------------------------
For each profile, ``minDist`` is the smallest exact distance among the
stored entries and ``maxLB`` the largest lower bound among them (the p-th
smallest LB of the whole profile).  Because the LB ranking is preserved
across lengths, every *unstored* candidate has LB >= maxLB, hence true
distance >= maxLB.  So:

* ``minDist < maxLB``   -> the profile minimum is known exactly (*valid*).
* otherwise             -> the true minimum lies in [maxLB, minDist]
  (*non-valid*); we record maxLB.

If the best valid distance beats every non-valid profile's maxLB, it is
the motif distance (``bBestM``).  Otherwise the non-valid profiles whose
maxLB could hide a better pair are recomputed in full — but only when
they are few; else the caller falls back to Algorithm 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import obs
from repro.types import BoolArray, FloatArray, IntArray

from repro.core.entries import EntryStore, rank_rows
from repro.core.lower_bound import lower_bound_from_base
from repro.distance.comoment import comoment_row, distance_profile_from_qt
from repro.distance.sliding import DIRECT_DOT_MAX
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext
from repro.matrixprofile.exclusion import exclusion_zone_half_width

__all__ = ["SubMPResult", "compute_submp", "pairwise_entry_distances"]

#: rows in the partial recompute's first chunk: a step whose stop rule
#: fires after a few rows scores at most this many.
RECOMPUTE_FIRST_CHUNK = 8
#: cap on a recompute chunk as chunks double: a chunk's temporaries (its
#: dot products, ranking block and FFT spectra) are a few 32-row arrays of
#: about n doubles each, whatever the window length.
RECOMPUTE_MAX_CHUNK = 32


def _chunk_comoments(
    ctx: SeriesContext, length: int, mu: FloatArray
) -> Callable[[IntArray], FloatArray]:
    """The partial recompute's source of co-moment rows at ``length``.

    Returns a function mapping window offsets ``rows`` to the ``(B,
    n_dp)`` co-moments of those windows with every window, split at
    ``DIRECT_DOT_MAX`` like the one-row sliding dot product:

    * short windows: one GEMM per chunk over the centred windows,
      O(B n l); the n x l centred copy, made once per step, is no larger
      than two 32-row chunk buffers.
    * long windows: a batched FFT on the cached series spectrum
      (:func:`repro.distance.comoment.comoment_row` on a stack of
      queries), O(B n log n) time and O(B n) memory.
    """
    windows = sliding_window_view(ctx.series, length)
    if length > DIRECT_DOT_MAX:
        return lambda rows: comoment_row(windows[rows], ctx.series, mu, context=ctx)
    centred = windows - mu[:, None]
    return lambda rows: centred[rows] @ centred.T


@dataclass
class SubMPResult:
    """Output of one ComputeSubMP step.

    ``sub_profile`` holds the exact matrix-profile value where known and
    NaN for the paper's ⊥ (non-valid, not recomputed) entries.
    """

    length: int
    sub_profile: FloatArray
    index: IntArray
    found_motif: bool
    best_distance: float
    best_pair: Optional[Tuple[int, int]]
    n_valid: int
    n_invalid: int
    n_recomputed: int
    # Diagnostics for Figures 9 and 14: per-profile pruning margin.
    min_dist: Optional[FloatArray] = field(repr=False, default=None)
    max_lb: Optional[FloatArray] = field(repr=False, default=None)

    @property
    def submp_size(self) -> int:
        """Number of exactly-known entries (Figure 14's |subMP|)."""
        return int(np.isfinite(self.sub_profile).sum())


def pairwise_entry_distances(
    qt: FloatArray,
    nb: IntArray,
    usable: BoolArray,
    in_range: BoolArray,
    sigma: FloatArray,
    length: int,
    rows: Optional[IntArray] = None,
) -> FloatArray:
    """Exact distances for every stored entry at ``length`` (vectorized Eq. 3).

    Shared by ComputeSubMP's validity test and the MAD-style discord
    driver (:mod:`repro.core.discords_variable`): each stored pair's
    co-moment, advanced to ``length``, yields that pair's exact
    z-normalized distance, which is an *upper bound* on the profile
    minimum of its row.  Unusable entries report ``+inf``.

    Row ``k`` of ``qt`` / ``nb`` belongs to profile ``rows[k]`` (default:
    profile ``k``), so a caller can pass a subset of the store's rows.
    """
    owners = np.arange(qt.shape[0]) if rows is None else rows
    sig_nb = sigma[np.where(in_range, nb, 0)]
    dist = distance_profile_from_qt(qt, length, sigma[owners][:, None], sig_nb)
    return np.where(usable, dist, np.inf)


def compute_submp(
    series: FloatArray,
    store: EntryStore,
    new_length: int,
    recompute_fraction: float = 0.5,
    context: Optional[SeriesContext] = None,
) -> SubMPResult:
    """Run one ComputeSubMP step, advancing ``store`` to ``new_length``.

    ``recompute_fraction`` is the paper's "less than half" threshold: the
    partial-recompute path (Algorithm 4 lines 27-38) only runs when the
    non-valid profiles are fewer than this fraction of all profiles; set
    it to 0 to disable the path (ablation).  ``context`` optionally reuses
    cached window statistics.
    """
    ctx = SeriesContext.ensure(series, context, min_length=4)
    t = ctx.series
    n = t.size
    n_dp = n - new_length + 1
    if n_dp < 2:
        raise InvalidParameterError(
            f"length {new_length} leaves fewer than two subsequences"
        )
    with obs.span("submp.advance"):
        store.advance_to(new_length, t, ctx.moving_mean_std(new_length - 1)[0])
    mu, sigma = ctx.moving_mean_std(new_length)
    zone = exclusion_zone_half_width(new_length)

    nb = store.neighbor[:n_dp]
    qt = store.qt[:n_dp]
    rows = np.arange(n_dp)[:, None]
    real = nb >= 0
    in_range = real & (nb <= n - new_length)
    usable = in_range & (np.abs(nb - rows) >= zone)
    if obs.enabled():
        # A "lookup" is one stored listDP slot consulted at this length;
        # a "hit" is a slot still usable (in range, outside the zone).
        slots = int(nb.size)
        hits = int(usable.sum())
        obs.add("listdp.lookups", slots)
        obs.add("listdp.hits", hits)
        obs.add("listdp.misses", slots - hits)

    dist = pairwise_entry_distances(qt, nb, usable, in_range, sigma, new_length)
    lb = np.asarray(
        lower_bound_from_base(store.lb_base[:n_dp], sigma[:n_dp][:, None]),
        dtype=np.float64,
    )
    # Empty slots keep lb_base = +inf -> lb = +inf, encoding "nothing
    # was left unstored for this profile".
    max_lb = lb.max(axis=1)
    min_dist = dist.min(axis=1)
    arg = np.argmin(dist, axis=1)
    ind = np.take_along_axis(nb, arg[:, None], axis=1).ravel()

    valid = min_dist < max_lb
    n_valid = int(valid.sum())
    if obs.enabled():
        # Fig. 9's pruning power is valid/total: the fraction of profiles
        # whose minimum the lower bounds certify without recomputation.
        obs.add("submp.profiles.total", n_dp)
        obs.add(f"submp.profiles.total.l{new_length}", n_dp)
        obs.add("submp.profiles.valid", n_valid)
        obs.add(f"submp.profiles.valid.l{new_length}", n_valid)
        obs.add("submp.profiles.invalid", n_dp - n_valid)
        obs.add(f"submp.profiles.invalid.l{new_length}", n_dp - n_valid)
    sub_profile = np.full(n_dp, np.nan, dtype=np.float64)
    index = np.full(n_dp, -1, dtype=np.int64)
    sub_profile[valid] = min_dist[valid]
    index[valid] = ind[valid]

    best_distance = np.inf
    best_pair: Optional[Tuple[int, int]] = None
    if valid.any():
        masked = np.where(valid, min_dist, np.inf)
        best_row = int(np.argmin(masked))
        if np.isfinite(masked[best_row]):
            best_distance = float(masked[best_row])
            best_pair = (best_row, int(ind[best_row]))

    invalid_rows = np.where(~valid)[0]
    min_lb_abs = float(max_lb[invalid_rows].min()) if invalid_rows.size else np.inf
    found = best_distance < min_lb_abs
    n_recomputed = 0

    # Refinement over the paper's pseudocode: Algorithm 4 gates the
    # partial path on the count of *all* non-valid profiles, but only the
    # non-valid profiles whose maxLB undercuts the best-so-far can hide a
    # better pair (line 29 skips the rest anyway) — so we gate on that
    # count.  Strictly fewer full recomputations, identical results.
    needing = (
        invalid_rows[max_lb[invalid_rows] < best_distance]
        if invalid_rows.size
        else invalid_rows
    )
    if not found and needing.size < recompute_fraction * n_dp:
        # Partial recompute (Algorithm 4, lines 27-38): visit non-valid
        # profiles in ascending maxLB order; stop as soon as the bound
        # proves no remaining profile can beat the best-so-far.  Rows are
        # scored a chunk at a time (see _chunk_comoments), and
        # the stop rule is replayed row by row inside each chunk, so only
        # the rows the one-at-a-time loop would visit are committed.
        order = needing[np.argsort(max_lb[needing])]
        chunk_comoments = _chunk_comoments(ctx, new_length, mu)
        start, chunk = 0, RECOMPUTE_FIRST_CHUNK
        with obs.span("submp.recompute"):
            while start < order.size and max_lb[order[start]] < best_distance:
                rows = order[start : start + chunk]
                ranked = rank_rows(
                    chunk_comoments(rows), rows, sigma, new_length, store.p
                )
                visited = 0
                for r, d, j in zip(rows.tolist(), ranked.profile, ranked.index.tolist()):
                    if max_lb[r] >= best_distance:
                        break
                    sub_profile[r] = d if np.isfinite(d) else np.nan
                    index[r] = j
                    if d < best_distance:
                        best_distance = float(d)
                        best_pair = (r, j)
                    visited += 1
                # Rebuild the visited profiles' listDP rows at the new base
                # length so later steps keep pruning (Algorithm 4, line 34).
                store.fill_rows(rows[:visited], ranked.head(visited), new_length)
                n_recomputed += visited
                start += visited
                if visited < rows.size:
                    break
                chunk = min(2 * chunk, RECOMPUTE_MAX_CHUNK)
        found = True

    if obs.enabled():
        obs.add("submp.profiles.recomputed", n_recomputed)
        obs.add(f"submp.profiles.recomputed.l{new_length}", n_recomputed)

    return SubMPResult(
        length=new_length,
        sub_profile=sub_profile,
        index=index,
        found_motif=found,
        best_distance=best_distance,
        best_pair=best_pair,
        n_valid=n_valid,
        n_invalid=int(invalid_rows.size),
        n_recomputed=n_recomputed,
        min_dist=min_dist,
        max_lb=max_lb,
    )
