"""Algorithm 4 — ComputeSubMP: the matrix profile for subsequent lengths.

Given the ``listDP`` store built at a smaller length, this routine tries
to find the motif pair of the new length from the ``p`` stored entries
per distance profile (O(n p) work), instead of the full O(n^2) matrix
profile.  Eq. 3 and Eq. 2 run once per profile, not once per entry: the
entries are ranked by ``C / sigma_j`` and only each row's nearest is
scored (:func:`nearest_entries`), and ``maxLB`` divides the row's
stored bound ``max_lb_base`` by ``sigma_i`` (``docs/ALGORITHMS.md`` §3).

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
they are few; else the caller falls back to Algorithm 3.  The recompute
takes its co-moment rows a chunk at a time from
:func:`repro.distance.comoment.window_comoments`, the producer Algorithm
3 also draws its short windows from.  At short windows its centred
windows, co-moment chunks and rank blocks live in the context's
workspace (:class:`~repro.kernels.context.Workspace`), which a
``Valmod`` run holds open, so they are reused from one length to the
next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.types import BoolArray, FloatArray, IntArray

from repro.core.entries import EntryStore, rank_rows
from repro.core.lower_bound import lower_bound_from_base
from repro.distance.comoment import distance_profile_from_qt, window_comoments
from repro.distance.sliding import DIRECT_DOT_MAX
from repro.distance.znorm import CONSTANT_EPS
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext
from repro.matrixprofile.exclusion import exclusion_zone_half_width

__all__ = [
    "SubMPResult",
    "compute_submp",
    "nearest_entries",
    "pairwise_entry_distances",
]

#: rows in the partial recompute's first chunk: a step whose stop rule
#: fires after a few rows scores at most this many.
RECOMPUTE_FIRST_CHUNK = 8
#: cap on a recompute chunk as chunks double: a chunk's temporaries (its
#: co-moments, ranking block and FFT spectra) are a few 32-row arrays of
#: about n doubles each, whatever the window length.
RECOMPUTE_MAX_CHUNK = 32


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


def nearest_entries(
    neighbor: IntArray,
    qt: FloatArray,
    sigma: FloatArray,
    length: int,
    n: int,
) -> Tuple[FloatArray, IntArray]:
    """Each profile's nearest usable stored entry at ``length``.

    Algorithm 4's ``minDist``, shared by :func:`compute_submp` and the
    discord bound (:func:`repro.core.discords_variable.length_upper_bound`).
    ``neighbor`` / ``qt`` are a store's ``(rows, p)`` arrays advanced to
    ``length``, ``sigma`` that length's window deviations and ``n`` the
    series size.  Returns, for each of the ``n - length + 1`` profiles,
    the exact distance of its nearest usable entry (in range, outside the
    exclusion zone) and that entry's offset; +inf and -1 when it has none.

    The minimum of Eq. 3 over all stored entries, the first slot winning
    a tie, without evaluating Eq. 3 on them: entries are ranked by ``C /
    sigma_j``, which is the correlation times the row's positive ``l
    sigma_i``, one ``argmax`` per row picks the nearest, and Eq. 3 runs
    on that entry alone (rounding can reorder entries whose correlations
    agree to the last bits).  Constant windows have no correlation:
    every live neighbour of a constant owner is ``sqrt(l)`` away (its
    first one is picked), and each row's first constant neighbour is
    folded in afterwards.
    """
    n_dp = n - length + 1
    nb = neighbor[:n_dp]
    c = qt[:n_dp]
    rows = np.arange(n_dp)
    live = sigma[:n_dp] >= CONSTANT_EPS
    # 1 / sigma_j padded with zeros: the -1 of an empty slot, a neighbour
    # past n - length and a constant window all read 0.
    inv_sigma = np.zeros(n + 1, dtype=np.float64)
    np.divide(1.0, sigma[:n_dp], out=inv_sigma[:n_dp], where=live)
    rank = np.take(inv_sigma, nb)
    zone = exclusion_zone_half_width(length)
    outside = (nb <= (rows - zone)[:, None]) | (nb >= (rows + zone)[:, None])
    ranked = outside & (rank > 0.0)
    rank *= c
    has_constant = not live.all()
    if has_constant:
        rank[~live] = 0.0
    rank[~ranked] = -np.inf
    slot = rank.argmax(axis=1)
    min_dist = _slot_distances(c, nb, ranked, rows, slot, sigma, length)
    if has_constant:
        is_constant = np.zeros(n + 1, dtype=bool)
        is_constant[:n_dp] = ~live
        constant = outside & is_constant[nb]
        first = constant.argmax(axis=1)
        const_dist = _slot_distances(c, nb, constant, rows, first, sigma, length)
        closer = (const_dist < min_dist) | ((const_dist == min_dist) & (first < slot))
        min_dist[closer] = const_dist[closer]
        slot[closer] = first[closer]
    index = np.where(np.isfinite(min_dist), nb[rows, slot], -1)
    return min_dist, index


def _slot_distances(
    c: FloatArray,
    nb: IntArray,
    usable: BoolArray,
    rows: IntArray,
    slot: IntArray,
    sigma: FloatArray,
    length: int,
) -> FloatArray:
    """Eq. 3 on the entry in column ``slot[r]`` of each row ``r``."""
    pick = (rows, slot)
    column = usable[pick][:, None]
    return pairwise_entry_distances(
        c[pick][:, None], nb[pick][:, None], column, column, sigma, length
    )[:, 0]


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

    if obs.enabled():
        # A "lookup" is one stored listDP slot consulted at this length;
        # a "hit" is a slot still usable (in range, outside the zone).
        nb = store.neighbor[:n_dp]
        in_range = (nb >= 0) & (nb <= n - new_length)
        zone = exclusion_zone_half_width(new_length)
        usable = in_range & (np.abs(nb - np.arange(n_dp)[:, None]) >= zone)
        slots = int(nb.size)
        hits = int(usable.sum())
        obs.add("listdp.lookups", slots)
        obs.add("listdp.hits", hits)
        obs.add("listdp.misses", slots - hits)

    min_dist, ind = nearest_entries(store.neighbor, store.qt, sigma, new_length, n)
    # maxLB = max_lb_base[i] / sigma_i: dividing by one positive sigma_i
    # keeps the order under rounding, so this is the largest of the
    # per-entry bounds bit for bit.  A row with an empty slot stores +inf
    # -> maxLB = +inf, encoding "nothing was left unstored".
    max_lb = np.asarray(
        lower_bound_from_base(store.max_lb_base[:n_dp], sigma[:n_dp]),
        dtype=np.float64,
    )

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
        # scored a chunk at a time (window_comoments), and
        # the stop rule is replayed row by row inside each chunk, so only
        # the rows the one-at-a-time loop would visit are committed.
        order = needing[np.argsort(max_lb[needing])]
        space = ctx.workspace()
        # Long windows' rows come fresh from the FFT; ranking them in a
        # held block too would only add its pages to the run's peak
        # memory (EXPERIMENTS.md, "Fresh pages in Algorithms 3 and 4").
        rank_space = space if new_length <= DIRECT_DOT_MAX else None
        if rank_space is not None:
            # The chunks double up to RECOMPUTE_MAX_CHUNK rows: size their
            # blocks for the largest once, so no chunk maps new pages.
            space.reserve("comoments", RECOMPUTE_MAX_CHUNK * n_dp)
            space.reserve("rank", RECOMPUTE_MAX_CHUNK * n_dp)
        chunk_comoments = window_comoments(ctx, new_length, mu, space)
        start, chunk = 0, RECOMPUTE_FIRST_CHUNK
        with obs.span("submp.recompute"):
            while start < order.size and max_lb[order[start]] < best_distance:
                rows = order[start : start + chunk]
                ranked = rank_rows(
                    chunk_comoments(rows), rows, sigma, new_length, store.p, rank_space
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
                store.fill_rows(rows[:visited], ranked.head(visited))
                n_recomputed += visited
                start += visited
                if visited < rows.size:
                    break
                chunk = min(2 * chunk, RECOMPUTE_MAX_CHUNK)
        found = True

    if obs.enabled():
        obs.add("submp.profiles.recomputed", n_recomputed)
        obs.add(f"submp.profiles.recomputed.l{new_length}", n_recomputed)
        obs.add("submp.recompute.cells", n_recomputed * n_dp)

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
