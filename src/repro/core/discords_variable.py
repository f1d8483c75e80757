"""MAD-style exact variable-length discord discovery with LB pruning.

"Matrix Profile Goes MAD" (Linardi et al., PAPERS.md) extends VALMOD's
lower-bound machinery from motifs (profile *minima*) to discords
(profile *maxima*).  The full-profile driver in
:mod:`repro.core.discords` pays one O(n^2) matrix profile per length;
this module pays that price only for lengths that can still matter.

How the bound flips sides
-------------------------
The listDP store keeps, per position ``j``, the ``p`` candidates with
the smallest Eq. 2 lower bound, each with its dot product maintained in
O(1) per length increment.  At any later length ``l``:

* every stored pair's *exact* distance is an upper bound on the profile
  value ``MP_l[j]`` (the minimum over all candidates can only be
  smaller), so ``ub[j] = min over stored entries`` bounds the row from
  above;
* the largest lower bound among stored entries bounds every *unstored*
  candidate from below (rank preservation, Section 4.2), closing the
  interval ``[min(minDist, maxLB), minDist]`` that contains ``MP_l[j]``.

A discord is a profile maximum, so a whole length ``l`` is irrelevant
once the largest length-normalized upper bound over its positions,
``U_l = max_j ub[j] / sqrt(l)``, falls strictly below the running k-th
discord threshold: no position of that length can enter the top-k, and
the full profile need never be computed.  Only lengths whose interval
overlaps the threshold are recomputed exactly — with the same
registered engine the full-profile driver would use, so the values (and
therefore the returned discords) are bitwise identical.

Exactness argument
------------------
The ascending sweep prunes against the *running* threshold, which can
later drop (a strong discord can overlap and evict previously selected
ones, shrinking the selection).  A final certification loop therefore
re-checks every pruned length against the *final* threshold and
recomputes any length whose bound reaches it, until a fixpoint: every
still-pruned length has ``U_l`` strictly below the k-th selected
discord's normalized distance and the selection holds ``k`` entries.
At that point the greedy selection (stable sort, best first) consumes
the pruned lengths' candidates — all strictly weaker than the k-th
selection — only after it is already full, so dropping them cannot
change the output (see ``docs/DISCORDS.md`` for the full argument).

Observability: per length, exactly one of
``discords.profiles.pruned`` / ``discords.profiles.recomputed`` is
incremented, so their sum equals ``discords.lengths.swept`` — the
accounting identity behind the Fig.-9-style discord pruning power
``pruned / swept``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.compute_mp import compute_matrix_profile
from repro.core.compute_submp import nearest_entries
from repro.core.discords import (
    Discord,
    per_length_candidates,
    scan_lengths,
    select_top_k,
)
from repro.core.valmod import DEFAULT_P
from repro.distance.znorm import as_series
from repro.kernels.context import SeriesContext
from repro.matrixprofile.registry import DEFAULT_ENGINE, compute_with
from repro.types import FloatArray, IntArray

__all__ = ["find_discords_pruned", "length_upper_bound", "UB_RELATIVE_SLACK"]

#: relative safety margin on the pruning comparison.  The stored
#: co-moments accumulate one rounding error per length increment, so the
#: upper bound carries float noise the engine profiles do not; inflating
#: it before the strict comparison keeps a noisy bound from pruning a
#: length whose true maximum ties the threshold.  Pruning less is always
#: exact — this margin only ever converts a prune into a recompute.
UB_RELATIVE_SLACK = 1e-9


def length_upper_bound(
    store_neighbor: IntArray,
    store_qt: FloatArray,
    ctx: SeriesContext,
    length: int,
) -> float:
    """``U_l``: largest normalized per-position upper bound at ``length``.

    ``+inf`` when any surviving position has no usable stored entry
    (nothing bounds its profile value, so the length cannot be pruned).
    Each position's bound is its nearest stored entry, found in rank
    space by :func:`repro.core.compute_submp.nearest_entries`, the same
    lookup Algorithm 4 uses for ``minDist``.
    Public because the streaming driver
    (:class:`repro.matrixprofile.streaming_valmod.StreamingValmod`)
    seeds its maintained per-length bounds from the same listDP store.
    """
    _, sigma = ctx.moving_mean_std(length)
    min_dist, _ = nearest_entries(
        store_neighbor, store_qt, sigma, length, ctx.series.size
    )
    return float(min_dist.max()) / math.sqrt(length)


def find_discords_pruned(
    series: FloatArray,
    l_min: int,
    l_max: int,
    k: int = 3,
    engine: str = DEFAULT_ENGINE,
    n_jobs: Optional[int] = 1,
    lengths: Optional[Sequence[int]] = None,
    context: Optional[SeriesContext] = None,
    p: int = DEFAULT_P,
) -> List[Discord]:
    """Top-k variable-length discords via exact lower-bound pruning.

    Bitwise-identical to :func:`repro.core.discords.find_discords` with
    the same arguments (the per-length profiles that *are* evaluated
    come from the same registered ``engine``), but full profiles are
    computed only for lengths the Eq. 2 bounds cannot rule out.  ``p``
    is the listDP width used for the bounds (the paper's Table 2
    default); it affects how much is pruned, never the result.  The one
    extra cost over a pruned length range is a single Algorithm 3 pass
    at the smallest scanned length to build the bound store.

    ``lengths`` restricts the scan to a subset of ``[l_min, l_max]``;
    intermediate lengths are still traversed by the O(n p) dot-product
    advance, but no profile is evaluated for them and they do not count
    toward the pruning statistics.
    """
    t = as_series(series, min_length=8)
    scan = scan_lengths(l_min, l_max, k, lengths)
    ctx = SeriesContext.ensure(t, context, min_length=8)

    def candidates_at(length: int) -> List[Discord]:
        with obs.span("discords.profile"):
            mp = compute_with(engine, t, length, context=ctx)
        return per_length_candidates(mp.profile, length, k)

    computed = {scan[0]: candidates_at(scan[0])}
    pruned: Dict[int, float] = {}
    selection = _selection(computed, k)
    for length, upper, _ in _bound_pass(t, ctx, scan, p, n_jobs):
        # Until the selection holds k entries, *any* candidate could
        # still enter it, so nothing may be pruned.
        threshold = (
            selection[k - 1].normalized_distance if len(selection) == k else -math.inf
        )
        upper *= 1.0 + UB_RELATIVE_SLACK
        if upper < threshold:
            pruned[length] = upper
            continue
        computed[length] = candidates_at(length)
        selection = _selection(computed, k)
    return _certify(computed, pruned, candidates_at, k)


def _bound_pass(
    t: FloatArray,
    ctx: SeriesContext,
    scan: Sequence[int],
    p: int,
    n_jobs: Optional[int],
) -> Iterator[Tuple[int, float, IntArray]]:
    """Yield ``(length, U_l, store.neighbor)`` for the scanned lengths > ``scan[0]``.

    One Algorithm 3 pass at ``scan[0]`` builds the listDP store; every
    later length up to ``scan[-1]`` is reached by the O(n p) dot-product
    advance, and only scanned lengths are bounded.  Lazy, so the sweep
    interleaves the advance with its profile computations.
    """
    if len(scan) < 2:
        return
    with obs.span("discords.listdp"):
        _, store = compute_matrix_profile(t, scan[0], p, n_jobs=n_jobs, context=ctx)
    scan_set = frozenset(scan)
    for length in range(scan[0] + 1, scan[-1] + 1):
        with obs.span("discords.advance"):
            store.advance_to(length, t, ctx.moving_mean_std(length - 1)[0])
        if length in scan_set:
            upper = length_upper_bound(store.neighbor, store.qt, ctx, length)
            yield length, upper, store.neighbor


def _certify(
    computed: Dict[int, List[Discord]],
    pruned: Dict[int, float],
    candidates_at: Callable[[int], List[Discord]],
    k: int,
) -> List[Discord]:
    """Certification fixpoint over the ``pruned`` lengths, then count once.

    ``computed`` maps the lengths already evaluated to their candidates;
    ``pruned`` maps the others to their ``U_l``, already inflated by the
    caller's slack.  Re-validates every pruned length against the
    current threshold and recomputes all violators at once, until the
    fixpoint described in the module docstring.  Both dicts are updated
    in place.
    """
    while pruned:
        selection = _selection(computed, k)
        if len(selection) == k:
            threshold = selection[k - 1].normalized_distance
            violating = sorted(
                length for length, upper in pruned.items() if upper >= threshold
            )
        else:
            violating = sorted(pruned)
        if not violating:
            break
        for length in violating:
            computed[length] = candidates_at(length)
            del pruned[length]

    if obs.enabled():
        obs.add("discords.lengths.swept", len(computed) + len(pruned))
        obs.add("discords.profiles.recomputed", len(computed))
        obs.add("discords.profiles.pruned", len(pruned))
        for length in computed:
            obs.add(f"discords.profiles.recomputed.l{length}")
        for length in pruned:
            obs.add(f"discords.profiles.pruned.l{length}")

    return _selection(computed, k)


def _selection(computed: Dict[int, List[Discord]], k: int) -> List[Discord]:
    pool = [c for length in sorted(computed) for c in computed[length]]
    return select_top_k(pool, k)
