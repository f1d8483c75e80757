"""Algorithms 5-6 — variable-length motif *sets* discovery (Section 5).

A motif set (Definition 2.6) extends a motif pair with every subsequence
within radius ``r = D * pair_distance`` of either member (``D`` is the
user's *radius factor*).  Algorithm 6 builds one set per top-K pair,
reusing the partial distance profiles snapshotted by Algorithm 5: when a
pair's partial profile has ``maxLB > r``, every subsequence within the
radius is guaranteed to be already stored (anything unstored is farther
than maxLB), so no recomputation is needed — this is where the 3-6 orders
of magnitude speedup of Figure 15 comes from.

The sets in the answer are pairwise disjoint (Problem 2): each
subsequence of each length is claimed by at most one set, and trivial
matches within a set are removed greedily by proximity to the seeds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.valmp import PairRecord, PartialProfile
from repro.distance.mass import mass
from repro.distance.profile import apply_exclusion_zone
from repro.distance.znorm import as_series
from repro.exceptions import InvalidParameterError
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.types import FloatArray, IntArray, MotifPair, MotifSet

__all__ = ["compute_motif_sets", "find_motif_sets"]


def _candidates_for_side(
    series: FloatArray,
    owner: int,
    length: int,
    radius: float,
    snapshot: Optional[PartialProfile],
) -> Tuple[IntArray, FloatArray, bool]:
    """Offsets/distances within ``radius`` of one pair member.

    Returns ``(offsets, distances, recomputed)``.  Uses the snapshotted
    partial profile when its maxLB certifies completeness (Algorithm 6,
    lines 6-7 and 13-14), otherwise recomputes the full distance profile
    (lines 8-11 and 15-18).
    """
    if snapshot is not None and snapshot.max_lb > radius:
        within = snapshot.distances < radius
        return snapshot.neighbors[within], snapshot.distances[within], False
    profile = mass(series, owner, length)
    apply_exclusion_zone(profile, owner, exclusion_zone_half_width(length))
    within = np.where(profile < radius)[0]
    return within, profile[within], True


def _greedy_non_trivial(
    members: Dict[int, float], zone: int, seeds: Iterable[int]
) -> List[int]:
    """Keep at most one member per exclusion-zone cluster.

    Seeds are always kept first; remaining candidates are admitted in
    ascending distance order if they don't trivially match anything
    already kept — the "subsequence proximity as a quality measure" rule
    of Section 5.
    """
    kept: List[int] = []

    def clashes(offset: int) -> bool:
        return any(abs(offset - other) < zone for other in kept)

    for seed in seeds:
        if not clashes(seed):
            kept.append(seed)
    for offset in sorted(members, key=lambda o: (members[o], o)):
        if not clashes(offset):
            kept.append(offset)
    return kept


def compute_motif_sets(
    series: FloatArray,
    pairs: List[PairRecord],
    radius_factor: float,
) -> List[MotifSet]:
    """Algorithm 6: extend each top-K pair into a disjoint motif set."""
    if radius_factor <= 0:
        raise InvalidParameterError(
            f"radius factor D must be positive, got {radius_factor}"
        )
    t = as_series(series)
    claimed: Set[Tuple[int, int]] = set()
    result: List[MotifSet] = []
    for record in sorted(pairs, key=lambda r: r.normalized_distance):
        length = record.length
        zone = exclusion_zone_half_width(length)
        radius = record.distance * radius_factor
        members: Dict[int, float] = {}
        for owner, snapshot in (
            (record.a, record.profile_a),
            (record.b, record.profile_b),
        ):
            offsets, dists, _ = _candidates_for_side(
                t, owner, length, radius, snapshot
            )
            for offset, dist in zip(offsets, dists):
                offset = int(offset)
                best = members.get(offset)
                if best is None or dist < best:
                    members[offset] = float(dist)
        members.setdefault(record.a, 0.0)
        members.setdefault(record.b, 0.0)
        # Enforce global disjointness before the trivial-match sweep.
        members = {
            o: d for o, d in members.items() if (o, length) not in claimed
        }
        kept = _greedy_non_trivial(
            members, zone, seeds=[s for s in (record.a, record.b) if s in members]
        )
        if len(kept) < 2:
            continue
        for offset in kept:
            claimed.add((offset, length))
        result.append(
            MotifSet(
                pair=record.as_motif_pair(),
                radius=radius,
                members=tuple(sorted(kept)),
            )
        )
    return result


def find_motif_sets(
    series: FloatArray,
    l_min: int,
    l_max: int,
    k: int = 10,
    radius_factor: float = 4.0,
    p: int = 50,
    n_jobs: Optional[int] = 1,
) -> List[MotifSet]:
    """End-to-end Problem 2 solver: VALMOD + Algorithms 5-6.

    Runs VALMOD over ``[l_min, l_max]`` tracking the best ``k`` pairs,
    then extends each into a motif set with radius ``radius_factor``
    times the pair distance.  Returns the sets best-pair-first.
    ``n_jobs`` is forwarded to VALMOD's matrix-profile passes.
    """
    from repro.core.valmod import Valmod

    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    result = Valmod(
        series, l_min, l_max, p=p, track_top_k=k, n_jobs=n_jobs
    ).run()
    return compute_motif_sets(series, result.best_k_pairs(), radius_factor)


def motif_set_summary(motif_set: MotifSet) -> str:
    """One-line human-readable rendering of a motif set."""
    pair: MotifPair = motif_set.pair
    return (
        f"length={motif_set.length} freq={motif_set.frequency} "
        f"seed=({pair.a},{pair.b}) dist={pair.distance:.4f} "
        f"norm={pair.normalized_distance:.4f} radius={motif_set.radius:.4f}"
    )
