"""Length-normalized motif and discord ranking (Section 3).

The paper's key usability point: once motifs of several lengths are
discovered, they must be *ranked* on a common scale.  The correct scale
is the ``sqrt(1/l)``-normalized Euclidean distance (Figure 2 shows both
the raw distance and the ``1/l`` normalization are biased).  These
helpers turn per-length motif pairs into cross-length rankings.

The same scale makes *discords* comparable across lengths — motifs are
the profile minima and discords the maxima of one normalized axis — so
this module also hosts the unified motif+discord ranking: each family is
ranked internally on the normalized scale, then the two are interleaved
by per-family rank (best motif, best discord, second motif, ...).
Interleaving, rather than merging on raw score, is deliberate: "most
similar" and "most anomalous" sit at opposite ends of the axis, so no
total order between a motif's score and a discord's score is meaningful,
while per-family rank is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.discords import Discord
from repro.exceptions import InvalidParameterError
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.types import MotifPair

__all__ = [
    "rank_motif_pairs",
    "top_motifs_across_lengths",
    "deduplicate_pairs",
    "RankedEvent",
    "unified_ranking",
]


def rank_motif_pairs(pairs: Iterable[MotifPair]) -> List[MotifPair]:
    """Sort motif pairs by length-normalized distance, best first."""
    return sorted(pairs)


def deduplicate_pairs(
    pairs: Iterable[MotifPair], min_length_gap: int = 0
) -> List[MotifPair]:
    """Drop pairs that are length-shifted duplicates of a better pair.

    Adjacent lengths usually rediscover the same underlying motif at
    slightly shifted offsets; for presentation we keep only the best
    representative of each (a, b) neighborhood.  Two pairs are considered
    duplicates when both offsets fall within each other's exclusion zones
    and their lengths differ by at most ``min_length_gap`` (0 means any
    length difference collapses into one representative).
    """
    if min_length_gap < 0:
        raise InvalidParameterError(
            f"min_length_gap must be >= 0, got {min_length_gap}"
        )
    kept: List[MotifPair] = []
    for pair in rank_motif_pairs(pairs):
        zone = exclusion_zone_half_width(pair.length)
        duplicate = False
        for other in kept:
            if min_length_gap and abs(other.length - pair.length) > min_length_gap:
                continue
            same_a = abs(other.a - pair.a) < zone
            same_b = abs(other.b - pair.b) < zone
            crossed = abs(other.a - pair.b) < zone and abs(other.b - pair.a) < zone
            if (same_a and same_b) or crossed:
                duplicate = True
                break
        if not duplicate:
            kept.append(pair)
    return kept


def top_motifs_across_lengths(
    motif_pairs: Dict[int, MotifPair], k: int, deduplicate: bool = True
) -> List[MotifPair]:
    """The k best motifs over all lengths, normalized-distance ranked.

    ``motif_pairs`` maps length -> motif pair (a VALMOD result's
    ``motif_pairs`` attribute).  With ``deduplicate`` the ranking
    collapses length-shifted rediscoveries of the same motif.
    """
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    ranked = rank_motif_pairs(motif_pairs.values())
    if deduplicate:
        ranked = deduplicate_pairs(ranked)
    return ranked[:k]


@dataclass(frozen=True)
class RankedEvent:
    """One entry of the unified motif+discord ranking.

    ``kind`` is ``"motif"`` or ``"discord"``; ``rank`` is the 1-based
    position within that family; ``normalized_distance`` is the shared
    ``sqrt(1/l)``-corrected score (small = similar for motifs, large =
    anomalous for discords); ``starts`` holds the motif pair's two
    offsets or the discord's single offset.
    """

    kind: str
    rank: int
    normalized_distance: float
    length: int
    starts: Tuple[int, ...]


def unified_ranking(
    motif_pairs: Iterable[MotifPair],
    discords: Sequence[Discord],
    k: Optional[int] = None,
    deduplicate: bool = True,
) -> List[RankedEvent]:
    """Interleave the motif and discord rankings into one event list.

    Motifs are ranked ascending and discords descending by normalized
    distance (each family's natural "best first"), then interleaved by
    rank: best motif, best discord, second-best motif, and so on, with
    the longer family's tail appended once the shorter runs out.  The
    interleave is deterministic because each family's internal order is
    (stable sort on the normalized scale — see the module docstring for
    why rank, not raw score, is the cross-family key).  ``k`` truncates
    the combined list; ``None`` returns every event.
    """
    if k is not None and k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    motifs = rank_motif_pairs(motif_pairs)
    if deduplicate:
        motifs = deduplicate_pairs(motifs)
    anomalies = sorted(discords, reverse=True)
    events: List[RankedEvent] = []
    for i in range(max(len(motifs), len(anomalies))):
        if i < len(motifs):
            pair = motifs[i]
            events.append(
                RankedEvent(
                    kind="motif",
                    rank=i + 1,
                    normalized_distance=pair.normalized_distance,
                    length=pair.length,
                    starts=(pair.a, pair.b),
                )
            )
        if i < len(anomalies):
            discord = anomalies[i]
            events.append(
                RankedEvent(
                    kind="discord",
                    rank=i + 1,
                    normalized_distance=discord.normalized_distance,
                    length=discord.length,
                    starts=(discord.start,),
                )
            )
    return events if k is None else events[:k]
