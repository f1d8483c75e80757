"""Variable-length discord discovery — the paper's stated extension.

Section 8 of the paper names discords (the most *anomalous*
subsequences, i.e. the matrix-profile maxima) as the application that an
all-lengths matrix profile unlocks.  A discord of the wrong length is as
misleading as a motif of the wrong length: a 2-second glitch scanned
with a 10-second window dilutes into normality.

:func:`find_discords` scans every length in a range, length-normalizes
the profile values (the same ``sqrt(1/l)`` scale that makes motifs
comparable makes discords comparable), and returns the top-k
non-overlapping discords across all lengths.

Exactness note: two exact drivers share the candidate-extraction and
cross-length selection helpers of this module.  :func:`find_discords`
is the reference path — one *full* matrix profile per length (VALMOD's
partial subMP intentionally leaves non-valid positions unknown, which
is fine for minima but not maxima, so the full profile is unavoidable
for the lengths that are actually evaluated).
:func:`~repro.core.discords_variable.find_discords_pruned` is the
MAD-style path: it evaluates the full profile only at lengths the
lower-bound machinery cannot certify as irrelevant, and returns a
bitwise-identical discord list.  The full-profile driver remains the
right choice for single lengths, tiny ranges, and as the differential
oracle the pruned driver is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.distance.znorm import as_series
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.matrixprofile.registry import DEFAULT_ENGINE, compute_with
from repro.types import FloatArray, length_normalized

__all__ = [
    "Discord",
    "find_discords",
    "per_length_candidates",
    "scan_lengths",
    "select_top_k",
]


@dataclass(frozen=True, order=True)
class Discord:
    """One anomalous subsequence, ranked by normalized NN distance."""

    normalized_distance: float
    distance: float = field(compare=False)
    length: int = field(compare=False)
    start: int = field(compare=False)

    @property
    def end(self) -> int:
        return self.start + self.length


def per_length_candidates(
    profile: FloatArray, length: int, k: int
) -> List[Discord]:
    """Up to ``k`` non-overlapping per-length maxima of one profile.

    The per-length half of discord discovery, shared verbatim by the
    full-profile and the lower-bound-pruned drivers so that, given
    bitwise-identical profiles, they extract bitwise-identical
    candidates.  Cross-length competition happens in
    :func:`select_top_k`.
    """
    finite = np.isfinite(profile)
    order = np.argsort(profile)[::-1]
    zone = exclusion_zone_half_width(length)
    candidates: List[Discord] = []
    taken: List[int] = []
    for pos in order:
        pos = int(pos)
        if not finite[pos]:
            continue
        if any(abs(pos - other) < zone for other in taken):
            continue
        candidates.append(
            Discord(
                normalized_distance=length_normalized(
                    float(profile[pos]), length
                ),
                distance=float(profile[pos]),
                length=length,
                start=pos,
            )
        )
        taken.append(pos)
        if len(taken) >= k:
            break
    return candidates


def select_top_k(candidates: Sequence[Discord], k: int) -> List[Discord]:
    """Greedy cross-length selection: best-first, non-overlapping.

    Candidates are stable-sorted by normalized distance (descending), so
    equal-distance discords keep their pool order — ties break
    deterministically toward the shorter length, then the earlier
    per-length rank, because both drivers build the pool in ascending
    length order.  The exclusion zone of the *longer* window applies
    between a candidate and every already-chosen discord.
    """
    result: List[Discord] = []
    for candidate in sorted(candidates, reverse=True):
        zone = exclusion_zone_half_width(candidate.length)
        if any(
            abs(candidate.start - chosen.start)
            < max(zone, exclusion_zone_half_width(chosen.length))
            for chosen in result
        ):
            continue
        result.append(candidate)
        if len(result) >= k:
            break
    return result


def scan_lengths(
    l_min: int, l_max: int, k: int, lengths: Optional[Sequence[int]]
) -> List[int]:
    """The ascending lengths a discord search scans, after checking its
    arguments: every length of ``[l_min, l_max]``, or the distinct
    ``lengths`` inside it.  Shared by both drivers."""
    if l_min > l_max:
        raise InvalidParameterError(f"l_min ({l_min}) must not exceed l_max ({l_max})")
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    if lengths is None:
        return list(range(l_min, l_max + 1))
    scan = sorted({int(length) for length in lengths})
    if not scan:
        raise InvalidParameterError("lengths must be non-empty when given")
    for length in scan:
        if not l_min <= length <= l_max:
            raise InvalidParameterError(
                f"discord length {length} outside [{l_min}, {l_max}]"
            )
    return scan


def find_discords(
    series: FloatArray,
    l_min: int,
    l_max: int,
    k: int = 3,
    engine: str = DEFAULT_ENGINE,
    lengths: Optional[Sequence[int]] = None,
    context: Optional[SeriesContext] = None,
) -> List[Discord]:
    """Top-k variable-length discords, best (most anomalous) first.

    A discord's score is its length-normalized nearest-neighbor
    distance; discords of different lengths compete on that common
    scale, and returned discords are mutually non-overlapping (the
    exclusion zone of the *longer* window applies).  ``engine`` picks a
    registered matrix-profile engine by name.  ``lengths`` restricts the scan to an
    explicit subset of ``[l_min, l_max]`` (the full range is exact but
    costs one matrix profile per length); ``context`` reuses an existing
    per-series stats/FFT cache — results are bitwise identical with or
    without one.

    This driver evaluates the full matrix profile at *every* scanned
    length.  For wide ranges prefer
    :func:`repro.core.discords_variable.find_discords_pruned`, which
    returns the identical list while skipping the lengths the Eq. 2
    lower bounds certify as unable to reach the top-k.
    """
    t = as_series(series, min_length=8)
    scan = scan_lengths(l_min, l_max, k, lengths)
    ctx = SeriesContext.ensure(t, context, min_length=8)

    candidates: List[Discord] = []
    for length in scan:
        mp = compute_with(engine, t, length, context=ctx)
        candidates.extend(per_length_candidates(mp.profile, length, k))
    return select_top_k(candidates, k)
