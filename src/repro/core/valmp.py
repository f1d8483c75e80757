"""Algorithm 2 — the VALMP (variable-length matrix profile) structure.

VALMP is VALMOD's output: for every position of the series it stores the
best *length-normalized* match found over all processed lengths — the
raw distance, the normalized distance, the matching length, and the
neighbor offset.  Updating is a vectorized "keep the smaller normalized
distance" merge (Algorithm 2).

:class:`VALMP` also implements the bookkeeping of Algorithm 5
(``updateVALMPForMotifSets``): a bounded best-K heap of the subsequence
pairs that entered the structure, each remembered together with a
snapshot of its partial distance profiles so that Algorithm 6 can build
motif sets without recomputing (see :mod:`repro.core.motif_sets`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError, NotComputedError
from repro.types import BoolArray, FloatArray, IntArray, MotifPair

__all__ = ["VALMP", "PairRecord", "PartialProfile"]


@dataclass(frozen=True)
class PartialProfile:
    """Snapshot of one partial distance profile (p entries) at one length.

    ``neighbors`` are candidate offsets, ``distances`` their exact
    distances to the owner at ``length``, and ``max_lb`` the largest
    lower bound among the stored entries: any candidate *not* listed is
    guaranteed to be farther than ``max_lb``.
    """

    owner: int
    length: int
    neighbors: IntArray
    distances: FloatArray
    max_lb: float


@dataclass(order=True)
class PairRecord:
    """One candidate motif pair in the best-K heap (Algorithm 5)."""

    sort_key: float
    normalized_distance: float = field(compare=False)
    distance: float = field(compare=False)
    length: int = field(compare=False)
    a: int = field(compare=False)
    b: int = field(compare=False)
    profile_a: Optional[PartialProfile] = field(compare=False, default=None)
    profile_b: Optional[PartialProfile] = field(compare=False, default=None)

    def as_motif_pair(self) -> MotifPair:
        return MotifPair.build(self.a, self.b, self.length, self.distance)


class VALMP:
    """The variable-length matrix profile of Algorithm 2.

    Parameters
    ----------
    n_profiles:
        Number of positions, ``|T| - l_min + 1``.
    track_top_k:
        When positive, maintain the best-K pair heap of Algorithm 5.
    """

    def __init__(self, n_profiles: int, track_top_k: int = 0) -> None:
        if n_profiles <= 0:
            raise InvalidParameterError(
                f"VALMP needs at least one profile, got {n_profiles}"
            )
        if track_top_k < 0:
            raise InvalidParameterError(f"track_top_k must be >= 0, got {track_top_k}")
        self.n_profiles = n_profiles
        self.distances = np.full(n_profiles, np.inf, dtype=np.float64)
        self.norm_distances = np.full(n_profiles, np.inf, dtype=np.float64)
        self.lengths = np.zeros(n_profiles, dtype=np.int64)
        self.indices = np.full(n_profiles, -1, dtype=np.int64)
        self.updated = np.zeros(n_profiles, dtype=bool)
        self._track_top_k = track_top_k
        # Max-heap by normalized distance, kept at size <= K: Python's
        # heapq is a min-heap, so sort_key is the negated distance.
        self._heap: List[PairRecord] = []
        # Canonical (min(a,b), max(a,b), length) keys currently in the
        # heap, so the symmetric record (b, a) never duplicates (a, b).
        self._heap_keys: set = set()

    @property
    def track_top_k(self) -> int:
        return self._track_top_k

    def update(
        self,
        profile: FloatArray,
        index: IntArray,
        length: int,
    ) -> BoolArray:
        """Merge one per-length profile into VALMP (Algorithm 2).

        ``profile`` may contain NaN for the ⊥ entries of a partial subMP;
        those positions are skipped.  Returns the boolean mask of improved
        positions (used by Algorithm 5's pair collection).
        """
        values = np.asarray(profile, dtype=np.float64)
        idx = np.asarray(index, dtype=np.int64)
        if values.size > self.n_profiles:
            raise InvalidParameterError(
                f"profile of size {values.size} exceeds VALMP size {self.n_profiles}"
            )
        norm = values * math.sqrt(1.0 / length)
        known = np.isfinite(norm) & (idx >= 0)
        head_norm = self.norm_distances[: values.size]
        improved = known & (norm < head_norm)
        positions = np.where(improved)[0]
        self.distances[positions] = values[positions]
        self.norm_distances[positions] = norm[positions]
        self.lengths[positions] = length
        self.indices[positions] = idx[positions]
        self.updated[positions] = True
        return improved

    def record_pairs(
        self,
        improved: BoolArray,
        length: int,
        snapshot,
    ) -> None:
        """Algorithm 5: push improved pairs into the best-K heap.

        ``snapshot`` is a callable ``(offset, length) -> PartialProfile``
        evaluated lazily, only for pairs that actually enter the heap.
        """
        if self._track_top_k == 0:
            return
        for i in np.where(improved)[0]:
            i = int(i)
            b = int(self.indices[i])
            key = (min(i, b), max(i, b), length)
            if key in self._heap_keys:
                continue
            record = PairRecord(
                sort_key=-self.norm_distances[i],
                normalized_distance=float(self.norm_distances[i]),
                distance=float(self.distances[i]),
                length=length,
                a=i,
                b=b,
            )
            if len(self._heap) < self._track_top_k:
                record.profile_a = snapshot(record.a, length)
                record.profile_b = snapshot(record.b, length)
                heapq.heappush(self._heap, record)
                self._heap_keys.add(key)
            elif record.normalized_distance < self._heap[0].normalized_distance:
                record.profile_a = snapshot(record.a, length)
                record.profile_b = snapshot(record.b, length)
                evicted = heapq.heapreplace(self._heap, record)
                self._heap_keys.discard(
                    (min(evicted.a, evicted.b), max(evicted.a, evicted.b), evicted.length)
                )
                self._heap_keys.add(key)

    def best_k_pairs(self) -> List[PairRecord]:
        """The tracked pairs, best (smallest normalized distance) first."""
        return sorted(self._heap, key=lambda r: r.normalized_distance)

    def motif_pair(self) -> MotifPair:
        """The single best variable-length motif pair in the structure."""
        if not self.updated.any():
            raise NotComputedError("VALMP has not been updated yet")
        i = int(np.argmin(self.norm_distances))
        return MotifPair.build(
            i, int(self.indices[i]), int(self.lengths[i]), float(self.distances[i])
        )

    def as_arrays(self) -> Tuple[FloatArray, FloatArray, IntArray, IntArray]:
        """(distances, norm_distances, lengths, indices) views."""
        return self.distances, self.norm_distances, self.lengths, self.indices
