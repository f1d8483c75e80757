"""Pan matrix profile: the complete profile of *every* length in a range.

Section 8 of the paper: "We also plan to extend VALMOD in order to
efficiently compute a complete matrix profile for each length in the
input range.  This would enable us to support more diverse applications,
such as discovery of shapelets and discords."  This module implements
that extension.

Representation: an ``(n_lengths, n_positions)`` matrix of z-normalized
nearest-neighbor distances (+inf where a window does not exist), plus
the matching neighbor-index matrix.  Construction strategies:

* ``exact``   — one STOMP run per length (the exhaustive baseline).
* ``valmod``  — VALMOD-assisted: reuse Algorithm 4's partial results for
  the rows it certifies (the *valid* profiles, typically the vast
  majority), and repair only the non-valid rows with MASS.  Exact
  output, often much cheaper — quantified by
  ``benchmarks/bench_pan_profile.py``.

Queries: per-length motif pairs, the VALMP (min over lengths of the
normalized columns), variable-length discords, and growth curves of a
position's NN distance across lengths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.compute_mp import compute_matrix_profile
from repro.core.compute_submp import compute_submp
from repro.core.discords import Discord
from repro.distance.mass import mass_with_stats
from repro.distance.profile import apply_exclusion_zone
from repro.distance.znorm import as_series
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.matrixprofile.index import MatrixProfile
from repro.matrixprofile.stomp import stomp
from repro.types import FloatArray, IntArray, MotifPair

__all__ = ["PanMatrixProfile", "compute_pan_matrix_profile"]


@dataclass
class PanMatrixProfile:
    """All-lengths matrix profile over ``[l_min, l_max]``."""

    l_min: int
    l_max: int
    distances: FloatArray  # (n_lengths, n_positions), +inf = undefined
    indices: IntArray    # (n_lengths, n_positions), -1 = undefined
    repaired_rows: int = 0
    build_seconds: float = field(default=0.0, repr=False)

    @property
    def lengths(self) -> IntArray:
        return np.arange(self.l_min, self.l_max + 1)

    def profile_for(self, length: int) -> MatrixProfile:
        """The full matrix profile of one length."""
        if not self.l_min <= length <= self.l_max:
            raise InvalidParameterError(
                f"length {length} outside [{self.l_min}, {self.l_max}]"
            )
        row = length - self.l_min
        n_positions = self.distances.shape[1]
        n_valid = n_positions - (length - self.l_min)
        return MatrixProfile(
            profile=self.distances[row, :n_valid].copy(),
            index=self.indices[row, :n_valid].copy(),
            length=length,
        )

    def motif_pairs(self) -> Dict[int, MotifPair]:
        """Exact motif pair per length."""
        return {
            int(length): self.profile_for(int(length)).motif_pair()
            for length in self.lengths
        }

    def normalized(self) -> FloatArray:
        """The matrix scaled by ``sqrt(1/l)`` per row (cross-length view)."""
        scales = np.sqrt(1.0 / self.lengths.astype(np.float64))
        return self.distances * scales[:, None]

    def valmp_arrays(self) -> Tuple[FloatArray, IntArray]:
        """(normalized distance, best length) per position — the VALMP."""
        norm = self.normalized()
        best_rows = np.argmin(np.where(np.isfinite(norm), norm, np.inf), axis=0)
        cols = np.arange(norm.shape[1])
        return norm[best_rows, cols], self.lengths[best_rows]

    def discords(self, k: int = 3) -> List[Discord]:
        """Top-k variable-length discords from the complete matrix."""
        if k <= 0:
            raise InvalidParameterError(f"k must be positive, got {k}")
        norm = self.normalized()
        candidates: List[Discord] = []
        for row, length in enumerate(self.lengths):
            length = int(length)
            values = norm[row]
            finite = np.isfinite(values)
            if not finite.any():
                continue
            pos = int(np.argmax(np.where(finite, values, -np.inf)))
            candidates.append(
                Discord(
                    normalized_distance=float(values[pos]),
                    distance=float(self.distances[row, pos]),
                    length=length,
                    start=pos,
                )
            )
        result: List[Discord] = []
        for candidate in sorted(candidates, reverse=True):
            zone = exclusion_zone_half_width(candidate.length)
            if any(abs(candidate.start - c.start) < zone for c in result):
                continue
            result.append(candidate)
            if len(result) >= k:
                break
        return result

    def growth_curve(self, position: int) -> FloatArray:
        """A position's NN distance as a function of the length."""
        if not 0 <= position < self.distances.shape[1]:
            raise InvalidParameterError(f"position {position} out of range")
        return self.distances[:, position].copy()


def compute_pan_matrix_profile(
    series: FloatArray,
    l_min: int,
    l_max: int,
    strategy: str = "valmod",
    p: int = 50,
) -> PanMatrixProfile:
    """Build the all-lengths matrix profile.

    ``strategy='valmod'`` reuses the Algorithm-4 machinery: at each
    length the valid rows come for free from the partial subMP; only the
    non-valid rows are repaired with one MASS profile each.
    ``strategy='exact'`` runs STOMP per length (the baseline the bench
    compares against).  Both produce identical matrices (tested).
    """
    t = as_series(series, min_length=8)
    if l_min > l_max:
        raise InvalidParameterError(f"l_min ({l_min}) must not exceed l_max ({l_max})")
    if strategy not in ("valmod", "exact"):
        raise InvalidParameterError(
            f"unknown strategy {strategy!r}; use 'valmod' or 'exact'"
        )
    start_time = time.perf_counter()
    # One shared stats/FFT cache for the whole length sweep.
    ctx = SeriesContext(t)
    n_positions = t.size - l_min + 1
    n_lengths = l_max - l_min + 1
    distances = np.full((n_lengths, n_positions), np.inf, dtype=np.float64)
    indices = np.full((n_lengths, n_positions), -1, dtype=np.int64)
    repaired = 0

    if strategy == "exact":
        for row, length in enumerate(range(l_min, l_max + 1)):
            mp = stomp(t, length, context=ctx)
            distances[row, : len(mp)] = mp.profile
            indices[row, : len(mp)] = mp.index
    else:
        mp, store = compute_matrix_profile(t, l_min, p, context=ctx)
        distances[0, : len(mp)] = mp.profile
        indices[0, : len(mp)] = mp.index
        for row, length in enumerate(range(l_min + 1, l_max + 1), start=1):
            result = compute_submp(t, store, length, context=ctx)
            known = np.isfinite(result.sub_profile)
            distances[row, : known.size][known] = result.sub_profile[known]
            indices[row, : known.size][known] = result.index[known]
            # Repair the rows Algorithm 4 could not certify.
            missing = np.where(~known)[0]
            if missing.size:
                mu, sigma = ctx.moving_mean_std(length)
                zone = exclusion_zone_half_width(length)
                for position in missing:
                    position = int(position)
                    profile = mass_with_stats(
                        t, position, length, mu, sigma, context=ctx
                    )
                    apply_exclusion_zone(profile, position, zone)
                    j = int(np.argmin(profile))
                    if np.isfinite(profile[j]):
                        distances[row, position] = profile[j]
                        indices[row, position] = j
                    repaired += 1

    return PanMatrixProfile(
        l_min=l_min,
        l_max=l_max,
        distances=distances,
        indices=indices,
        repaired_rows=repaired,
        build_seconds=time.perf_counter() - start_time,
    )
