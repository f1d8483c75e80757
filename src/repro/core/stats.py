"""Instrumentation for VALMOD runs.

The evaluation section of the paper reports, beyond wall-clock time, the
internal behaviour of the algorithm: how many profiles were valid at each
length (the |subMP| curves of Figure 14), how often the partial and full
recomputation fallbacks fire.  The driver records one
:class:`LengthStats` per processed length; Figure 9's pruning margins
come from :func:`repro.analysis.pruning.pruning_margins`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["LengthStats", "RunStats"]


@dataclass
class LengthStats:
    """What happened while processing one subsequence length."""

    length: int
    mode: str  # 'initial' | 'submp' | 'submp-partial' | 'full-recompute'
    elapsed_seconds: float
    n_profiles: int
    n_valid: int = 0
    n_invalid: int = 0
    n_recomputed: int = 0
    submp_size: int = 0
    motif_distance: float = float("nan")

    @property
    def valid_fraction(self) -> float:
        """Fraction of profiles solved without recomputation."""
        if self.n_profiles == 0:
            return 0.0
        return self.n_valid / self.n_profiles


@dataclass
class RunStats:
    """Aggregated statistics of one VALMOD run."""

    per_length: List[LengthStats] = field(default_factory=list)

    def add(self, stats: LengthStats) -> None:
        self.per_length.append(stats)

    @property
    def total_seconds(self) -> float:
        return sum(s.elapsed_seconds for s in self.per_length)

    @property
    def n_full_recomputes(self) -> int:
        return sum(1 for s in self.per_length if s.mode == "full-recompute")

    @property
    def n_partial_recomputes(self) -> int:
        return sum(1 for s in self.per_length if s.mode == "submp-partial")

    @property
    def n_fast_lengths(self) -> int:
        """Lengths solved purely from the stored entries (best case O(np))."""
        return sum(1 for s in self.per_length if s.mode == "submp")

    def submp_sizes(self) -> List[int]:
        """|subMP| per non-initial length — the right-hand plots of Fig. 14."""
        return [s.submp_size for s in self.per_length if s.mode != "initial"]

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        if not self.per_length:
            return "no lengths processed"
        return (
            f"{len(self.per_length)} lengths in {self.total_seconds:.3f}s: "
            f"{self.n_fast_lengths} pure-subMP, "
            f"{self.n_partial_recomputes} partial recomputes, "
            f"{self.n_full_recomputes} full recomputes"
        )
