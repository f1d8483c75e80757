"""Shared result types for motif discovery.

These dataclasses are the vocabulary of the public API: a
:class:`MotifPair` is the paper's Definition 2.3 (the closest pair of
subsequences of one length), a :class:`MotifSet` is Definition 2.6 (a pair
extended by all subsequences within a radius), and :class:`Motif` is a
single located subsequence.

All offsets are 0-based positions into the analyzed series (the paper uses
1-based offsets in its figures; conversion is purely presentational).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from repro.exceptions import InvalidParameterError

__all__ = [
    "Motif",
    "MotifPair",
    "MotifSet",
    "length_normalized",
    "FloatArray",
    "IntArray",
    "BoolArray",
    "ComplexArray",
    "SeriesLike",
]

#: 1-D float64 buffer — the dtype every kernel is calibrated for.
FloatArray = NDArray[np.float64]
#: int64 index buffer (profile indices, neighbor offsets).
IntArray = NDArray[np.int64]
#: complex128 spectrum buffer (cached ``rfft`` plans of a series).
ComplexArray = NDArray[np.complex128]
#: boolean mask over subsequence positions.
BoolArray = NDArray[np.bool_]
#: anything the public API accepts as a data series; the central
#: validators convert it to a :data:`FloatArray`.
SeriesLike = Union[FloatArray, Sequence[float]]


def length_normalized(distance: float, length: int) -> float:
    """Apply the paper's ``sqrt(1/l)`` length correction (Section 3).

    The correction makes motif distances comparable across subsequence
    lengths: for a pattern injected at several speeds, the corrected
    distance between two instances is approximately invariant to length,
    unlike the raw distance (biased short) or ``distance / l`` (biased
    long); see Figure 2 of the paper.
    """
    if length <= 0:
        raise InvalidParameterError(f"length must be positive, got {length}")
    return distance * math.sqrt(1.0 / length)


@dataclass(frozen=True)
class Motif:
    """One located subsequence: ``series[start : start + length]``."""

    start: int
    length: int

    @property
    def end(self) -> int:
        """Exclusive end position."""
        return self.start + self.length

    def overlaps(self, other: "Motif") -> bool:
        """True when the two windows share at least one point."""
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True, order=True)
class MotifPair:
    """The paper's motif pair: two subsequences of equal length.

    Ordering compares by ``normalized_distance`` first, which is exactly
    the cross-length ranking VALMOD uses (Section 3): sorting a list of
    :class:`MotifPair` yields the paper's variable-length motif ranking.
    """

    normalized_distance: float
    distance: float = field(compare=False)
    length: int = field(compare=False)
    a: int = field(compare=False)
    b: int = field(compare=False)

    @staticmethod
    def build(a: int, b: int, length: int, distance: float) -> "MotifPair":
        """Create a pair with canonical offset order and derived fields."""
        lo, hi = (a, b) if a <= b else (b, a)
        return MotifPair(
            normalized_distance=length_normalized(distance, length),
            distance=float(distance),
            length=int(length),
            a=int(lo),
            b=int(hi),
        )

    @property
    def motifs(self) -> Tuple[Motif, Motif]:
        """The two member subsequences as :class:`Motif` objects."""
        return (Motif(self.a, self.length), Motif(self.b, self.length))

    def is_trivial(self, exclusion: int) -> bool:
        """True when the pair violates the exclusion zone ``|a-b| < exclusion``."""
        return abs(self.a - self.b) < exclusion


@dataclass(frozen=True)
class MotifSet:
    """Definition 2.6: a motif pair extended by neighbors within radius r.

    ``members`` contains the offsets of every subsequence in the set,
    including the two seed offsets; ``radius`` is the actual radius used
    (``D * pair.distance`` for radius factor D).
    """

    pair: MotifPair
    radius: float
    members: Tuple[int, ...]

    @property
    def frequency(self) -> int:
        """Cardinality of the motif set (the paper calls this frequency)."""
        return len(self.members)

    @property
    def length(self) -> int:
        """Subsequence length shared by all members."""
        return self.pair.length

    def member_motifs(self) -> List[Motif]:
        """Members as :class:`Motif` windows."""
        return [Motif(start, self.pair.length) for start in self.members]
