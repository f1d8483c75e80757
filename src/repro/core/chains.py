"""Time-series chains: directional, evolving patterns (Matrix Profile VII).

A chain is a sequence of subsequences each of which is the *right*
nearest neighbor of its predecessor AND the *left* nearest neighbor of
its successor — a pattern drifting through time (Zhu, Imamura, Nikovski,
Keogh, 2017).  VALMOD is "Matrix Profile X"; chains are a sibling
primitive of the same family, built directly on the left/right profiles
of :mod:`repro.matrixprofile.leftright`.

The all-chain set algorithm: every position belongs to exactly one
maximal chain under the bidirectional-link rule; we follow links
``right_index[i] = j and left_index[j] = i`` forward from every chain
head.  The *unanchored chain* is the longest one (ties: smallest total
link distance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.types import FloatArray, IntArray

from repro.distance.znorm import as_series
from repro.exceptions import InvalidParameterError
from repro.matrixprofile.leftright import LeftRightProfiles, stomp_left_right

__all__ = ["Chain", "all_chains", "unanchored_chain"]


@dataclass(frozen=True)
class Chain:
    """One time-series chain: strictly time-ordered member offsets."""

    members: Tuple[int, ...]
    length: int
    total_link_distance: float

    def __len__(self) -> int:
        return len(self.members)

    @property
    def span(self) -> int:
        """Time between the first and last member."""
        return self.members[-1] - self.members[0]


def _bidirectional_links(lr: LeftRightProfiles) -> IntArray:
    """``link[i] = j`` when i->j is a bidirectional chain link, else -1."""
    n = lr.right_index.size
    link = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        j = lr.right_index[i]
        if j >= 0 and lr.left_index[j] == i:
            link[i] = j
    return link


def all_chains(series: FloatArray, length: int) -> List[Chain]:
    """Every maximal chain of the given subsequence length.

    Chains of cardinality 1 (isolated subsequences) are omitted.  Each
    position appears in exactly one returned chain or in none.
    """
    t = as_series(series, min_length=4)
    lr = stomp_left_right(t, length)
    link = _bidirectional_links(lr)
    has_incoming = np.zeros(link.size, dtype=bool)
    valid = link >= 0
    has_incoming[link[valid]] = True

    chains: List[Chain] = []
    for head in np.where(valid & ~has_incoming)[0]:
        members = [int(head)]
        total = 0.0
        current = int(head)
        while link[current] >= 0:
            nxt = int(link[current])
            total += float(lr.right_profile[current])
            members.append(nxt)
            current = nxt
        if len(members) >= 2:
            chains.append(
                Chain(
                    members=tuple(members),
                    length=length,
                    total_link_distance=total,
                )
            )
    return chains


def unanchored_chain(series: FloatArray, length: int) -> Chain:
    """The longest chain (the 'unanchored' chain of the original paper).

    Ties break toward the smallest total link distance.  Raises when no
    chain of cardinality >= 2 exists (degenerate inputs).
    """
    chains = all_chains(series, length)
    if not chains:
        raise InvalidParameterError(
            f"no chain of two or more members exists at length {length}"
        )
    return max(
        chains, key=lambda c: (len(c.members), -c.total_link_distance)
    )
