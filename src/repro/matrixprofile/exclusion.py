"""Exclusion-zone (trivial match) policy.

The paper follows the matrix-profile convention: a match between windows
``i`` and ``j`` is *trivial* when ``|i - j| < l / 2`` — a subsequence
matched against itself or a heavily overlapping copy (Section 2).  The
half-width is centralized here so every engine, baseline, and test uses
the same rule.
"""

from __future__ import annotations

import math

from repro.exceptions import InvalidParameterError

__all__ = ["contributing_cells", "exclusion_zone_half_width", "is_trivial_match"]


def exclusion_zone_half_width(length: int) -> int:
    """Half-width of the trivial-match zone for subsequence length ``l``.

    The paper sets the zone heuristically to ``l/2``; we round up so the
    zone never vanishes and so odd lengths behave like the reference
    implementations.
    """
    if length <= 0:
        raise InvalidParameterError(f"length must be positive, got {length}")
    return max(1, int(math.ceil(length / 2.0)))


def is_trivial_match(i: int, j: int, length: int) -> bool:
    """True when windows ``i`` and ``j`` of length ``l`` trivially match."""
    if i < 0 or j < 0:
        raise InvalidParameterError(f"window starts must be non-negative, got {i}, {j}")
    return abs(i - j) < exclusion_zone_half_width(length)


def contributing_cells(n_subs: int, zone: int) -> int:
    """Number of ordered pairs ``(i, j)`` with ``|i - j| >= zone``.

    The engine-independent work measure behind the ``engine.cells``
    trace counter: every exact full-profile engine — row-order STOMP,
    MASS-per-row STAMP, diagonal-order SCRIMP, blocked diagonal STOMP —
    evaluates exactly these cells of the distance matrix, so the counter
    is comparable across engines by construction.  Closed form
    ``k (k + 1)`` with ``k = n_subs - zone`` (each of the ``k`` upper
    diagonals ``d in [zone, n_subs)`` holds ``n_subs - d`` pairs, seen
    from both sides).
    """
    if n_subs < 0:
        raise InvalidParameterError(f"n_subs must be non-negative, got {n_subs}")
    if zone <= 0:
        raise InvalidParameterError(f"zone must be positive, got {zone}")
    k = n_subs - zone
    return k * (k + 1) if k > 0 else 0
