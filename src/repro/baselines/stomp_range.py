"""STOMP adapted to a length range: one independent run per length.

This is the stronger of the paper's two fixed-length baselines ("STOMP
... adapted to find all the motifs for a given subsequence length
range").  Each length costs the full O(n^2), so the total grows linearly
with the range width — the behaviour Figure 12 shows.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from repro.core.valmp import VALMP
from repro.exceptions import BudgetExceededError, InvalidParameterError
from repro.kernels.context import SeriesContext
from repro.matrixprofile.stomp import stomp
from repro.types import MotifPair

__all__ = ["stomp_range"]


def stomp_range(
    series: np.ndarray,
    l_min: int,
    l_max: int,
    valmp: Optional[VALMP] = None,
    deadline: Optional[float] = None,
) -> Dict[int, MotifPair]:
    """Exact motif pair per length via repeated STOMP runs.

    Passing a :class:`VALMP` collects the same variable-length matrix
    profile VALMOD produces (useful for cross-checking VALMP semantics).
    ``deadline`` (absolute ``time.perf_counter()`` value) turns slow runs
    into :class:`BudgetExceededError` for the harness's DNF reporting.
    """
    ctx = SeriesContext(series, min_length=8)
    t = ctx.series
    if l_min > l_max:
        raise InvalidParameterError(f"l_min ({l_min}) must not exceed l_max ({l_max})")
    result: Dict[int, MotifPair] = {}
    for length in range(l_min, l_max + 1):
        if deadline is not None and time.perf_counter() > deadline:
            raise BudgetExceededError(
                f"stomp_range exceeded its deadline at length {length}"
            )
        mp = stomp(t, length, context=ctx)
        result[length] = mp.motif_pair()
        if valmp is not None:
            valmp.update(mp.profile, mp.index, length)
    return result
