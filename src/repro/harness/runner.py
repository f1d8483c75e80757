"""Timed, deadline-bounded execution of the four competing algorithms.

``run_algorithm`` gives every competitor the same interface the paper's
benchmark used: a series, a length range, and a wall-clock budget.  Runs
that exceed the budget are reported as DNF ("did not finish") rather
than crashing the sweep — the paper's plots contain exactly such
truncated bars.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro import obs
from repro.baselines.moen import moen
from repro.baselines.quick_motif import quick_motif
from repro.baselines.stomp_range import stomp_range
from repro.exceptions import BudgetExceededError, InvalidParameterError
from repro.features import extract_features
from repro.types import MotifPair

__all__ = ["ALGORITHMS", "RunOutcome", "run_algorithm"]


@dataclass
class RunOutcome:
    """Result of one timed run."""

    algorithm: str
    seconds: float
    dnf: bool
    motif_pairs: Optional[Dict[int, MotifPair]] = None
    #: per-run counter deltas from :mod:`repro.obs` (None when tracing is
    #: off) — the counters this run added, not the process totals.
    trace: Optional[Dict[str, Any]] = None

    def cell(self) -> str:
        """Render as a benchmark table cell."""
        return "DNF" if self.dnf else f"{self.seconds:.2f}s"


def _counter_delta(
    before: Dict[str, int], after: Dict[str, int]
) -> Dict[str, int]:
    """Counters added between two snapshots (new keys appear whole)."""
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }


def _run_valmod(
    series: np.ndarray,
    l_min: int,
    l_max: int,
    p: int,
    deadline: float,
    n_jobs: Optional[int] = 1,
):
    # VALMOD has no internal deadline: it is the fast competitor and its
    # worst case is bounded by the STOMP fallback it already contains.
    # Routed through the façade (motifs only, store off) so the harness
    # exercises the same entry point users call.
    return extract_features(
        series, l_min, l_max, p=p, include=(), n_jobs=n_jobs,
        store=False,
    ).pairs_by_length()


def _run_stomp(
    series: np.ndarray,
    l_min: int,
    l_max: int,
    p: int,
    deadline: float,
    n_jobs: Optional[int] = 1,
):
    return stomp_range(series, l_min, l_max, deadline=deadline)


def _run_moen(
    series: np.ndarray,
    l_min: int,
    l_max: int,
    p: int,
    deadline: float,
    n_jobs: Optional[int] = 1,
):
    return moen(series, l_min, l_max, deadline=deadline)


def _run_quick_motif(
    series: np.ndarray,
    l_min: int,
    l_max: int,
    p: int,
    deadline: float,
    n_jobs: Optional[int] = 1,
):
    return quick_motif(series, l_min, l_max, deadline=deadline)


ALGORITHMS: Dict[str, Callable] = {
    "VALMOD": _run_valmod,
    "STOMP": _run_stomp,
    "QUICKMOTIF": _run_quick_motif,
    "MOEN": _run_moen,
}


def run_algorithm(
    name: str,
    series: np.ndarray,
    l_min: int,
    l_max: int,
    p: int = 50,
    timeout_seconds: float = 120.0,
    n_jobs: Optional[int] = 1,
) -> RunOutcome:
    """Run one competitor under a wall-clock budget.

    The budget is enforced cooperatively (the baselines check a deadline
    between units of work), so a DNF is reported slightly *after* the
    budget passes — the same semantics as killing a C process.
    ``n_jobs`` splits VALMOD's Algorithm 3 row blocks over worker
    processes; the baselines run serial and ignore it.
    """
    if name not in ALGORITHMS:
        raise InvalidParameterError(
            f"unknown algorithm {name!r}; choose from {', '.join(ALGORITHMS)}"
        )
    tracing = obs.enabled()
    before = obs.get_tracer().counters() if tracing else {}
    start = time.perf_counter()
    deadline = start + timeout_seconds

    def _trace() -> Optional[Dict[str, Any]]:
        if not tracing:
            return None
        return _counter_delta(before, obs.get_tracer().counters())

    try:
        pairs = ALGORITHMS[name](
            series, l_min, l_max, p, deadline, n_jobs=n_jobs,
        )
    except BudgetExceededError:
        return RunOutcome(
            algorithm=name,
            seconds=time.perf_counter() - start,
            dnf=True,
            trace=_trace(),
        )
    return RunOutcome(
        algorithm=name,
        seconds=time.perf_counter() - start,
        dnf=False,
        motif_pairs=pairs,
        trace=_trace(),
    )
