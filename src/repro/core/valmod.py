"""Algorithm 1 — the VALMOD driver.

Orchestrates the run: Algorithm 3 at the smallest length, then one
Algorithm 4 step per subsequent length, falling back to Algorithm 3 when
the lower bounds cannot certify the motif, and merging every per-length
result into the VALMP structure (Algorithm 2).

The per-length motif pair is always *exact*: either ComputeSubMP proves
it via the lower bounds, or the driver recomputes the full matrix
profile.  Individual VALMP positions may hold values from a coarser
length when a profile stayed non-valid — exactly the paper's semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.core.compute_mp import compute_matrix_profile, resolve_n_jobs
from repro.core.compute_submp import compute_submp, pairwise_entry_distances
from repro.core.entries import EntryStore
from repro.core.lower_bound import lower_bound_from_base
from repro.core.stats import LengthStats, RunStats
from repro.core.valmp import VALMP, PairRecord, PartialProfile
from repro.distance.sliding import validate_subsequence_length
from repro.distance.znorm import as_series
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext
from repro.types import FloatArray, MotifPair

__all__ = ["Valmod", "ValmodResult", "valmod", "DEFAULT_P"]

#: the paper's default for p (Table 2).
DEFAULT_P = 50


@dataclass
class ValmodResult:
    """Everything a VALMOD run produces.

    Attributes
    ----------
    valmp:
        The variable-length matrix profile (Algorithm 2's structure).
    motif_pairs:
        Exact motif pair for every length in the range.
    stats:
        Per-length instrumentation (see :mod:`repro.core.stats`).
    """

    l_min: int
    l_max: int
    p: int
    valmp: VALMP
    motif_pairs: Dict[int, MotifPair]
    stats: RunStats = field(repr=False, default_factory=RunStats)

    def best_motif_pair(self) -> MotifPair:
        """The top variable-length motif (smallest normalized distance)."""
        return min(self.motif_pairs.values())

    def ranked_motif_pairs(self) -> List[MotifPair]:
        """All per-length motif pairs, best normalized distance first."""
        return sorted(self.motif_pairs.values())

    def best_k_pairs(self) -> List[PairRecord]:
        """The Algorithm 5 heap contents (needs ``track_top_k`` > 0)."""
        return self.valmp.best_k_pairs()


class Valmod:
    """Configurable VALMOD runner.

    Parameters
    ----------
    series:
        The input data series.
    l_min, l_max:
        Inclusive subsequence-length range.
    p:
        Number of distance-profile entries kept per subsequence
        (Table 2; the paper's default is 50).
    track_top_k:
        Size of the best-pair heap kept for motif-set discovery
        (Algorithm 5); 0 disables tracking.
    recompute_fraction:
        Threshold for ComputeSubMP's partial-recompute path (the paper's
        "fewer than half"); 0 disables the path (ablation).
    lb_pruning:
        Ablation switch — ``False`` recomputes the full matrix profile at
        every length, i.e. degenerates to STOMP-per-length.
    keep_margins:
        Keep per-profile maxLB - minDist vectors for Figure 9 analysis.
    n_jobs:
        Worker processes for the full matrix-profile passes (the initial
        length and every full recompute).  ``1`` (default) stays
        in-process; ``None``/``0`` uses all CPUs.  Results are identical
        for every value.
    trace:
        Observability switch (see :mod:`repro.obs`).  ``True`` records
        counters/spans during :meth:`run` regardless of ``REPRO_TRACE``;
        ``False`` silences an env-enabled tracer; ``None`` (default)
        leaves the global tracer's state untouched.  Results are
        bitwise identical either way.
    context:
        An existing :class:`~repro.kernels.SeriesContext` to reuse (the
        :mod:`repro.features` façade threads one context through every
        workload it runs on a series).  Ignored unless it matches the
        series; results are bitwise identical with or without a shared
        context.
    """

    def __init__(
        self,
        series: FloatArray,
        l_min: int,
        l_max: int,
        p: int = DEFAULT_P,
        track_top_k: int = 0,
        recompute_fraction: float = 0.5,
        lb_pruning: bool = True,
        keep_margins: bool = False,
        n_jobs: Optional[int] = 1,
        trace: Optional[bool] = None,
        context: Optional[SeriesContext] = None,
    ) -> None:
        self.series = as_series(series, min_length=8)
        if l_min > l_max:
            raise InvalidParameterError(
                f"l_min ({l_min}) must not exceed l_max ({l_max})"
            )
        validate_subsequence_length(self.series.size, l_min)
        validate_subsequence_length(self.series.size, l_max)
        if p <= 0:
            raise InvalidParameterError(f"p must be positive, got {p}")
        if track_top_k < 0:
            raise InvalidParameterError(
                f"track_top_k must be non-negative, got {track_top_k}"
            )
        resolve_n_jobs(n_jobs)
        self.l_min = int(l_min)
        self.l_max = int(l_max)
        self.p = int(p)
        self.track_top_k = int(track_top_k)
        self.recompute_fraction = float(recompute_fraction)
        self.lb_pruning = bool(lb_pruning)
        self.keep_margins = bool(keep_margins)
        self.n_jobs = n_jobs
        self.trace = trace
        self._store: Optional[EntryStore] = None
        # One context for the whole sweep: window statistics are computed
        # once per length and the series FFT once per plan size.  A caller
        # (the repro.features façade) may hand in its own context so the
        # same stats serve several workloads.
        if context is not None and context.matches(self.series):
            self._context = context
        else:
            self._context = SeriesContext(self.series)

    def run(self) -> ValmodResult:
        """Execute Algorithm 1 over the configured length range."""
        # One workspace per run: Algorithm 3's blocks and every partial
        # recompute reuse its pages, and it is dropped when the run ends.
        with self._context.open_workspace():
            if self.trace is None:
                return self._run()
            with obs.tracing(self.trace):
                return self._run()

    def _run(self) -> ValmodResult:
        t = self.series
        n_profiles = t.size - self.l_min + 1
        valmp = VALMP(n_profiles, track_top_k=self.track_top_k)
        stats = RunStats()
        motif_pairs: Dict[int, MotifPair] = {}

        start = time.perf_counter()
        with obs.span("valmod.initial"):
            mp, store = compute_matrix_profile(
                t, self.l_min, self.p, n_jobs=self.n_jobs,
                context=self._context,
            )
        obs.add("valmod.lengths.initial")
        self._store = store
        improved = valmp.update(mp.profile, mp.index, self.l_min)
        valmp.record_pairs(improved, self.l_min, self._snapshot)
        pair = mp.motif_pair()
        motif_pairs[self.l_min] = pair
        stats.add(
            LengthStats(
                length=self.l_min,
                mode="initial",
                elapsed_seconds=time.perf_counter() - start,
                n_profiles=n_profiles,
                submp_size=n_profiles,
                motif_distance=pair.distance,
            )
        )

        for length in range(self.l_min + 1, self.l_max + 1):
            start = time.perf_counter()
            if not self.lb_pruning:
                self._full_recompute(length, valmp, motif_pairs, stats, start)
                continue
            with obs.span("valmod.step"):
                result = compute_submp(
                    t, store, length,
                    recompute_fraction=self.recompute_fraction,
                    context=self._context,
                )
            if result.found_motif:
                improved = valmp.update(result.sub_profile, result.index, length)
                valmp.record_pairs(improved, length, self._snapshot)
                if result.best_pair is not None:
                    motif_pairs[length] = MotifPair.build(
                        result.best_pair[0],
                        result.best_pair[1],
                        length,
                        result.best_distance,
                    )
                mode = "submp-partial" if result.n_recomputed else "submp"
                obs.add(f"valmod.lengths.{mode}")
                stats.add(
                    LengthStats(
                        length=length,
                        mode=mode,
                        elapsed_seconds=time.perf_counter() - start,
                        n_profiles=result.sub_profile.size,
                        n_valid=result.n_valid,
                        n_invalid=result.n_invalid,
                        n_recomputed=result.n_recomputed,
                        submp_size=result.submp_size,
                        motif_distance=result.best_distance,
                        pruning_margin=(
                            result.max_lb - result.min_dist
                            if self.keep_margins
                            else None
                        ),
                    )
                )
            else:
                self._full_recompute(length, valmp, motif_pairs, stats, start)

        return ValmodResult(
            l_min=self.l_min,
            l_max=self.l_max,
            p=self.p,
            valmp=valmp,
            motif_pairs=motif_pairs,
            stats=stats,
        )

    def _full_recompute(
        self,
        length: int,
        valmp: VALMP,
        motif_pairs: Dict[int, MotifPair],
        stats: RunStats,
        start: float,
    ) -> None:
        """Algorithm 1, line 13: rebuild the matrix profile and listDP."""
        with obs.span("valmod.full_recompute"):
            mp, store = compute_matrix_profile(
                self.series, length, self.p, n_jobs=self.n_jobs,
                context=self._context,
            )
        obs.add("valmod.lengths.full-recompute")
        self._store = store
        improved = valmp.update(mp.profile, mp.index, length)
        valmp.record_pairs(improved, length, self._snapshot)
        pair = mp.motif_pair()
        motif_pairs[length] = pair
        stats.add(
            LengthStats(
                length=length,
                mode="full-recompute",
                elapsed_seconds=time.perf_counter() - start,
                n_profiles=len(mp),
                submp_size=len(mp),
                motif_distance=pair.distance,
            )
        )

    def _snapshot(self, offset: int, length: int) -> Optional[PartialProfile]:
        """Snapshot one listDP row for the motif-set stage (Algorithm 5)."""
        store = self._store
        if store is None or offset >= store.n_profiles:
            return None
        t = self.series
        n = t.size
        if offset > n - length:
            return None
        _, sigma = self._context.moving_mean_std(length)
        nb = store.neighbor[offset]
        real = nb >= 0
        in_range = real & (nb <= n - length)
        if not in_range.any():
            return PartialProfile(
                owner=offset,
                length=length,
                neighbors=np.empty(0, dtype=np.int64),
                distances=np.empty(0, dtype=np.float64),
                max_lb=float("inf") if not real.all() else 0.0,
            )
        dist = pairwise_entry_distances(
            store.qt[offset : offset + 1],
            nb[None, :],
            in_range[None, :],
            in_range[None, :],
            sigma,
            length,
            rows=np.array([offset]),
        )[0]
        lb = np.asarray(
            lower_bound_from_base(store.lb_base[offset], float(sigma[offset])),
            dtype=np.float64,
        )
        max_lb = float(lb.max()) if lb.size else float("inf")
        return PartialProfile(
            owner=offset,
            length=length,
            neighbors=nb[in_range].copy(),
            distances=dist[in_range].copy(),
            max_lb=max_lb,
        )


def valmod(
    series: FloatArray,
    l_min: int,
    l_max: int,
    p: int = DEFAULT_P,
    track_top_k: int = 0,
    n_jobs: Optional[int] = 1,
    trace: Optional[bool] = None,
) -> ValmodResult:
    """Functional entry point: run VALMOD with default settings.

    Example
    -------
    >>> import numpy as np
    >>> from repro import valmod
    >>> rng = np.random.default_rng(0)
    >>> series = rng.standard_normal(2000)
    >>> result = valmod(series, l_min=32, l_max=48)
    >>> pair = result.best_motif_pair()
    """
    return Valmod(
        series, l_min, l_max, p=p, track_top_k=track_top_k, n_jobs=n_jobs,
        trace=trace,
    ).run()
