"""MAD ablation driver: pruned vs full-profile discord discovery.

Lives apart from :mod:`repro.harness.experiments` because it composes
only the *discords* workload family (lint rule R009: one family per
module outside the façade) — both drivers, timed head to head on the
same input, with the pruning counters recorded and the outputs
asserted identical.  This is the harness-level counterpart of the
differential wall in ``tests/test_discords_variable.py``; see
``docs/DISCORDS.md`` for the pruning-power interpretation.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.core.discords import find_discords
from repro.core.discords_variable import find_discords_pruned
from repro.datasets.registry import DATASET_NAMES, load_dataset
from repro.harness.config import BenchmarkGrid, default_grid

__all__ = ["sweep_discord_drivers"]


def sweep_discord_drivers(
    datasets: Sequence[str] = DATASET_NAMES,
    grid: Optional[BenchmarkGrid] = None,
    seed: int = 0,
    k: int = 3,
    loader=load_dataset,
) -> List[Dict[str, object]]:
    """Time both discord drivers per dataset and range width.

    Each row reports the two wall-clock timings, the obs pruning
    counters (``lengths_swept`` = ``profiles_recomputed`` +
    ``profiles_pruned``), the derived ``pruning_power``, and an
    ``identical`` flag that must always be ``True``.
    """
    grid = grid or default_grid()
    rows: List[Dict[str, object]] = []
    for dataset in datasets:
        series = loader(dataset, grid.default_size, seed=seed)
        for rng_ in grid.motif_ranges:
            l_min = grid.default_length
            l_max = l_min + rng_
            start = time.perf_counter()
            full = find_discords(series, l_min, l_max, k=k)
            full_seconds = time.perf_counter() - start
            with obs.tracing(True):
                before = dict(obs.get_tracer().counters())
                start = time.perf_counter()
                pruned = find_discords_pruned(
                    series, l_min, l_max, k=k, p=grid.default_p,
                    n_jobs=grid.n_jobs,
                )
                pruned_seconds = time.perf_counter() - start
                after = dict(obs.get_tracer().counters())
            counters = {
                name: value - before.get(name, 0)
                for name, value in after.items()
                if value != before.get(name, 0)
            }
            swept = counters.get("discords.lengths.swept", 0)
            n_pruned = counters.get("discords.profiles.pruned", 0)
            rows.append(
                {
                    "dataset": dataset,
                    "range": rng_,
                    "identical": full == pruned,
                    "full_seconds": full_seconds,
                    "pruned_seconds": pruned_seconds,
                    "lengths_swept": swept,
                    "profiles_recomputed": counters.get(
                        "discords.profiles.recomputed", 0
                    ),
                    "profiles_pruned": n_pruned,
                    "pruning_power": (n_pruned / swept) if swept else 0.0,
                }
            )
    return rows
