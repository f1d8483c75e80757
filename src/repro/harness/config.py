"""Benchmark parameter grids — Table 2, scaled.

The paper's grid (defaults in bold there):

=====================  ==============================
motif length l_min     256, 512, 1024, 2048, 4096
motif range            100, 150, 200, 400, 600
series size            0.1M, 0.2M, 0.5M, 0.8M, 1M
p                      5, 10, 15, 20, **50**, 100, 150
=====================  ==============================

Pure-Python engines are ~two orders of magnitude slower per operation
than the paper's C, so the default grid divides lengths by 16 and sizes
by ~125 while keeping every ratio; ``scale`` (or the REPRO_BENCH_SCALE
environment variable) multiplies sizes back up for bigger machines.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List

from repro.exceptions import InvalidParameterError

__all__ = ["BenchmarkGrid", "default_grid", "env_scale", "env_jobs"]

#: the paper's Table 2, verbatim, for reference and reporting.
PAPER_GRID = {
    "motif_length": [256, 512, 1024, 2048, 4096],
    "motif_range": [100, 150, 200, 400, 600],
    "series_size": [100_000, 200_000, 500_000, 800_000, 1_000_000],
    "p": [5, 10, 15, 20, 50, 100, 150],
    "defaults": {"motif_length": 1024, "motif_range": 200, "series_size": 500_000, "p": 50},
}


@dataclass(frozen=True)
class BenchmarkGrid:
    """One concrete (possibly scaled) instantiation of Table 2."""

    motif_lengths: List[int] = field(
        default_factory=lambda: [16, 32, 64, 128, 256]
    )
    motif_ranges: List[int] = field(default_factory=lambda: [6, 9, 12, 25, 38])
    series_sizes: List[int] = field(
        default_factory=lambda: [1000, 2000, 4000, 6500, 8000]
    )
    p_values: List[int] = field(default_factory=lambda: [5, 10, 15, 20, 50, 100, 150])
    default_length: int = 64
    default_range: int = 12
    default_size: int = 4000
    default_p: int = 50
    #: per-(algorithm, configuration) wall-clock budget before a DNF.
    timeout_seconds: float = 120.0
    #: K / D grids of the motif-set experiment (Figure 15), as published.
    k_values: List[int] = field(default_factory=lambda: [10, 20, 40, 60, 80])
    d_values: List[int] = field(default_factory=lambda: [2, 3, 4, 5, 6])
    default_k: int = 40
    default_d: int = 4
    #: worker processes for VALMOD's Algorithm 3 row blocks (1 = serial).
    n_jobs: int = 1


def env_jobs() -> int:
    """The REPRO_BENCH_JOBS environment variable (default 1)."""
    raw = os.environ.get("REPRO_BENCH_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError as exc:
        raise InvalidParameterError(
            f"REPRO_BENCH_JOBS must be an integer, got {raw!r}"
        ) from exc
    if jobs < 0:
        raise InvalidParameterError(
            f"REPRO_BENCH_JOBS must be non-negative, got {jobs}"
        )
    return jobs


def env_scale() -> float:
    """The REPRO_BENCH_SCALE environment variable (default 1.0)."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "1")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise InvalidParameterError(
            f"REPRO_BENCH_SCALE must be a number, got {raw!r}"
        ) from exc
    if scale <= 0:
        raise InvalidParameterError(f"REPRO_BENCH_SCALE must be positive, got {scale}")
    return scale


def default_grid(scale: float = None) -> BenchmarkGrid:
    """The scaled Table-2 grid; ``scale`` multiplies lengths and sizes.

    ``REPRO_BENCH_JOBS`` sets the grid's worker count without touching
    the shape of the grid itself.
    """
    if scale is None:
        scale = env_scale()
    jobs = env_jobs()
    if scale == 1.0:
        return BenchmarkGrid(n_jobs=jobs)
    base = BenchmarkGrid()

    def stretch(values: List[int], lo: int) -> List[int]:
        return [max(lo, int(round(v * scale))) for v in values]

    return BenchmarkGrid(
        motif_lengths=stretch(base.motif_lengths, 8),
        motif_ranges=stretch(base.motif_ranges, 2),
        series_sizes=stretch(base.series_sizes, 512),
        p_values=list(base.p_values),
        default_length=max(8, int(round(base.default_length * scale))),
        default_range=max(2, int(round(base.default_range * scale))),
        default_size=max(512, int(round(base.default_size * scale))),
        default_p=base.default_p,
        timeout_seconds=base.timeout_seconds * max(1.0, scale),
        k_values=list(base.k_values),
        d_values=list(base.d_values),
        default_k=base.default_k,
        default_d=base.default_d,
        n_jobs=jobs,
    )
