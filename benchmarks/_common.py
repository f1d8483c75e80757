"""Shared configuration and helpers for the benchmark suite.

Every bench prints the same rows/series the corresponding paper figure
plots and also appends them to ``benchmarks/results/<bench>.txt`` so the
output survives the pytest-benchmark summary.  Sizes follow the scaled
Table-2 grid (see DESIGN.md); raise ``REPRO_BENCH_SCALE`` to run larger.
"""

from __future__ import annotations

import json
import os
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Any, Dict

from repro import obs
from repro.harness.config import BenchmarkGrid, env_scale

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: all five dataset families of Table 1.
DATASETS = ("ECG", "GAP", "ASTRO", "EMG", "EEG")

#: the four competitors of Section 6.1.
ALGORITHMS = ("VALMOD", "STOMP", "QUICKMOTIF", "MOEN")


def bench_grid() -> BenchmarkGrid:
    """The benchmark grid: Table 2 scaled for wall-clock sanity.

    The ratios of the paper's grid are preserved where it matters
    (range/length); absolute sizes are shrunk so the whole suite runs in
    minutes on a laptop.  ``REPRO_BENCH_SCALE`` multiplies sizes.
    """
    scale = env_scale()

    def s(value: int, lo: int = 2) -> int:
        return max(lo, int(round(value * scale)))

    return BenchmarkGrid(
        motif_lengths=[s(16), s(24), s(32), s(48), s(64)],
        motif_ranges=[s(4), s(6), s(8), s(12), s(16)],
        series_sizes=[s(512, 128), s(1024, 128), s(2048, 128), s(3072, 128), s(4096, 128)],
        p_values=[5, 10, 15, 20, 50, 100, 150],
        default_length=s(32),
        default_range=s(8),
        default_size=s(2048, 128),
        default_p=50,
        timeout_seconds=60.0 * max(1.0, scale),
        k_values=[10, 20, 40, 60, 80],
        d_values=[2, 3, 4, 5, 6],
        default_k=40,
        default_d=4,
    )


def bench_dataset(name: str, n: int, seed: int = 0):
    """Load a dataset family with feature scales matched to the grid.

    The paper's windows (256-4096 points) cover one-to-many structural
    features of each dataset (heartbeats, CAP cycles, daily cycles).  The
    scaled grid uses 16-64-point windows, so the generators' feature
    sizes are shrunk by the same ratio — otherwise a 32-point window of
    ECG would see a *fraction* of a beat, which is a different (and
    harder) regime than the paper's.
    """
    from repro.datasets.registry import load_dataset

    grid = bench_grid()
    kwargs = {
        "ECG": {"beat_length": max(12, (3 * grid.default_length) // 4)},
        "EEG": {"cycle_length": max(64, grid.default_length * 6)},
        "GAP": {"day_length": max(64, grid.default_length * 8)},
        "EMG": {},
        "ASTRO": {},
    }.get(name.upper(), {})
    return load_dataset(name, n, seed=seed, **kwargs)


def _git_sha() -> str:
    """The repo's HEAD commit, or "unknown" outside a git checkout.

    Suffixed ``-dirty`` when tracked files differ from HEAD, so a result
    produced on an uncommitted tree does not claim HEAD's code.
    """
    here = Path(__file__).resolve().parent
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=here, capture_output=True, text=True, timeout=10,
        )
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=here, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if head.returncode != 0:
        return "unknown"
    dirty = status.returncode == 0 and status.stdout.strip() != ""
    return head.stdout.strip() + ("-dirty" if dirty else "")


def run_metadata() -> Dict[str, Any]:
    """Provenance stamped into every persisted result file."""
    return {
        "git_sha": _git_sha(),
        "repro_trace_env": os.environ.get(obs.TRACE_ENV),
        "tracing_enabled": obs.enabled(),
        "bench_scale": env_scale(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` without racing concurrent workers.

    ``mkdir(parents=True, exist_ok=True)`` tolerates simultaneous
    creation (plain ``mkdir(exist_ok=True)`` still raced on a missing
    parent), and the tempfile + ``os.replace`` pair means readers never
    observe a half-written file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_result_json(name: str, payload: Dict[str, Any]) -> Path:
    """Persist a machine-readable result with provenance metadata."""
    merged = dict(payload)
    merged["meta"] = run_metadata()
    path = RESULTS_DIR / f"{name}.json"
    _atomic_write(path, json.dumps(merged, indent=2, sort_keys=True) + "\n")
    return path


def save_report(name: str, text: str) -> None:
    """Print a report and persist it under benchmarks/results/.

    When the :mod:`repro.obs` tracer is live, a ``<name>.trace.json``
    sidecar with the full trace report is written next to the text.
    """
    print(f"\n===== {name} =====")
    print(text)
    _atomic_write(RESULTS_DIR / f"{name}.txt", text + "\n")
    if obs.enabled():
        from repro.obs import build_report, report_to_json

        _atomic_write(
            RESULTS_DIR / f"{name}.trace.json",
            report_to_json(build_report()) + "\n",
        )


def fast_mode() -> bool:
    """REPRO_BENCH_FAST=1 trims sweeps to smoke-test size."""
    return os.environ.get("REPRO_BENCH_FAST", "0") not in ("0", "", "false")
