"""Micro-benchmarks of the computational kernels.

Not a paper figure — engineering-level timings (with pytest-benchmark's
statistics) for the primitives the figures are built from: MASS vs the
naive profile, one STOMP row update, the Eq. 2 lower-bound kernel, one
ComputeSubMP step, the blocked kernel vs the rowwise STOMP schedule
(``micro_stomp_blocked_vs_rowwise``), and the minor page faults of one
``emg_motifs``-shaped VALMOD round (``micro_valmod_round_faults``).

The blocked-vs-rowwise comparison persists cells/second numbers to
``benchmarks/results/BENCH_micro_stomp_blocked_vs_rowwise.json``; CI
runs it in smoke mode (``REPRO_BENCH_FAST=1``), the full measurement is
committed alongside the kernel: a ``block_rows`` sweep at n=16384, l=64,
where ``blocked_stomp`` scores through its GEMM path and ``B`` sizes the
blocks, one row at l=256 on the shared recurrence (where ``B`` plays no
part), and short-window rows at n=2000, l=32 and l=64.  Run it with one
BLAS thread (``OPENBLAS_NUM_THREADS=1``) to match the benchmark of
record.

``micro_valmod_round_faults`` runs its rounds in a fresh interpreter and
persists seconds and minor faults (``getrusage``'s ``ru_minflt``) per
round to
``benchmarks/results/BENCH_micro_valmod_round_faults.json``; in full
mode a round must fault in fewer than ``MAX_FAULTS_PER_ROUND`` pages,
which holds while Algorithms 3 and 4 take their blocks from the
context's workspace (``docs/KERNELS.md``).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from _common import bench_dataset, bench_grid, fast_mode, save_report, save_result_json
from repro.core.compute_mp import compute_matrix_profile
from repro.core.compute_submp import compute_submp
from repro.core.lower_bound import lower_bound_base
from repro.distance.mass import mass
from repro.distance.profile import naive_distance_profile
from repro.distance.sliding import moving_mean_std, sliding_dot_product
from repro.harness.reporting import format_table
from repro.kernels import DEFAULT_BLOCK_ROWS, SeriesContext, blocked_stomp
from repro.matrixprofile import stomp
from repro.matrixprofile.exclusion import contributing_cells, exclusion_zone_half_width


@pytest.fixture(scope="module")
def series():
    return bench_dataset("ECG", bench_grid().default_size, seed=0)


@pytest.fixture(scope="module")
def length():
    return bench_grid().default_length


def test_micro_mass(benchmark, series, length):
    benchmark(mass, series, 100, length)


def test_micro_naive_profile_reference(benchmark, series, length):
    # The O(n l) reference MASS is measured against (same output).
    short = series[:1024]
    benchmark(naive_distance_profile, short, 100, length)


def test_micro_sliding_dot_product(benchmark, series, length):
    query = series[:length]
    benchmark(sliding_dot_product, query, series)


def test_micro_moving_stats(benchmark, series, length):
    benchmark(moving_mean_std, series, length)


def test_micro_lower_bound_kernel(benchmark, series, length):
    rng = np.random.default_rng(0)
    correlations = rng.uniform(-1, 1, series.size - length + 1)
    benchmark(lower_bound_base, correlations, length, 1.0)


def test_micro_full_stomp(benchmark, series, length):
    benchmark.pedantic(stomp, args=(series, length), iterations=1, rounds=3)


def test_micro_compute_mp_with_listdp(benchmark, series, length):
    benchmark.pedantic(
        compute_matrix_profile, args=(series, length, 50), iterations=1, rounds=3
    )


def test_micro_compute_submp_step(benchmark, series, length):
    def one_step():
        _, store = compute_matrix_profile(series, length, 50)
        return compute_submp(series, store, length + 1)

    result = benchmark.pedantic(one_step, iterations=1, rounds=3)
    assert result.sub_profile.size == series.size - length


# ---------------------------------------------------------------------------
# Blocked diagonal kernel vs rowwise STOMP (ISSUE: micro_stomp_blocked_vs_rowwise)
# ---------------------------------------------------------------------------

#: block sizes swept in the full run (smoke keeps the first and default).
BLOCK_SIZES = (16, 32, 64, 128)

#: the block-size sweep: a window on the GEMM path, where B sizes blocks.
FULL_N, FULL_LENGTH = 16_384, 64
SMOKE_N, SMOKE_LENGTH = 3_072, 64

#: one window above DIRECT_DOT_MAX: the shared recurrence, B unused.
FULL_RECURRENCE_LENGTH, SMOKE_RECURRENCE_LENGTH = 256, 96

#: floor for blocked-f64 over rowwise at the default block size (full mode).
MIN_SPEEDUP = 2.0

#: short windows, at or below DIRECT_DOT_MAX: blocked_stomp's GEMM path.
SHORT_N, SHORT_LENGTHS = 2_000, (32, 64)


def _best_seconds(fn, rounds):
    """Min-of-rounds wall clock: robust to scheduler noise on small boxes."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_micro_stomp_blocked_vs_rowwise(benchmark):
    smoke = fast_mode()
    n = SMOKE_N if smoke else FULL_N
    length = SMOKE_LENGTH if smoke else FULL_LENGTH
    recurrence_length = SMOKE_RECURRENCE_LENGTH if smoke else FULL_RECURRENCE_LENGTH
    rounds = 1 if smoke else 3
    block_sizes = (BLOCK_SIZES[0], DEFAULT_BLOCK_ROWS) if smoke else BLOCK_SIZES

    series = bench_dataset("ECG", n, seed=7)
    ctx = SeriesContext(series)
    n_subs = series.size - length + 1
    cells = contributing_cells(n_subs, exclusion_zone_half_width(length))

    reference = stomp(series, length, context=ctx)

    def sweep():
        rows = [("rowwise", _best_seconds(lambda: stomp(series, length, context=ctx), rounds))]
        for block in block_sizes:
            rows.append(
                (
                    f"blocked B={block}",
                    _best_seconds(
                        lambda b=block: blocked_stomp(series, length, block_rows=b, context=ctx),
                        rounds,
                    ),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)

    # Correctness stays pinned to the timing run: the default-block profile
    # must match the rowwise engine to rounding.
    blocked_mp = blocked_stomp(series, length, context=ctx)
    np.testing.assert_allclose(
        blocked_mp.profile, reference.profile, rtol=0.0, atol=1e-8
    )

    recurrence_reference = stomp(series, recurrence_length, context=ctx)
    np.testing.assert_allclose(
        blocked_stomp(series, recurrence_length, context=ctx).profile,
        recurrence_reference.profile, rtol=0.0, atol=1e-8,
    )
    recurrence_rowwise = _best_seconds(
        lambda: stomp(series, recurrence_length, context=ctx), rounds
    )
    recurrence_blocked = _best_seconds(
        lambda: blocked_stomp(series, recurrence_length, context=ctx), rounds
    )
    recurrence_cells = contributing_cells(
        series.size - recurrence_length + 1,
        exclusion_zone_half_width(recurrence_length),
    )
    recurrence = {
        "series_size": int(series.size),
        "length": recurrence_length,
        "cells": int(recurrence_cells),
        "rowwise_seconds": recurrence_rowwise,
        "blocked_seconds": recurrence_blocked,
        "speedup_vs_rowwise": recurrence_rowwise / recurrence_blocked,
    }

    short_series = bench_dataset("ECG", SHORT_N, seed=7)
    short_ctx = SeriesContext(short_series)
    short_rows = []
    for short_length in SHORT_LENGTHS:
        rowwise_mp = stomp(short_series, short_length, context=short_ctx)
        np.testing.assert_allclose(
            blocked_stomp(short_series, short_length, context=short_ctx).profile,
            rowwise_mp.profile, rtol=0.0, atol=1e-8,
        )
        short_rowwise = _best_seconds(
            lambda: stomp(short_series, short_length, context=short_ctx), 3
        )
        short_blocked = _best_seconds(
            lambda: blocked_stomp(short_series, short_length, context=short_ctx), 3
        )
        short_rows.append(
            {
                "series_size": SHORT_N,
                "length": short_length,
                "rowwise_seconds": short_rowwise,
                "blocked_seconds": short_blocked,
                "speedup_vs_rowwise": short_rowwise / short_blocked,
            }
        )

    rowwise_seconds = rows[0][1]
    payload = {
        "bench": "micro_stomp_blocked_vs_rowwise",
        "series_size": int(series.size),
        "length": int(length),
        "n_subs": int(n_subs),
        "cells": int(cells),
        "default_block_rows": int(DEFAULT_BLOCK_ROWS),
        "smoke": smoke,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "engines": [],
        "recurrence": recurrence,
        "short_windows": short_rows,
    }
    report_rows = []
    default_speedup = None
    for label, seconds in rows:
        cps = cells / seconds if seconds > 0 else float("inf")
        speedup = rowwise_seconds / seconds if seconds > 0 else float("inf")
        if label == f"blocked B={DEFAULT_BLOCK_ROWS}":
            default_speedup = speedup
        payload["engines"].append(
            {
                "engine": label,
                "seconds": seconds,
                "cells_per_second": cps,
                "speedup_vs_rowwise": speedup,
            }
        )
        report_rows.append((label, f"{seconds:.3f}", f"{cps:.3e}", f"{speedup:.2f}x"))

    save_report(
        "micro_stomp_blocked_vs_rowwise",
        format_table(
            ["engine", "seconds", "cells/second", "speedup vs rowwise"], report_rows
        )
        + f"\nseries={series.size} length={length} cells={cells} smoke={smoke}\n"
        + format_table(
            ["series", "length", "rowwise s", "blocked s", "speedup vs rowwise"],
            [
                (
                    str(recurrence["series_size"]), str(recurrence["length"]),
                    f"{recurrence_rowwise:.3f}", f"{recurrence_blocked:.3f}",
                    f"{recurrence['speedup_vs_rowwise']:.2f}x",
                )
            ],
        )
        + "\n"
        + format_table(
            ["series", "length", "rowwise s", "blocked s", "speedup vs rowwise"],
            [
                (
                    str(row["series_size"]), str(row["length"]),
                    f"{row['rowwise_seconds']:.4f}", f"{row['blocked_seconds']:.4f}",
                    f"{row['speedup_vs_rowwise']:.2f}x",
                )
                for row in short_rows
            ],
        ),
    )
    save_result_json("BENCH_micro_stomp_blocked_vs_rowwise", payload)

    assert default_speedup is not None
    if not smoke:
        # The acceptance bar: blocked f64 at the default block size, and
        # on the recurrence, must be at least MIN_SPEEDUP faster than the
        # rowwise schedule.
        assert default_speedup >= MIN_SPEEDUP, (
            f"blocked B={DEFAULT_BLOCK_ROWS} speedup {default_speedup:.2f}x "
            f"below the {MIN_SPEEDUP:.1f}x bar"
        )
        assert recurrence["speedup_vs_rowwise"] >= MIN_SPEEDUP, (
            f"blocked l={recurrence_length} speedup "
            f"{recurrence['speedup_vs_rowwise']:.2f}x below the {MIN_SPEEDUP:.1f}x bar"
        )


# ---------------------------------------------------------------------------
# Fresh pages in one emg_motifs-shaped VALMOD round
# ---------------------------------------------------------------------------

#: one round is ``valmod`` on each of a pool of EMG series, the shape of
#: the benchmark of record's ``emg_motifs`` workload (Algorithm 4's
#: partial recompute dominates: the bounds collapse on EMG).
VALMOD_POOL, VALMOD_N = 8, 2000
SMOKE_VALMOD_POOL, SMOKE_VALMOD_N = 2, 1000
VALMOD_LENGTHS, VALMOD_P = (32, 48), 50

#: full-mode ceiling on minor page faults per round; 9.0.0, which
#: allocated every block afresh, took 45,000-154,000 depending on the
#: heap's layout.
MAX_FAULTS_PER_ROUND = 20_000

#: the environment variables the round's interpreter inherits.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: the rounds run in a fresh interpreter that imports only NumPy and
#: ``repro``, as the benchmark of record's worker does.  Page faults
#: depend on the malloc heap's history: inside a pytest session, whose
#: heap already holds slack from earlier tests, 9.0.0 faults only
#: 6,000-14,000 pages per round, so this bench would not see the cost.
ROUND_SCRIPT = """
import json, resource, sys, time
from repro import valmod
from repro.datasets import load_dataset

pool, n, l_min, l_max, p, rounds = map(int, sys.argv[1:])
inputs = [load_dataset("EMG", n, seed=i) for i in range(pool)]

def one_round():
    for x in inputs:
        valmod(x, l_min, l_max, p=p)

one_round()  # warm-up: imports, BLAS buffers, the allocator's heap
seconds, faults = [], []
for _ in range(rounds):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    one_round()
    seconds.append(time.perf_counter() - start)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"seconds": seconds, "faults": faults}))
"""


def test_micro_valmod_round_faults(benchmark):
    pytest.importorskip("resource")
    smoke = fast_mode()
    pool, n = (SMOKE_VALMOD_POOL, SMOKE_VALMOD_N) if smoke else (VALMOD_POOL, VALMOD_N)
    rounds = 2 if smoke else 5
    l_min, l_max = VALMOD_LENGTHS
    src = str(Path(__file__).resolve().parents[1] / "src")
    # The count moves with the heap's layout, which moves even with the
    # size of the environment: the interpreter gets exactly ``src`` as its
    # PYTHONPATH and the BLAS thread settings, whatever the caller's.
    env = {k: v for k, v in os.environ.items() if k in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = src
    args = [str(v) for v in (pool, n, l_min, l_max, VALMOD_P, rounds)]

    def measure():
        done = subprocess.run(
            [sys.executable, "-c", ROUND_SCRIPT, *args],
            env=env, capture_output=True, text=True, check=True, timeout=600,
        )
        return json.loads(done.stdout.strip().splitlines()[-1])

    result = benchmark.pedantic(measure, iterations=1, rounds=1)
    seconds, faults = result["seconds"], result["faults"]
    payload = {
        "bench": "micro_valmod_round_faults",
        "pool": pool,
        "series_size": n,
        "l_min": l_min,
        "l_max": l_max,
        "p": VALMOD_P,
        "smoke": smoke,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "round_seconds": seconds,
        "best_round_seconds": min(seconds),
        "minor_faults_per_round": faults,
        "median_minor_faults": float(np.median(faults)),
    }
    save_report(
        "micro_valmod_round_faults",
        format_table(
            ["round", "seconds", "minor faults"],
            [(str(k), f"{s:.3f}", str(f)) for k, (s, f) in enumerate(zip(seconds, faults))],
        )
        + f"\npool={pool} n={n} lengths={l_min}-{l_max} p={VALMOD_P} smoke={smoke}\n",
    )
    save_result_json("BENCH_micro_valmod_round_faults", payload)
    if not smoke:
        assert max(faults) < MAX_FAULTS_PER_ROUND, (
            f"a round faulted in {max(faults)} pages, "
            f"over the {MAX_FAULTS_PER_ROUND} ceiling"
        )
