"""VALMOD benchmark of record: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0            # all workloads -> results/BENCH_valmod_e2e.json
    python3 benchmarks/e2e/run.py --seed 0 --trace    # per-layer run -> results/TRACE_valmod_e2e.json
    python3 benchmarks/e2e/run.py --workload ecg_motifs --seed 3 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --smoke --out /tmp/smoke.json   # small sizes, under a minute

Every workload runs in fresh processes (``worker.py``), one process at a
time: a closed loop with one client, ``n_jobs=1`` on every call and BLAS
threads pinned to 1, so nothing the benchmark starts competes for a CPU.
An untraced run starts three measured processes in turn, each measuring
a third of ``--seconds``; set-up time and peak memory are their medians.
A traced run starts one process.  Every output is checked against a
reference (see ``workloads.py``); a result is printed only when the run
completed.

The metric names, units and bounds come from ``BENCHMARK.json`` at the
repository root.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

This file imports only the standard library (and ``layers.py``, which is
standard-library only too): the program is loaded in the workers alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

#: measured processes per untraced run; set-up time and memory are medians.
WORKERS = 3

#: a run, with its set-up, ends within this many seconds or fails.
TIME_LIMIT_S = 170.0

#: the environment every worker gets: the program from this checkout,
#: one BLAS thread, and none of the program's own REPRO_* switches.
BLAS_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(Exception):
    """The run could not complete; no result is printed."""


def worker_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(BLAS_ENV, PYTHONPATH=str(ROOT / "src"))
    return env


def spawn(cfg: Dict[str, Any], deadline: float) -> Tuple[Dict[str, Any], Optional[float]]:
    """Run one worker; return its result and its spawn-to-ready seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        env=worker_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        setup_s = None
        if cfg["mode"] != "prepare":
            with selectors.DefaultSelector() as selector:
                selector.register(proc.stdout, selectors.EVENT_READ)
                if not selector.select(max(0.0, deadline - time.perf_counter())):
                    raise BenchError(f"{cfg['workload']}: worker not ready before the time limit")
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            if line.strip() != "ready":
                raise BenchError(f"{cfg['workload']}: worker failed during set-up")
        try:
            out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{cfg['workload']}: worker exceeded the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{cfg['workload']}: worker exited with code {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1]), setup_s
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (0 below 2 samples)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def metric(value: float, unit: str, samples: Optional[List[float]] = None) -> Dict[str, Any]:
    out: Dict[str, Any] = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
        out["spread"] = spread(samples)
    return out


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, catalog: Dict[str, Any]
) -> Dict[str, Any]:
    """Prepare the reference, run the measured processes, aggregate."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    cfg = {"workload": name, "seed": seed, "smoke": smoke, "trace": trace}
    prepared, _ = spawn(dict(cfg, mode="prepare"), deadline)
    workers = 1 if trace else WORKERS
    cfg.update(mode="measure", reference=prepared["reference"], budget_s=seconds / workers)
    results = [spawn(cfg, deadline) for _ in range(workers)]

    runs = [r for r, _ in results]
    first = runs[0]
    out: Dict[str, Any] = {
        "config": first["config"],
        "reference": os.path.relpath(prepared["reference"], ROOT),
        "reference_built_s": prepared.get("build_s"),
        "numpy": first["numpy"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]][:20],
        "rounds": [r["rounds"] for r in runs],
    }
    out["correct"] = out["failed"] == 0 and out["attempted"] > 0
    units = {m["name"]: m["unit"] for m in catalog["end_to_end"] + catalog["per_layer"]}
    if trace:
        traced = first["traced"]
        values = traced.pop("metrics")
        out["metrics"] = {k: metric(v, units.get(k, "")) for k, v in values.items()}
        out.update(traced)
        entry = {"motifs": "valmod", "discords": "discords_variable", "stream": "streaming_valmod"}
        out["largest"] = {
            "self_s": layers.largest(values, ".self_s"),
            "s_below_entry": layers.largest(
                values, ".s", exclude=(entry[first["config"]["kind"]], "valmod")
            ),
        }
        return out

    inputs = len(first["times"])
    per_input = [[t for r in runs for t in r["times"][i]] for i in range(inputs)]
    round_totals = [
        sum(r["times"][i][k] for i in range(inputs)) for r in runs for k in range(r["rounds"])
    ]
    setups = [s for _, s in results]
    rss = [r["rss_mb"] for r in runs]
    out["calls"] = sum(len(s) for s in per_input)
    out["metrics"] = {
        "run_s": metric(sum(statistics.median(s) for s in per_input), units["run_s"], round_totals),
        "setup_s": metric(statistics.median(setups), units["setup_s"], setups),
        "peak_rss_mb": metric(statistics.median(rss), units["peak_rss_mb"], rss),
    }
    extra = {k: [v for r in runs for v in r["extra"].get(k, [])] for k in ("append_s", "refresh_s")}
    if extra["append_s"]:
        out["stream_latency"] = {
            "append_p50_us": statistics.median(extra["append_s"]) * 1e6,
            "refresh_p50_ms": statistics.median(extra["refresh_s"]) * 1e3,
            "appends": len(extra["append_s"]),
            "refreshes": len(extra["refresh_s"]),
        }
    return out


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def src_digest() -> str:
    """sha256 over the program's sources: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args: argparse.Namespace, seconds: float, numpy_version: str) -> Dict[str, Any]:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "seed": args.seed,
        "smoke": args.smoke,
        "tracing": bool(args.trace),
        "run_seconds": seconds,
        "workers_per_run": 1 if args.trace else WORKERS,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_env": BLAS_ENV,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    try:
        catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    workloads = [w["name"] for w in catalog["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (>= 0)")
    parser.add_argument("--seconds", type=float, help="measured seconds per workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): per-layer metrics from a traced run",
    )
    parser.add_argument("--smoke", action="store_true", help="small sizes, for tests")
    parser.add_argument("--out", type=Path, help="result file (all-workload runs)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        seconds = args.seconds or (1.0 if args.smoke else float(catalog["run_seconds"]))
        names = [args.workload] if args.workload else workloads
        key = "per_layer" if args.trace else "end_to_end"
        wanted = [m["name"] for m in catalog[key]]
        results = {}
        for name in names:
            result = run_workload(name, args.seed, seconds, bool(args.trace), args.smoke, catalog)
            absent = [m for m in wanted if m not in result["metrics"]]
            if absent:
                raise BenchError(f"{name}: metrics not produced: {', '.join(absent)}")
            results[name] = result
            verdict = "ok" if result["correct"] else "FAILED"
            passed = result["attempted"] - result["failed"]
            print(f"{name} (seed {args.seed}): ops {passed}/{result['attempted']} {verdict}")
            for problem in result["problems"]:
                print(f"  {problem}")
            for metric_name in wanted:
                m = result["metrics"][metric_name]
                note = " (not measured)" if metric_name in result.get("not_measured", ()) else ""
                print(f"  {metric_name} = {m['value']:.6g} {m['unit']}{note}")
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if args.workload is None and (args.out or not args.smoke):
        kind = "TRACE" if args.trace else "BENCH"
        path = args.out or RESULTS / f"{kind}_valmod_e2e.json"
        numpy_version = next(iter(results.values()))["numpy"]
        document = {
            "benchmark": "valmod_e2e",
            "kind": kind.lower(),
            "provenance": provenance(args, seconds, numpy_version),
            "workloads": results,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {os.path.relpath(path)}")

    # One workload: the metric names alone; all four: prefixed by workload.
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (m if args.workload else f"{name}.{m}"): {
                k: r["metrics"][m][k] for k in ("value", "unit")
            }
            for name, r in results.items()
            for m in wanted
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
