"""Process side of the benchmark: set up, say ready, measure, check.

``run.py`` starts this script with one JSON argument and reads its
standard output; the last line is one JSON object.

``prepare`` mode finds the reference for the inputs of a seed, committed
under ``reference/`` or cached under ``.cache/``, or builds it into the
cache.  It is not timed.

``measure`` mode first prints ``ready``, once set-up is done: interpreter
start, imports, input generation, reference load and one warm-up call on
a 1000-point input.  It then runs rounds (one call on every input of the
pool) for ``budget_s`` seconds and reports the call times, the operations
checked and the peak resident memory.  With ``trace`` set, it runs one
untraced round and the STOMP-per-length baseline first, then traced
rounds (see ``layers.py``) for the rest of the budget.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

import layers
import workloads
from repro import stomp

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
CACHE_DIR = HERE / ".cache"

#: problems kept per worker in the result (all are counted).
MAX_PROBLEMS = 20


def workload_of(cfg: Dict[str, Any]) -> Any:
    table = workloads.SMOKE if cfg["smoke"] else workloads.WORKLOADS
    return table[cfg["workload"]]


def reference_paths(cfg: Dict[str, Any]) -> List[Path]:
    """Committed reference first (full sizes only), then the cache."""
    stem = f"{cfg['workload']}-seed{cfg['seed']}"
    if cfg["smoke"]:
        return [CACHE_DIR / f"{stem}-smoke.json"]
    return [REFERENCE_DIR / f"{stem}.json", CACHE_DIR / f"{stem}.json"]


def prepare(cfg: Dict[str, Any]) -> Dict[str, Any]:
    workload = workload_of(cfg)
    inputs = workload.inputs(cfg["seed"])
    digest = workloads.input_digest(workload, inputs)
    paths = reference_paths(cfg)
    for path in paths:
        if path.is_file() and json.loads(path.read_text())["input_sha256"] == digest:
            return {"reference": str(path), "built": False}
    start = time.perf_counter()
    reference = {
        "workload": workload.name,
        "seed": cfg["seed"],
        "smoke": cfg["smoke"],
        "input_sha256": digest,
        "config": asdict(workload),
        "numpy": np.__version__,
        "inputs": [workload.reference(x) for x in inputs],
    }
    target = paths[-1]
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_name(f".{target.name}.{os.getpid()}")
    partial.write_text(json.dumps(reference, indent=1) + "\n")
    os.replace(partial, target)
    return {"reference": str(target), "built": True, "build_s": time.perf_counter() - start}


def timed_rounds(
    workload: Any,
    inputs: List[np.ndarray],
    budget_s: float,
    recorder: Optional[layers.Recorder] = None,
) -> Dict[str, Any]:
    """Whole rounds until the budget is spent (at least one).

    A new round starts only while the expected end of that round is
    nearer the budget than stopping now, so a run measures close to
    ``budget_s`` seconds whatever the round length.
    """
    clock = time.perf_counter
    times: List[List[float]] = [[] for _ in inputs]
    outputs = []
    extra: Dict[str, List[float]] = {}
    rounds = 0
    start = clock()
    while True:
        round_start = clock()
        for i, x in enumerate(inputs):
            if recorder is not None:
                recorder.begin((rounds, i))
            call_start = clock()
            try:
                result, samples = workload.run(x)
            except Exception:  # a raising call is a failed operation, not a crash
                result, samples = traceback.format_exc(limit=3), {}
            times[i].append(clock() - call_start)
            if recorder is not None:
                recorder.end()
            outputs.append((i, result if isinstance(result, str) else workload.output(result)))
            for key, values in samples.items():
                extra.setdefault(key, []).extend(values)
        rounds += 1
        last = clock() - round_start
        if clock() - start + last / 2 >= budget_s:
            break
    return {"times": times, "rounds": rounds, "outputs": outputs, "extra": extra}


def check(workload: Any, inputs: List[np.ndarray], outputs: list, reference: Dict[str, Any]) -> Dict[str, Any]:
    attempted = failed = 0
    problems: List[str] = []
    for i, output in outputs:
        if isinstance(output, str):
            tried = wrong = workload.operations()
            found = [f"raised: {output}"]
        else:
            tried, wrong, found = workload.check(inputs[i], output, reference["inputs"][i])
        attempted += tried
        failed += wrong
        problems += [f"input {i}: {text}" for text in found][: MAX_PROBLEMS - len(problems)]
    return {"attempted": attempted, "failed": failed, "problems": problems}


def stomp_per_length(workload: Any, inputs: List[np.ndarray]) -> float:
    """Σ over the pool of STOMP's seconds per length (mean of l_min, l_max)."""
    total = 0.0
    for x in inputs:
        for length in (workload.l_min, workload.l_max):
            start = time.perf_counter()
            stomp(x, length)
            total += (time.perf_counter() - start) / 2
    return total


def measure(cfg: Dict[str, Any]) -> Dict[str, Any]:
    workload = workload_of(cfg)
    inputs = workload.inputs(cfg["seed"])
    reference = json.loads(Path(cfg["reference"]).read_text())
    if reference["input_sha256"] != workloads.input_digest(workload, inputs):
        raise SystemExit(f"reference {cfg['reference']} was built for other inputs")
    workload.warmup()
    print("ready", flush=True)

    result: Dict[str, Any] = {"numpy": np.__version__}
    if not cfg["trace"]:
        run = timed_rounds(workload, inputs, cfg["budget_s"])
    else:
        start = time.perf_counter()
        untraced = timed_rounds(workload, inputs, 0.0)
        untraced_s = sum(t[0] for t in untraced["times"])
        baseline = stomp_per_length(workload, inputs) if workload.kind == "motifs" else 0.0
        recorder = layers.Recorder()
        recorder.install()
        try:
            run = timed_rounds(
                workload, inputs, cfg["budget_s"] - (time.perf_counter() - start), recorder
            )
        finally:
            recorder.uninstall()
        traced = layers.summarize(recorder, run["rounds"], run["extra"], untraced_s)
        lengths = workload.l_max - workload.l_min + 1
        traced["metrics"]["baseline.stomp_s_per_length"] = baseline
        traced["metrics"]["baseline.speedup_vs_stomp"] = (
            baseline * lengths / untraced_s if baseline else 0.0
        )
        result["traced"] = traced
    outputs = run["outputs"] if not cfg["trace"] else untraced["outputs"] + run["outputs"]
    result.update(check(workload, inputs, outputs, reference))
    result.update(
        config=asdict(workload),
        times=run["times"],
        rounds=run["rounds"],
        extra=run["extra"],
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


def main() -> None:
    cfg = json.loads(sys.argv[1])
    result = prepare(cfg) if cfg["mode"] == "prepare" else measure(cfg)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
