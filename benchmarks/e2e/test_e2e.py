"""Tests of the benchmark itself: output schema, compare.py and tracing.

Run from the repository root (about a minute)::

    python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import copy
import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CATALOG["workloads"]]


def run(*args: object) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *map(str, args)], cwd=ROOT, capture_output=True, text=True, timeout=170
    )


def last_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "smoke.json"
    line = last_line(run(HERE / "run.py", "--smoke", "--out", path))
    return line, json.loads(path.read_text()), path


def test_smoke_run_prints_every_metric_and_checks_outputs(smoke):
    line, doc, _ = smoke
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    expected = {
        f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in CATALOG["end_to_end"]
    }
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())

    assert set(doc["workloads"]) == set(WORKLOADS)
    for key in ("git_sha", "seed", "python", "numpy", "cpus_available", "blas_env", "tracing"):
        assert key in doc["provenance"]
    for result in doc["workloads"].values():
        assert result["correct"] and result["calls"] >= 1
        assert result["metrics"]["run_s"]["samples"]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_one_workload_prints_exactly_its_metric_set(trace, key):
    line = last_line(
        run(HERE / "run.py", "--smoke", "--workload", "sine_stream",
            "--seed", 1, "--seconds", 0.5, "--trace", trace)
    )
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in CATALOG[key]}


def test_run_without_the_program_fails_without_a_result(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "benchmarks" / "e2e").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(CATALOG))
    for name in ("run.py", "worker.py", "layers.py", "workloads.py"):
        (bare / "benchmarks" / "e2e" / name).write_text((HERE / name).read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ecg_motifs", "--seed", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_compare_passes_identical_files(smoke):
    _, _, path = smoke
    done = run(HERE / "compare.py", path, path)
    assert done.returncode == 0, done.stdout


def _steady(doc: dict) -> dict:
    """A copy with one sample per metric, so no spread hides a change."""
    doc = copy.deepcopy(doc)
    for result in doc["workloads"].values():
        for m in result["metrics"].values():
            m["samples"] = [m["value"]]
            m["spread"] = 0.0
    return doc


@pytest.mark.parametrize("factor, code", [(0.9, 0), (1.2, 0), (1.3, 1)])
def test_compare_fails_run_s_worse_than_its_bound(smoke, tmp_path, factor, code):
    _, doc, _ = smoke
    bound = next(m["bound"] for m in CATALOG["end_to_end"] if m["name"] == "run_s")
    assert 1.2 - 1 < bound < 1.3 - 1
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_steady(doc)))
    changed = _steady(doc)
    changed["workloads"]["ecg_motifs"]["metrics"]["run_s"]["value"] *= factor
    new.write_text(json.dumps(changed))
    done = run(HERE / "compare.py", base, new)
    assert done.returncode == code, done.stdout
    assert f"ratio {factor:.3f}" in done.stdout
    assert ("REGRESSION" in done.stdout) == bool(code)


def _counts_doc(cells: int, failed: int = 0) -> dict:
    metrics = {"compute_mp.cells": {"value": cells, "unit": "count"}}
    return {"workloads": {"ecg_motifs": {"attempted": 10, "failed": failed, "metrics": metrics}}}


@pytest.mark.parametrize(
    "new, words",
    [(_counts_doc(101), "MISMATCH"), (_counts_doc(100, failed=1), "failed operations rose")],
)
def test_compare_fails_a_changed_count_or_more_failures(tmp_path, new, words):
    base_path, new_path = tmp_path / "base.json", tmp_path / "new.json"
    base_path.write_text(json.dumps(_counts_doc(100)))
    new_path.write_text(json.dumps(new))
    done = run(HERE / "compare.py", base_path, new_path)
    assert done.returncode == 1
    assert words in done.stdout


@pytest.fixture
def importable(monkeypatch):
    """The program and the benchmark's modules on the import path."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))


@pytest.mark.parametrize("name", ["ecg_motifs", "bump_discords"])
def test_checks_fail_wrong_outputs(importable, name):
    import workloads

    workload = workloads.SMOKE[name]
    series = workload.inputs(0)[0]
    reference = workload.reference(series)
    output = workload.output(workload.run(series)[0])
    assert workload.check(series, output, reference)[1] == 0

    if workload.kind == "motifs":
        a, b, distance = output[workload.l_min]
        moved = {**output, workload.l_min: [a + 1, b, distance]}
        farther = {**output, workload.l_min: [a, b, distance * (1 + 1e-5)]}
    else:
        start, length, distance = output[0]
        moved = [[start + 7, length, distance]] + output[1:]
        farther = [[start, length, distance * (1 + 1e-5)]] + output[1:]
    for wrong in (moved, farther):
        assert workload.check(series, wrong, reference)[1] == 1


def test_missing_target_is_not_measured_and_wrappers_are_removed(importable):
    import layers
    import repro

    # ``repro.core.valmod`` the attribute is the function; this is the module.
    valmod_module = importlib.import_module("repro.core.valmod")
    original = valmod_module.compute_matrix_profile
    targets = layers.TARGETS + (("valmod", "repro.core.valmod", "Valmod.gone"),)
    recorder = layers.Recorder(targets)
    series = np.random.default_rng(0).standard_normal(600)
    assert recorder.install() == ["Valmod.gone"]
    try:
        recorder.begin((0, 0))
        repro.valmod(series, 16, 24)
        recorder.end()
    finally:
        recorder.uninstall()
    assert valmod_module.compute_matrix_profile is original

    summary = layers.summarize(recorder, 1, {}, untraced_round_s=1.0)
    assert "valmod.s" in summary["not_measured"]
    assert summary["metrics"]["valmod.s"] == 0.0
    assert "compute_mp.s" not in summary["not_measured"]
    assert summary["metrics"]["compute_mp.calls"] == 1
    assert summary["metrics"]["compute_mp.rows"] == 600 - 16 + 1
    for rep in summary["reps"]:
        assert abs(rep["layer_self_s"] + rep["unattributed_s"] - rep["wall_s"]) <= 0.02 * rep["wall_s"]
