"""Compare two result files of the VALMOD benchmark of record.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

One row per workload and metric, every ratio printed with its base:

* end-to-end metrics (``end_to_end`` in BENCHMARK.json) are checked
  against their bound.  A new value worse than the base by more than the
  bound is a regression.  When either run's interquartile spread is wider
  than the bound, the metric is *unresolved* (reported, not failed),
  unless every sample of the new run is better than every sample of the
  base.
* work counts (unit ``count``) must be identical.
* the share of failed operations may not rise.
* other per-layer metrics are printed as ratios and not gated.

The exit code is 1 on a regression, a count mismatch or a rise in failed
operations, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]


def ratio_text(base: float, new: float, unit: str) -> str:
    ratio = f"{new / base:.3f}" if base else "n/a"
    return f"{new:.6g} vs base {base:.6g} {unit}: ratio {ratio}"


def worse_share(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0
    return (new - base) / base if better == "lower" else (base - new) / base


def all_better(base: List[float], new: List[float], better: str) -> bool:
    """True when every sample of ``new`` beats every sample of ``base``."""
    if not base or not new:
        return False
    return max(new) < min(base) if better == "lower" else min(new) > max(base)


def compare_workload(
    name: str, base: Dict[str, Any], new: Dict[str, Any], catalog: Dict[str, Any]
) -> List[str]:
    """Print one workload's rows; return the reasons it fails (if any)."""
    failures = []
    base_share = base["failed"] / max(base["attempted"], 1)
    new_share = new["failed"] / max(new["attempted"], 1)
    print(
        f"{name}: failed {new['failed']}/{new['attempted']} "
        f"vs base {base['failed']}/{base['attempted']}"
    )
    if new_share > base_share:
        failures.append(f"{name}: failed operations rose to {new_share:.3%}")

    for spec in catalog["end_to_end"]:
        metric = spec["name"]
        if metric not in base["metrics"] or metric not in new["metrics"]:
            continue
        b, n = base["metrics"][metric], new["metrics"][metric]
        bound = spec["bound"]
        worse = worse_share(b["value"], n["value"], spec["better"])
        spread = max(b.get("spread", 0.0), n.get("spread", 0.0))
        if spread > bound:
            better = all_better(b.get("samples", []), n.get("samples", []), spec["better"])
            verdict = "better (every sample)" if better else "unresolved (spread > bound)"
        elif worse > bound:
            verdict = f"REGRESSION (worse by {worse:.1%})"
            failures.append(f"{name} {metric}: worse by {worse:.1%} > bound {bound:.0%}")
        else:
            verdict = "ok"
        print(
            f"  {metric:<12} {ratio_text(b['value'], n['value'], spec['unit'])}"
            f"  bound {bound:.0%}  spread {spread:.1%}  {verdict}"
        )

    same = 0
    for spec in catalog["per_layer"]:
        metric = spec["name"]
        if metric not in base["metrics"] or metric not in new["metrics"]:
            continue
        b, n = base["metrics"][metric]["value"], new["metrics"][metric]["value"]
        if spec["unit"] == "count":
            if b == n:
                same += 1
            else:
                print(f"  {metric:<40} count {n} vs base {b}  MISMATCH")
                failures.append(f"{name} {metric}: count {n} != base {b}")
        elif b or n:
            print(f"  {metric:<40} {ratio_text(b, n, spec['unit'])}")
    if same:
        print(f"  {same} work counts identical")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    catalog = json.loads(args.benchmark.read_text())
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    for label, doc in (("base", base), ("new", new)):
        p = doc.get("provenance", {})
        print(f"{label}: {p.get('git_sha', '?')[:12]} seed {p.get('seed')} "
              f"tracing {p.get('tracing')} {p.get('timestamp', '')}")

    failures: List[str] = []
    for name in base["workloads"]:
        if name not in new["workloads"]:
            print(f"{name}: missing from the new run")
            failures.append(f"{name}: missing")
            continue
        failures += compare_workload(name, base["workloads"][name], new["workloads"][name], catalog)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
