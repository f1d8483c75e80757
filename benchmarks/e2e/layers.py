"""Per-layer spans for the traced run, recorded from the benchmark's files.

The program has its own tracer (``repro.obs``), but later changes are
expected to edit it, and the benchmark of record must keep measuring the
same thing across them.  So the traced run wraps the public functions of
each layer from outside.  ``from x import f`` copies the binding, so
patching the defining module alone would miss its callers: every binding
of a listed function in the loaded ``repro`` modules is replaced, methods
are replaced on their class, and :meth:`Recorder.uninstall` restores every
original.

Spans stay in memory as ``[target, start, end, parent, run]`` rows; a run
is one call of the workload (round, input) and its root span is the call
itself.  A layer's self time is its spans' durations minus the time their
child spans cover; the root's self time is the unattributed remainder.

A target that no longer exists (a later change deleted it) is skipped:
its layer's metrics are reported as "not measured" and the run completes.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (layer, module, qualified name) of every wrapped public call.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("valmod", "repro.core.valmod", "Valmod.run"),
    ("compute_mp", "repro.core.compute_mp", "compute_matrix_profile"),
    ("compute_submp", "repro.core.compute_submp", "compute_submp"),
    ("compute_submp", "repro.core.compute_submp", "pairwise_entry_distances"),
    ("entries", "repro.core.entries", "EntryStore.advance_to"),
    ("entries", "repro.core.entries", "EntryStore.fill_row"),
    ("distance", "repro.distance.mass", "mass_with_stats"),
    ("context", "repro.kernels.context", "SeriesContext.sliding_dot_product"),
    ("context", "repro.kernels.context", "SeriesContext.moving_mean_std"),
    ("valmp", "repro.core.valmp", "VALMP.update"),
    ("valmp", "repro.core.valmp", "VALMP.record_pairs"),
    ("engine", "repro.matrixprofile.registry", "compute_with"),
    ("discords_variable", "repro.core.discords_variable", "find_discords_pruned"),
    ("discords_variable", "repro.core.discords_variable", "length_upper_bound"),
    ("streaming_valmod", "repro.matrixprofile.streaming_valmod", "StreamingValmod.append"),
    ("streaming_valmod", "repro.matrixprofile.streaming_valmod", "StreamingValmod.motifs"),
    ("streaming_valmod", "repro.matrixprofile.streaming_valmod", "StreamingValmod.discords"),
    ("streaming_stats", "repro.kernels.streaming_stats", "StreamingSeriesStats.append"),
    ("streaming_stats", "repro.kernels.streaming_stats", "StreamingSeriesStats.evict"),
    ("streaming_stats", "repro.kernels.streaming_stats", "StreamingSeriesStats.mean_std"),
    ("streaming_stats", "repro.kernels.streaming_stats", "StreamingSeriesStats.series"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: the discord searches whose engine calls are recomputed lengths.
DISCORD_SEARCHES = ("find_discords_pruned", "StreamingValmod.discords")

ROOT = -1


def _arg(args: Sequence[Any], kwargs: Dict[str, Any], position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


def _profile_rows(args: Sequence[Any], kwargs: Dict[str, Any], offset: int) -> int:
    """Subsequences of the (series, length) pair at ``offset`` of a call."""
    series = _arg(args, kwargs, offset, "series")
    length = _arg(args, kwargs, offset + 1, "length")
    return len(series) - int(length) + 1


#: work counts read from a call's arguments and result, by target.
INFO: Dict[str, Callable[[Sequence[Any], Dict[str, Any], Any], Dict[str, float]]] = {
    "Valmod.run": lambda a, k, r: dict(Counter(s.mode for s in r.stats.per_length)),
    "compute_matrix_profile": lambda a, k, r: {"rows": _profile_rows(a, k, 0)},
    "compute_submp": lambda a, k, r: {
        "valid": r.n_valid,
        "profiles": r.sub_profile.size,
        "recomputed": r.n_recomputed,
    },
    "compute_with": lambda a, k, r: {"rows": _profile_rows(a, k, 1)},
    "find_discords_pruned": lambda a, k, r: {
        "scanned": _arg(a, k, 2, "l_max") - _arg(a, k, 1, "l_min") + 1
    },
    "StreamingValmod.discords": lambda a, k, r: {"scanned": a[0].l_max - a[0].l_min + 1},
    "StreamingSeriesStats.evict": lambda a, k, r: {"evicted": _arg(a, k, 1, "count")},
}


class Recorder:
    """Installs the span wrappers and keeps the spans of the traced run."""

    def __init__(self, targets: Sequence[Tuple[str, str, str]] = TARGETS) -> None:
        self.targets = tuple(targets)
        self.names = [qualname for _, _, qualname in self.targets]
        self.spans: List[list] = []
        self.info: Dict[int, Dict[str, float]] = {}
        self.missing: List[str] = []
        self._stack = [ROOT]
        self._restore: List[Tuple[Any, str, Any]] = []
        self._run: Any = None

    # -- installing -----------------------------------------------------

    def install(self) -> List[str]:
        """Wrap every target that exists; return the qualified names missing."""
        for index, (_, module_name, qualname) in enumerate(self.targets):
            try:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    class_name, attr = qualname.split(".")
                    owner = getattr(module, class_name)
                    original = owner.__dict__[attr]
                else:
                    owner, attr = None, qualname
                    original = getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(qualname)
                continue
            wrapper = self._wrap(original, index)
            if owner is not None:
                self._replace(owner, attr, original, wrapper)
                continue
            for loaded in list(sys.modules.values()):
                name = getattr(loaded, "__name__", "")
                if name != "repro" and not name.startswith("repro."):
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, binding, original, wrapper)
        return list(self.missing)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def _wrap(self, original: Callable[..., Any], index: int) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = INFO.get(self.names[index])
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            position = len(spans)
            span = [index, 0.0, 0.0, stack[-1], recorder._run]
            spans.append(span)
            stack.append(position)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                try:
                    recorder.info[position] = info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # The call's signature or result changed shape: its
                    # work counts are unknown, so its layer is not measured.
                    if recorder.names[index] not in recorder.missing:
                        recorder.missing.append(recorder.names[index])
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    # -- recording ------------------------------------------------------

    def begin(self, run: Any) -> None:
        """Open the root span of one call of the workload."""
        self._run = run
        self.spans.append([ROOT, 0.0, 0.0, ROOT, run])
        self._stack.append(len(self.spans) - 1)
        self.spans[-1][1] = time.perf_counter()

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._run = None


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _round_metrics(work: Counter, calls: Counter, total: Counter, layer: Dict[str, Counter]) -> Dict[str, float]:
    """Every span-derived metric of one round, from its accumulated sums."""
    out: Dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = layer["calls"][name]
        out[f"{name}.s"] = layer["s"][name]
        out[f"{name}.self_s"] = layer["self_s"][name]
    for mode in ("initial", "submp", "submp-partial", "full-recompute"):
        out[f"valmod.lengths.{mode}"] = work[f"Valmod.run:{mode}"]
    out["compute_mp.rows"] = work["compute_matrix_profile:rows"]
    out["compute_mp.cells"] = work["compute_matrix_profile:cells"]
    out["compute_mp.cells_per_s"] = _ratio(out["compute_mp.cells"], total["compute_matrix_profile"])
    out["compute_submp.pairwise_s"] = total["pairwise_entry_distances"]
    out["compute_submp.pairwise_calls"] = calls["pairwise_entry_distances"]
    out["compute_submp.valid_frac"] = _ratio(work["compute_submp:valid"], work["compute_submp:profiles"])
    out["compute_submp.recomputed_rows"] = work["compute_submp:recomputed"]
    out["compute_submp.recompute_cells"] = work["compute_submp:recompute_cells"]
    out["entries.advance_s"] = total["EntryStore.advance_to"]
    out["entries.advance_calls"] = calls["EntryStore.advance_to"]
    out["entries.fill_s"] = total["EntryStore.fill_row"]
    out["entries.fill_rows"] = calls["EntryStore.fill_row"]
    out["context.sliding_dot_s"] = total["SeriesContext.sliding_dot_product"]
    out["context.sliding_dot_calls"] = calls["SeriesContext.sliding_dot_product"]
    out["context.stats_s"] = total["SeriesContext.moving_mean_std"]
    out["context.stats_calls"] = calls["SeriesContext.moving_mean_std"]
    out["engine.cells"] = work["compute_with:cells"]
    out["engine.cells_per_s"] = _ratio(out["engine.cells"], total["compute_with"])
    scanned = work["find_discords_pruned:scanned"] + work["StreamingValmod.discords:scanned"]
    recomputed = work["discords:recomputed"]
    out["discords_variable.ub_s"] = total["length_upper_bound"]
    out["discords_variable.ub_calls"] = calls["length_upper_bound"]
    out["discords_variable.lengths_recomputed"] = recomputed
    out["discords_variable.lengths_pruned"] = scanned - recomputed
    out["discords_variable.pruned_frac"] = _ratio(scanned - recomputed, scanned)
    out["streaming_valmod.append_s"] = total["StreamingValmod.append"]
    out["streaming_valmod.appends"] = calls["StreamingValmod.append"]
    out["streaming_valmod.motifs_s"] = total["StreamingValmod.motifs"]
    out["streaming_valmod.discords_s"] = total["StreamingValmod.discords"]
    out["streaming_valmod.evicted_points"] = work["StreamingSeriesStats.evict:evicted"]
    return out


def _work(name: str, info: Dict[str, float]) -> Dict[str, float]:
    """Derived work counts of one call, keyed ``target:count``."""
    out = {f"{name}:{key}": value for key, value in info.items()}
    if "rows" in info:
        out[f"{name}:cells"] = info["rows"] ** 2
    if name == "compute_submp":
        out["compute_submp:recompute_cells"] = info["recomputed"] * info["profiles"]
    return out


def analyze(recorder: Recorder, rounds: int) -> Dict[str, Any]:
    """Per-round metrics, the span tree, and one row per traced call.

    One forward pass suffices: a span is appended when it opens, so its
    parent always comes before it in ``recorder.spans``.
    """
    names = recorder.names
    layer_of = [layer for layer, _, _ in recorder.targets]
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] != ROOT:
            child_time[span[3]] += span[2] - span[1]

    acc = [
        {key: Counter() for key in ("work", "calls", "total", "calls_in", "s", "self_s")}
        for _ in range(rounds)
    ]
    tree: Dict[str, Counter] = {}
    path: List[str] = [""] * len(spans)
    # targets and layers of every span's ancestors (their spans enclose it)
    targets_above: List[frozenset] = [frozenset()] * len(spans)
    layers_above: List[frozenset] = [frozenset()] * len(spans)
    calls_rows: Dict[Any, Dict[str, float]] = {}
    for span_id, span in enumerate(spans):
        run = span[4]
        if run is None:
            continue
        duration = span[2] - span[1]
        own = duration - child_time[span_id]
        if span[0] == ROOT:
            path[span_id] = "call"
            calls_rows[run] = {"wall_s": duration, "unattributed_s": own, "layer_self_s": 0.0}
        else:
            parent = span[3]
            name, layer = names[span[0]], layer_of[span[0]]
            path[span_id] = f"{path[parent]}/{name}"
            if spans[parent][0] != ROOT:
                targets_above[span_id] = targets_above[parent] | {names[spans[parent][0]]}
                layers_above[span_id] = layers_above[parent] | {layer_of[spans[parent][0]]}
            a = acc[run[0]]
            a["calls"][name] += 1
            a["total"][name] += duration
            a["self_s"][layer] += own
            if layer not in layers_above[span_id]:
                a["calls_in"][layer] += 1
                a["s"][layer] += duration
            a["work"].update(_work(name, recorder.info.get(span_id, {})))
            if name == "compute_with" and targets_above[span_id] & set(DISCORD_SEARCHES):
                a["work"]["discords:recomputed"] += 1
            calls_rows[run]["layer_self_s"] += own
        node = tree.setdefault(path[span_id], Counter())
        node["calls"] += 1
        node["s"] += duration
        node["self_s"] += own

    per_round = [
        _round_metrics(a["work"], a["calls"], a["total"], {"calls": a["calls_in"], "s": a["s"], "self_s": a["self_s"]})
        for a in acc
    ]
    reps = [dict(run=list(run), **row) for run, row in calls_rows.items()]
    return {
        "per_round": per_round,
        "tree": {
            p: {k: v / rounds for k, v in node.items()} for p, node in sorted(tree.items())
        },
        "reps": reps,
    }


#: metrics that read another layer's targets besides their own.
_ALSO_NEEDS = {
    "discords_variable.lengths_recomputed": ("engine", "streaming_valmod"),
    "discords_variable.lengths_pruned": ("engine", "streaming_valmod"),
    "discords_variable.pruned_frac": ("engine", "streaming_valmod"),
}


def summarize(
    recorder: Recorder,
    rounds: int,
    extra: Dict[str, List[float]],
    untraced_round_s: float,
) -> Dict[str, Any]:
    """Per-layer metrics of the traced rounds, per round.

    Times are means over the rounds.  Counts must repeat exactly from
    round to round, because every round calls the same inputs; any that
    did not are listed under ``counts_moved``.
    """
    analysis = analyze(recorder, rounds)
    per_round = analysis["per_round"]
    metrics: Dict[str, float] = {}
    moved = []
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        if is_count(name):
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                moved.append(name)
        else:
            metrics[name] = sum(values) / len(values)

    reps = analysis["reps"]
    wall = sum(r["wall_s"] for r in reps)
    metrics["trace.overhead_frac"] = wall / rounds / untraced_round_s - 1.0
    metrics["trace.unattributed_frac"] = _ratio(sum(r["unattributed_s"] for r in reps), wall)
    metrics["trace.accounting_err_frac"] = max(
        abs(r["layer_self_s"] + r["unattributed_s"] - r["wall_s"]) / r["wall_s"] for r in reps
    )
    append_s = extra.get("append_s", [])
    refresh_s = extra.get("refresh_s", [])
    metrics["streaming_valmod.append_p50_us"] = _percentile(append_s, 0.50) * 1e6
    metrics["streaming_valmod.append_p99_us"] = _percentile(append_s, 0.99) * 1e6
    metrics["streaming_valmod.refresh_p50_ms"] = _percentile(refresh_s, 0.50) * 1e3
    metrics["streaming_valmod.refresh_p80_ms"] = _percentile(refresh_s, 0.80) * 1e3

    missing_layers = {
        layer for layer, _, qualname in recorder.targets if qualname in recorder.missing
    }
    not_measured = sorted(
        name
        for name in metrics
        if name.split(".")[0] in missing_layers
        or missing_layers & set(_ALSO_NEEDS.get(name, ()))
    )
    for name in not_measured:
        metrics[name] = 0.0
    return {
        "metrics": metrics,
        "not_measured": not_measured,
        "counts_moved": moved,
        "span_tree": analysis["tree"],
        "reps": reps,
    }


def is_count(name: str) -> bool:
    """Work counts, which repeat exactly for the same inputs."""
    leaf = name.rsplit(".", 1)[-1]
    return name.startswith("valmod.lengths.") or leaf.endswith(("calls", "rows", "cells")) or leaf in (
        "appends", "evicted_points", "lengths_pruned", "lengths_recomputed",
    )


def largest(metrics: Dict[str, float], suffix: str, exclude: Sequence[str] = ()) -> Optional[str]:
    """The layer with the largest ``<layer><suffix>`` value, or None if all are 0."""
    value, layer = max(
        (metrics[f"{layer}{suffix}"], layer) for layer in LAYERS if layer not in exclude
    )
    return layer if value > 0 else None
