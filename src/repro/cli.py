"""Command-line interface: ``python -m repro`` / the ``valmod`` script.

Subcommands
-----------
``features`` one-call feature extraction (motifs + any requested
             families) with optional on-disk caching (``--store``).
``motifs``   run VALMOD on a CSV file or a named synthetic dataset and
             print the ranked variable-length motifs.
``profile``  compute one fixed-length matrix profile with a chosen
             engine (``--engine``).
``sets``     run the full Problem-2 pipeline (VALMOD + motif sets).
``stream``   feed a series point-by-point through the streaming engine,
             printing motif/discord change events as they fire.
``datasets`` list the synthetic dataset families and their statistics.
``bench``    run one of the figure sweeps at a small scale.

Per-series analysis commands route through the :mod:`repro.features`
façade — the CLI composes no workload modules itself (lint rule R009).

Every subcommand accepts ``--trace`` (plus ``--trace-format`` /
``--trace-out``): the run executes with the :mod:`repro.obs` tracer
enabled and a trace report — pruning-power counters, listDP hit rates,
kernel call counts, stage timings — is emitted after the normal output.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro import obs
from repro.analysis.stats import dataset_statistics
from repro.datasets.registry import DATASET_NAMES, dataset_spec, load_dataset
from repro.exceptions import ReproError
from repro.features import (
    DEFAULT_INCLUDE,
    DEFAULT_P,
    INCLUDE_OPTIONS,
    extract_features,
    motif_set_summary,
    save_features_json,
)
from repro.harness.config import default_grid
from repro.harness.experiments import (
    sweep_motif_length,
    sweep_motif_range,
    sweep_series_size,
)
from repro.harness.reporting import format_table
from repro.matrixprofile.registry import DEFAULT_ENGINE, compute_with, engine_names

__all__ = ["main", "build_parser"]


def _load_series(args: argparse.Namespace) -> np.ndarray:
    if args.csv is not None:
        source = sys.stdin if args.csv == "-" else args.csv
        return np.loadtxt(source, dtype=np.float64, delimiter=args.delimiter)
    return load_dataset(args.dataset, args.points, seed=args.seed)


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--csv", help="one-column CSV/text file with the series")
    source.add_argument(
        "--dataset",
        default="ECG",
        choices=list(DATASET_NAMES),
        help="synthetic dataset family (default ECG)",
    )
    parser.add_argument("--delimiter", default=None, help="CSV delimiter")
    parser.add_argument("--points", type=int, default=8000, help="synthetic size")
    parser.add_argument("--seed", type=int, default=0, help="synthetic seed")


def _add_series_arguments(parser: argparse.ArgumentParser) -> None:
    _add_source_arguments(parser)
    parser.add_argument("--l-min", type=int, default=64, dest="l_min")
    parser.add_argument("--l-max", type=int, default=96, dest="l_max")
    parser.add_argument("--p", type=int, default=DEFAULT_P)


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        dest="n_jobs",
        help="worker processes that split Algorithm 3's row blocks "
        "(0 = all CPUs, default 1; results are identical for every value)",
    )


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record repro.obs counters/spans and emit a trace report",
    )
    parser.add_argument(
        "--trace-format",
        choices=["json", "pretty"],
        default="json",
        dest="trace_format",
        help="trace report rendering (default json)",
    )
    parser.add_argument(
        "--trace-out",
        dest="trace_out",
        default=None,
        help="write the trace report to this file instead of stdout",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valmod",
        description="VALMOD: variable-length motif discovery (SIGMOD 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    features = sub.add_parser(
        "features",
        help="one-call feature extraction with optional on-disk caching",
    )
    _add_series_arguments(features)
    _add_jobs_argument(features)
    features.add_argument(
        "--engine",
        default=DEFAULT_ENGINE,
        choices=list(engine_names()),
        help=f"matrix-profile engine (default {DEFAULT_ENGINE})",
    )
    features.add_argument("--top", type=int, default=5, help="motifs to print")
    features.add_argument(
        "--include",
        nargs="+",
        default=list(DEFAULT_INCLUDE),
        help="optional feature families to compute (space- or "
        f"comma-separated from: {', '.join(INCLUDE_OPTIONS)}; "
        "'none' for motifs only)",
    )
    features.add_argument(
        "--set-k", type=int, default=10, dest="set_k",
        help="top-K pairs to extend into motif sets",
    )
    features.add_argument(
        "--radius-factor", type=float, default=3.0, dest="radius_factor"
    )
    features.add_argument(
        "--k-discords", type=int, default=3, dest="k_discords"
    )
    features.add_argument(
        "--discord-lengths",
        nargs="+",
        type=int,
        default=None,
        dest="discord_lengths",
        help="restrict the discord scan to these lengths",
    )
    features.add_argument(
        "--regimes", type=int, default=2, help="regimes for segmentation"
    )
    features.add_argument(
        "--store",
        default=None,
        help="feature-store directory (default: $REPRO_FEATURES_STORE)",
    )
    features.add_argument(
        "--no-store",
        action="store_true",
        dest="no_store",
        help="never read or write the feature store",
    )
    features.add_argument("--export", help="write the features JSON here")

    motifs = sub.add_parser("motifs", help="discover ranked variable-length motifs")
    _add_series_arguments(motifs)
    _add_jobs_argument(motifs)
    motifs.add_argument("--top", type=int, default=5, help="motifs to print")
    motifs.add_argument("--export", help="write the full result to this JSON file")

    profile = sub.add_parser(
        "profile", help="compute one fixed-length matrix profile"
    )
    _add_source_arguments(profile)
    profile.add_argument(
        "--length", type=int, default=64, help="subsequence length (default 64)"
    )
    profile.add_argument(
        "--engine",
        default=DEFAULT_ENGINE,
        choices=list(engine_names()),
        help=f"matrix-profile engine (default {DEFAULT_ENGINE})",
    )
    profile.add_argument(
        "--top", type=int, default=5, help="lowest-distance positions to print"
    )

    discords = sub.add_parser(
        "discords", help="discover ranked variable-length discords (anomalies)"
    )
    _add_series_arguments(discords)
    discords.add_argument(
        "--engine",
        default=DEFAULT_ENGINE,
        choices=list(engine_names()),
        help=f"matrix-profile engine (default {DEFAULT_ENGINE})",
    )
    _add_jobs_argument(discords)
    discords.add_argument("--top", type=int, default=3, help="discords to print")
    driver = discords.add_mutually_exclusive_group()
    driver.add_argument(
        "--pruned",
        dest="pruned",
        action="store_true",
        default=True,
        help="lower-bound-pruned driver: skips lengths the Eq. 2 bounds "
        "rule out (default; identical output to --exact-full)",
    )
    driver.add_argument(
        "--exact-full",
        dest="pruned",
        action="store_false",
        help="ablation: full matrix profile at every length",
    )

    sets = sub.add_parser("sets", help="discover variable-length motif sets")
    _add_series_arguments(sets)
    _add_jobs_argument(sets)
    sets.add_argument("--k", type=int, default=10, help="top-K pairs to extend")
    sets.add_argument("--radius-factor", type=float, default=3.0, dest="radius_factor")

    segment = sub.add_parser(
        "segment", help="FLUSS semantic segmentation (regime boundaries)"
    )
    _add_series_arguments(segment)
    segment.add_argument(
        "--regimes", type=int, default=2, help="number of regimes to split into"
    )

    snippets = sub.add_parser(
        "snippets", help="representative subsequences summarizing the series"
    )
    _add_series_arguments(snippets)
    snippets.add_argument("--k", type=int, default=2, help="snippets to extract")

    stream = sub.add_parser(
        "stream",
        help="replay a series through the streaming engine, printing "
        "motif/discord change events",
    )
    _add_series_arguments(stream)
    _add_jobs_argument(stream)
    stream.add_argument(
        "--engine",
        default=DEFAULT_ENGINE,
        choices=list(engine_names()),
        help=f"matrix-profile engine (default {DEFAULT_ENGINE})",
    )
    stream.add_argument(
        "--init",
        type=int,
        default=0,
        help="points used to seed the engine before streaming "
        "(default: 4 * l_max)",
    )
    stream.add_argument(
        "--chunk", type=int, default=64, help="points fed per batch"
    )
    stream.add_argument(
        "--max-points",
        type=int,
        default=None,
        dest="max_points",
        help="sliding-window capacity (default: unbounded growth)",
    )
    stream.add_argument(
        "--k-discords", type=int, default=3, dest="k_discords"
    )
    stream.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        dest="snapshot_every",
        help="materialize exact motifs/discords every N streamed points "
        "(0 = only at the end)",
    )
    stream.add_argument("--top", type=int, default=5, help="motifs to print")

    sub.add_parser("datasets", help="list synthetic dataset families")

    bench = sub.add_parser("bench", help="run one scalability sweep")
    bench.add_argument(
        "figure",
        choices=["fig8", "fig12", "fig13"],
        help="which figure's sweep to run",
    )
    bench.add_argument(
        "--datasets",
        nargs="+",
        default=["ECG", "EMG"],
        choices=list(DATASET_NAMES),
    )
    bench.add_argument(
        "--algorithms",
        nargs="+",
        default=["VALMOD", "STOMP"],
        choices=["VALMOD", "STOMP", "MOEN", "QUICKMOTIF"],
    )
    _add_jobs_argument(bench)
    for sub_parser in set(sub.choices.values()):
        _add_trace_arguments(sub_parser)
    return parser


def _motif_table(pairs) -> str:
    rows = [
        (pair.length, pair.a, pair.b, f"{pair.distance:.4f}",
         f"{pair.normalized_distance:.4f}")
        for pair in pairs
    ]
    return format_table(["length", "a", "b", "distance", "normalized"], rows)


def _parse_include(values) -> tuple:
    # Accept both "--include motif_sets discords" and the comma form
    # "--include motif_sets,discords"; "none" means motifs only.  The
    # façade validates the names.
    names = [
        name
        for value in values
        for name in str(value).split(",")
        if name and name != "none"
    ]
    return tuple(names)


def _cmd_features(args: argparse.Namespace) -> int:
    series = _load_series(args)
    store = False if args.no_store else (args.store if args.store else None)
    result = extract_features(
        series,
        args.l_min,
        args.l_max,
        p=args.p,
        top_k=args.top,
        include=_parse_include(args.include),
        motif_set_k=args.set_k,
        radius_factor=args.radius_factor,
        k_discords=args.k_discords,
        discord_lengths=args.discord_lengths,
        n_regimes=args.regimes,
        engine=args.engine,
        n_jobs=args.n_jobs,
        store=store,
    )
    print(
        f"# features: {result.n_points} points, lengths "
        f"{result.l_min}..{result.l_max}, engine={result.engine}, "
        f"include={','.join(result.include) or '-'}"
    )
    print(_motif_table(result.top_motifs))
    if result.motif_sets:
        print(f"# {len(result.motif_sets)} motif sets")
        for motif_set in result.motif_sets:
            print(motif_set_summary(motif_set))
    for family in (result.discords, result.discords_variable):
        if family:
            rows = [
                (d.length, d.start, f"{d.distance:.4f}",
                 f"{d.normalized_distance:.4f}")
                for d in family
            ]
            print(
                format_table(["length", "start", "distance", "normalized"], rows)
            )
    if result.chain is not None:
        print(
            f"# chain: {len(result.chain)} members spanning "
            f"{result.chain.span} points"
        )
    if result.regime_boundaries is not None:
        print(
            "# regime boundaries: "
            + (
                ", ".join(str(b) for b in result.regime_boundaries)
                or "(none found)"
            )
        )
    if result.annotation is not None:
        print(
            f"# annotation: mean={result.annotation.mean:.4f} "
            f"flat={result.annotation.flat_fraction:.1%}"
        )
    if getattr(args, "export", None):
        save_features_json(args.export, result)
        print(f"# features written to {args.export}")
    return 0


def _cmd_motifs(args: argparse.Namespace) -> int:
    series = _load_series(args)
    result = extract_features(
        series, args.l_min, args.l_max, p=args.p, top_k=args.top,
        include=(), n_jobs=args.n_jobs, store=False,
    )
    print(f"# processed {len(result.motif_pairs)} lengths")
    print(_motif_table(result.top_motifs))
    if getattr(args, "export", None):
        save_features_json(args.export, result)
        print(f"# full result written to {args.export}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.kernels import SeriesContext

    series = _load_series(args)
    context = SeriesContext(series)
    mp = compute_with(args.engine, series, args.length, context=context)
    finite = np.isfinite(mp.profile)
    print(
        f"# engine={args.engine} length={args.length} "
        f"profiles={len(mp.profile)} finite={int(finite.sum())}"
    )
    order = np.argsort(mp.profile)[: max(args.top, 0)]
    rows = [
        (int(pos), int(mp.index[pos]), f"{mp.profile[pos]:.4f}")
        for pos in order
        if finite[pos]
    ]
    print(format_table(["position", "neighbor", "distance"], rows))
    return 0


def _cmd_discords(args: argparse.Namespace) -> int:
    series = _load_series(args)
    family = "discords_variable" if args.pruned else "discords"
    result = extract_features(
        series, args.l_min, args.l_max, include=(family,),
        k_discords=args.top, engine=args.engine, n_jobs=args.n_jobs,
        store=False,
    )
    found = result.discords_variable if args.pruned else result.discords
    rows = [
        (d.length, d.start, f"{d.distance:.4f}", f"{d.normalized_distance:.4f}")
        for d in found
    ]
    print(format_table(["length", "start", "distance", "normalized"], rows))
    return 0


def _cmd_sets(args: argparse.Namespace) -> int:
    series = _load_series(args)
    result = extract_features(
        series, args.l_min, args.l_max, p=args.p, include=("motif_sets",),
        motif_set_k=args.k, radius_factor=args.radius_factor,
        n_jobs=args.n_jobs, store=False,
    )
    print(f"# {len(result.motif_sets)} motif sets")
    for motif_set in result.motif_sets:
        print(motif_set_summary(motif_set))
    return 0


def _cmd_segment(args: argparse.Namespace) -> int:
    series = _load_series(args)
    # Segmentation works at a single window length (l_min); the trivial
    # l_min..l_min motif sweep rides along on the shared context.
    result = extract_features(
        series, args.l_min, args.l_min, include=("segmentation",),
        n_regimes=args.regimes, store=False,
    )
    print(f"# corrected arc curve minimum: {result.cac_min:.4f}")
    rows = [
        (i + 1, position, f"{value:.4f}")
        for i, (position, value) in enumerate(
            zip(result.regime_boundaries or (), result.regime_cac or ())
        )
    ]
    print(format_table(["boundary", "position", "CAC"], rows))
    return 0


def _cmd_snippets(args: argparse.Namespace) -> int:
    from repro.multiseries import find_snippets

    series = _load_series(args)
    snippets, _ = find_snippets(series, args.l_min, k=args.k)
    rows = [
        (i, s.start, s.length, f"{s.coverage_fraction:.1%}")
        for i, s in enumerate(snippets)
    ]
    print(format_table(["snippet", "start", "length", "coverage"], rows))
    return 0


def _discord_table(discords) -> str:
    rows = [
        (d.length, d.start, f"{d.distance:.4f}", f"{d.normalized_distance:.4f}")
        for d in discords
    ]
    return format_table(["length", "start", "distance", "normalized"], rows)


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.features import StreamingFeatures

    series = _load_series(args)
    init = args.init if args.init > 0 else 4 * args.l_max
    if series.size <= init:
        print(
            f"error: need more than {init} points to stream "
            f"(got {series.size}; lower --init)",
            file=sys.stderr,
        )
        return 2
    stream = StreamingFeatures(
        series[:init],
        args.l_min,
        args.l_max,
        p=args.p,
        top_k=args.top,
        k_discords=args.k_discords,
        engine=args.engine,
        n_jobs=args.n_jobs,
        max_points=args.max_points,
    )
    print(
        f"# streaming {series.size - init} points after a {init}-point seed, "
        f"lengths {args.l_min}..{args.l_max}, engine={args.engine}, "
        f"max_points={args.max_points or 'unbounded'}"
    )
    since_snapshot = 0
    for start in range(init, series.size, max(args.chunk, 1)):
        chunk = series[start : start + max(args.chunk, 1)]
        stream.extend(chunk)
        evicted = 0
        for event in stream.drain_events():
            # One eviction event fires per retired point once the window
            # is full; summarize them per chunk to keep the feed legible.
            if event.kind == "window-evicted":
                evicted += 1
                continue
            print(
                f"@ {event.at_point} {event.kind} length={event.length} "
                f"{event.detail}"
            )
        if evicted:
            print(
                f"@ {stream.total_points} window-evicted {evicted} points; "
                f"window now starts at {stream.window_start}"
            )
        since_snapshot += chunk.size
        if args.snapshot_every and since_snapshot >= args.snapshot_every:
            since_snapshot = 0
            pairs = sorted(
                stream.motif_pairs().values(),
                key=lambda pair: pair.normalized_distance,
            )[: args.top]
            best = pairs[0] if pairs else None
            print(
                f"# snapshot @ {stream.total_points}: window "
                f"[{stream.window_start}, {stream.total_points}), best motif "
                + (
                    f"l={best.length} ({best.a}, {best.b}) "
                    f"nd={best.normalized_distance:.4f}"
                    if best
                    else "(none)"
                )
            )
    print(f"# final window [{stream.window_start}, {stream.total_points})")
    pairs = sorted(
        stream.motif_pairs().values(),
        key=lambda pair: pair.normalized_distance,
    )[: args.top]
    print(_motif_table(pairs))
    print(_discord_table(stream.discords()))
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    rows = []
    for name in DATASET_NAMES:
        spec = dataset_spec(name)
        stats = dataset_statistics(load_dataset(name, 8000, seed=0))
        rows.append(
            (name, spec.description, f"{stats.mean:.4g}", f"{stats.std:.4g}")
        )
    print(format_table(["name", "structure", "mean", "std"], rows))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import dataclasses

    grid = default_grid()
    if args.n_jobs != grid.n_jobs:
        grid = dataclasses.replace(grid, n_jobs=args.n_jobs)
    sweeps = {
        "fig8": sweep_motif_length,
        "fig12": sweep_motif_range,
        "fig13": sweep_series_size,
    }
    result = sweeps[args.figure](
        datasets=args.datasets, algorithms=args.algorithms, grid=grid
    )
    print(format_table(result.headers(), result.table_rows()))
    return 0


def _emit_trace(args: argparse.Namespace) -> None:
    """Render the recorded trace as JSON or a pretty table."""
    from repro.obs import build_report, format_report, report_to_json

    report = build_report()
    text = (
        format_report(report)
        if args.trace_format == "pretty"
        else report_to_json(report)
    )
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"# trace report written to {args.trace_out}")
    else:
        print(text)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "features": _cmd_features,
        "motifs": _cmd_motifs,
        "profile": _cmd_profile,
        "discords": _cmd_discords,
        "sets": _cmd_sets,
        "segment": _cmd_segment,
        "snippets": _cmd_snippets,
        "stream": _cmd_stream,
        "datasets": _cmd_datasets,
        "bench": _cmd_bench,
    }

    def dispatch() -> int:
        try:
            return handlers[args.command](args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if not getattr(args, "trace", False):
        return dispatch()
    with obs.tracing(True):
        obs.reset()
        code = dispatch()
        # Emit even on failure: a partial trace is still attributable.
        _emit_trace(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
