"""Streaming VALMOD: amortized per-append cost vs batch recomputation.

The streaming engine's pitch is that a monitored feed does not need a
from-scratch variable-length sweep per refresh: the eager per-append
layer maintains exact bounds for free (no engine cells), and the
periodic materializations warm-start the pruned discord driver from the
maintained bounds, so most lengths are certified without computing
their profiles.  ``engine.cells`` — distance cells computed by the
registered engines — is the scoreboard: hardware-independent and
exactly comparable between the two drivers.

The workload streams a feed in chunks, refreshing exact motifs and
discords after every chunk, and charges the same refresh cadence to a
batch baseline that recomputes ``valmod`` + ``find_discords_pruned``
from scratch on the identical window.  Results are asserted identical
chunk by chunk (the differential wall, riding along in the benchmark).

Persists ``benchmarks/results/BENCH_streaming_valmod.json`` with
per-chunk cell counts for both drivers and the streaming append
latency (p50 / p99 in microseconds, traced: the counters are on).  Committed full-mode baselines
must show (a) the streaming total strictly below the batch total and
(b) a warm-chunk cell ratio below ``MAX_WARM_RATIO`` — the amortized
per-append cost flattens once the maintained bounds are warm, while
the batch baseline re-pays the full sweep every refresh.  CI runs the
smoke mode (``REPRO_BENCH_FAST=1``), which keeps the identity assertion
but not the cost bars.
"""

import time

import numpy as np

from _common import fast_mode, save_report, save_result_json
from repro import obs
from repro.core.discords_variable import find_discords_pruned
from repro.core.valmod import valmod
from repro.harness.reporting import format_table
from repro.matrixprofile.streaming_valmod import StreamingValmod

#: headline configuration (the committed baseline).
FULL_INIT, FULL_STREAM, FULL_CHUNK, FULL_RANGE = 600, 600, 100, (16, 28)
SMOKE_INIT, SMOKE_STREAM, SMOKE_CHUNK, SMOKE_RANGE = 300, 200, 100, (16, 22)

P, K = 10, 3

#: acceptance bar: warm streaming refreshes must cost at most this
#: fraction of the batch refresh on the same window.
MAX_WARM_RATIO = 0.5


def _workload(n: int) -> np.ndarray:
    """Noisy sine with bump anomalies early in the feed.

    The monitoring regime the streaming engine targets: the background
    is quasi-periodic (stable motifs), the known anomalies sit in the
    already-seen prefix (stable discords), and the streamed tail is
    more of the same signal — so the maintained bounds stay tight and
    warm refreshes should prune nearly every discord length.
    """
    rng = np.random.default_rng(13)
    x = np.linspace(0.0, 0.02 * np.pi * n, n)
    t = np.sin(x) + 0.05 * rng.standard_normal(n)
    for pos in (n // 8, n // 4, (3 * n) // 8):
        t[pos : pos + 20] += 4.0 * np.hanning(20)
    return t


def _cells(before, after) -> int:
    return int(after.get("engine.cells", 0) - before.get("engine.cells", 0))


def _discord_tuples(discords):
    return [
        (d.length, d.start, d.distance, d.normalized_distance) for d in discords
    ]


def test_streaming_vs_batch_recompute(benchmark):
    smoke = fast_mode()
    init, n_stream, chunk_size = (
        (SMOKE_INIT, SMOKE_STREAM, SMOKE_CHUNK)
        if smoke
        else (FULL_INIT, FULL_STREAM, FULL_CHUNK)
    )
    l_min, l_max = SMOKE_RANGE if smoke else FULL_RANGE
    series = _workload(init + n_stream)

    def run():
        chunks = []
        with obs.tracing(True):
            obs.reset()
            stream = StreamingValmod(
                series[:init], l_min, l_max, p=P, k_discords=K
            )
            stream_seconds = 0.0
            batch_seconds = 0.0
            append_us = []
            for start in range(init, init + n_stream, chunk_size):
                end = min(start + chunk_size, init + n_stream)
                window = series[:end]

                before = dict(obs.get_tracer().counters())
                t0 = time.perf_counter()
                for value in series[start:end]:
                    t1 = time.perf_counter()
                    stream.append(value)
                    append_us.append(1e6 * (time.perf_counter() - t1))
                s_motifs = stream.motifs()
                s_discords = stream.discords()
                stream_seconds += time.perf_counter() - t0
                mid = dict(obs.get_tracer().counters())
                t0 = time.perf_counter()
                b_motifs = valmod(window, l_min, l_max, p=P)
                b_discords = find_discords_pruned(
                    window, l_min, l_max, k=K, p=P
                )
                batch_seconds += time.perf_counter() - t0
                after = dict(obs.get_tracer().counters())

                # the differential wall rides along with the timing run
                assert s_motifs.motif_pairs == b_motifs.motif_pairs
                assert _discord_tuples(s_discords) == _discord_tuples(
                    b_discords
                )
                chunks.append(
                    {
                        "window_points": int(end),
                        "appends": int(end - start),
                        "streaming_cells": _cells(before, mid),
                        "batch_cells": _cells(mid, after),
                    }
                )
        return chunks, stream_seconds, batch_seconds, append_us

    chunks, stream_seconds, batch_seconds, append_us = benchmark.pedantic(
        run, iterations=1, rounds=1
    )

    streaming_total = sum(c["streaming_cells"] for c in chunks)
    batch_total = sum(c["batch_cells"] for c in chunks)
    appends_total = sum(c["appends"] for c in chunks)
    # chunk 0 pays the cold materialization; later chunks are warm
    warm = chunks[1:] if len(chunks) > 1 else chunks
    warm_ratio = sum(c["streaming_cells"] for c in warm) / max(
        1, sum(c["batch_cells"] for c in warm)
    )

    payload = {
        "bench": "streaming_valmod",
        "init_points": int(init),
        "streamed_points": int(appends_total),
        "chunk_size": int(chunk_size),
        "l_min": int(l_min),
        "l_max": int(l_max),
        "p": int(P),
        "k_discords": int(K),
        "smoke": smoke,
        "identical": True,
        "streaming_seconds": stream_seconds,
        "batch_seconds": batch_seconds,
        "streaming_cells_total": int(streaming_total),
        "batch_cells_total": int(batch_total),
        "streaming_cells_per_append": streaming_total / appends_total,
        "batch_cells_per_append": batch_total / appends_total,
        "warm_cell_ratio": warm_ratio,
        "append_p50_us": float(np.percentile(append_us, 50)),
        "append_p99_us": float(np.percentile(append_us, 99)),
        "chunks": chunks,
    }
    save_report(
        "streaming_valmod",
        format_table(
            ["window", "appends", "streaming cells", "batch cells"],
            [
                (c["window_points"], c["appends"], c["streaming_cells"],
                 c["batch_cells"])
                for c in chunks
            ],
        )
        + f"\ntotals: streaming {streaming_total} vs batch {batch_total} "
        f"cells over {appends_total} appends "
        f"(warm ratio {warm_ratio:.2f}) smoke={smoke}\n"
        f"append latency: p50 {payload['append_p50_us']:.0f} us, "
        f"p99 {payload['append_p99_us']:.0f} us",
    )
    save_result_json("BENCH_streaming_valmod", payload)

    if not smoke:
        assert streaming_total < batch_total
        assert warm_ratio < MAX_WARM_RATIO
