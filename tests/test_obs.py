"""Unit tests for the :mod:`repro.obs` observability layer.

Covers the tracer primitives (spans, counters, gauges, reset), the
multiprocess aggregation protocol (worker snapshots merged into the
parent), the no-op guarantees when tracing is disabled, and the report
serialization round-trip.
"""

import json
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.compute_mp import compute_matrix_profile
from repro.exceptions import InvalidParameterError
from repro.harness.runner import run_algorithm
from repro.obs import (
    Tracer,
    build_report,
    derived_metrics,
    format_report,
    report_from_json,
    report_to_json,
)
from repro.obs.tracer import _NULL_SPAN


@pytest.fixture(autouse=True)
def clean_tracer():
    """Every test starts and ends with a disabled, empty global tracer."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _series(n=400, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


class TestTracerPrimitives:
    def test_counters_accumulate(self):
        t = Tracer(enabled=True)
        t.add("a")
        t.add("a", 4)
        t.add("b", 0)
        assert t.counter("a") == 5
        assert t.counter("b") == 0
        assert t.counter("missing") == 0
        assert t.counters() == {"a": 5, "b": 0}

    def test_gauges_keep_last_value(self):
        t = Tracer(enabled=True)
        t.gauge("x", 1.5)
        t.gauge("x", 0.25)
        assert t.gauges() == {"x": 0.25}

    def test_span_nesting_builds_paths(self):
        t = Tracer(enabled=True)
        with t.span("a"):
            with t.span("b"):
                pass
        with t.span("a"):
            pass
        spans = t.spans()
        assert spans["a"]["count"] == 2
        assert spans["a/b"]["count"] == 1
        assert spans["a"]["seconds"] >= 0.0

    def test_reset_clears_everything(self):
        t = Tracer(enabled=True)
        t.add("a")
        t.gauge("g", 1.0)
        with t.span("s"):
            pass
        t.reset()
        assert t.counters() == {}
        assert t.gauges() == {}
        assert t.spans() == {}

    def test_reset_mid_span_drops_the_sample(self):
        t = Tracer(enabled=True)
        span = t.span("open")
        span.__enter__()
        t.reset()
        span.__exit__(None, None, None)  # must not raise
        assert t.spans() == {}

    def test_thread_safety_of_counters(self):
        t = Tracer(enabled=True)

        def work():
            for _ in range(1000):
                t.add("hits")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert t.counter("hits") == 8000

    def test_span_paths_are_per_thread(self):
        t = Tracer(enabled=True)
        done = threading.Event()

        def inner():
            with t.span("inner"):
                pass
            done.set()

        with t.span("outer"):
            th = threading.Thread(target=inner)
            th.start()
            th.join()
        assert done.is_set()
        # the other thread's span must NOT nest under this thread's stack
        assert "inner" in t.spans()
        assert "outer/inner" not in t.spans()


class TestDisabledNoOp:
    def test_disabled_records_nothing(self):
        t = Tracer(enabled=False)
        t.add("a")
        t.gauge("g", 1.0)
        with t.span("s"):
            pass
        assert t.counters() == {}
        assert t.gauges() == {}
        assert t.spans() == {}

    def test_disabled_span_is_the_singleton(self):
        t = Tracer(enabled=False)
        assert t.span("a") is _NULL_SPAN
        assert t.span("b") is _NULL_SPAN

    @pytest.mark.skipif(
        not hasattr(sys, "getallocatedblocks"),
        reason="CPython-only allocation counter",
    )
    def test_disabled_calls_do_not_allocate(self):
        t = Tracer(enabled=False)
        # warm up any lazily-created internals
        for _ in range(4):
            t.add("warm")
            with t.span("warm"):
                pass
        before = sys.getallocatedblocks()
        for _ in range(100):
            t.add("hot", 3)
            with t.span("hot"):
                pass
        after = sys.getallocatedblocks()
        # zero allocations modulo interpreter noise from unrelated threads
        assert after - before < 16

    def test_tracing_context_restores_state(self):
        assert not obs.enabled()
        with obs.tracing(True):
            assert obs.enabled()
            with obs.tracing(False):
                assert not obs.enabled()
            assert obs.enabled()
        assert not obs.enabled()


class TestMergeProtocol:
    def test_merge_sums_counters_and_spans(self):
        t = Tracer(enabled=True)
        t.add("a", 2)
        with t.span("s"):
            pass
        snap = {
            "pids": [99999],
            "counters": {"a": 3, "b": 1},
            "gauges": {"g": 2.0},
            "spans": {"s": [2, 0.5]},
        }
        t.merge(snap)
        assert t.counter("a") == 5
        assert t.counter("b") == 1
        assert t.spans()["s"]["count"] == 3
        assert 99999 in t.snapshot()["pids"]

    def test_merge_takes_gauge_maximum(self):
        t = Tracer(enabled=True)
        t.gauge("g", 5.0)
        t.merge({"pids": [], "counters": {}, "gauges": {"g": 3.0}, "spans": {}})
        assert t.gauges()["g"] == 5.0
        t.merge({"pids": [], "counters": {}, "gauges": {"g": 7.0}, "spans": {}})
        assert t.gauges()["g"] == 7.0

    def test_merge_none_is_noop(self):
        t = Tracer(enabled=True)
        t.add("a")
        t.merge(None)
        assert t.counters() == {"a": 1}

    def test_snapshot_round_trips_through_merge(self):
        src = Tracer(enabled=True)
        src.add("a", 4)
        src.gauge("g", 1.25)
        with src.span("s"):
            pass
        dst = Tracer(enabled=True)
        dst.merge(src.snapshot())
        assert dst.counters() == src.counters()
        assert dst.gauges() == src.gauges()
        assert dst.spans()["s"]["count"] == 1

    def test_worker_snapshot_none_when_disabled(self):
        obs.disable()
        assert obs.worker_snapshot() is None


class TestMultiprocessAggregation:
    def test_compute_mp_counters_invariant_across_n_jobs(self):
        """listDP work is identical however the rows are chunked.

        Only ``listdp.*`` and ``compute_mp.rows`` are compared: each
        worker builds its own context, so cache and FFT-plan counts
        legitimately vary with the worker count.
        """
        series = _series(500, seed=1)

        def counters(n_jobs):
            with obs.tracing(True):
                obs.reset()
                compute_matrix_profile(series, 24, 8, n_jobs=n_jobs)
                snap = obs.snapshot()
            return {
                k: v
                for k, v in snap["counters"].items()
                if k.startswith("listdp.") or k == "compute_mp.rows"
            }, snap["pids"]

        serial, serial_pids = counters(1)
        parallel, parallel_pids = counters(2)
        assert serial == parallel
        assert serial["compute_mp.rows"] == 500 - 24 + 1
        assert len(serial_pids) == 1
        assert len(parallel_pids) >= 2


class TestReport:
    def test_report_json_round_trip(self):
        with obs.tracing(True):
            obs.reset()
            obs.add("submp.profiles.total", 10)
            obs.add("submp.profiles.valid", 7)
            obs.gauge("g", 1.5)
            with obs.span("stage"):
                pass
            report = build_report()
        again = report_from_json(report_to_json(report))
        assert again == report
        assert again["counters"]["submp.profiles.total"] == 10
        assert again["derived"]["pruning_power"] == 0.7
        assert again["n_processes"] == 1

    def test_report_from_json_rejects_garbage(self):
        with pytest.raises(InvalidParameterError):
            report_from_json("not json at all {")
        with pytest.raises(InvalidParameterError):
            report_from_json(json.dumps({"no": "counters"}))
        with pytest.raises(InvalidParameterError):
            report_from_json(json.dumps(["a", "list"]))

    def test_derived_metrics(self):
        derived = derived_metrics(
            {
                "submp.profiles.total": 100,
                "submp.profiles.valid": 80,
                "submp.profiles.total.l25": 50,
                "submp.profiles.valid.l25": 10,
                "listdp.lookups": 200,
                "listdp.hits": 150,
            }
        )
        assert derived["pruning_power"] == 0.8
        assert derived["pruning_power.l25"] == 0.2
        assert derived["listdp_hit_rate"] == 0.75

    def test_derived_metrics_empty_counters(self):
        assert derived_metrics({}) == {}

    def test_format_report_mentions_all_sections(self):
        with obs.tracing(True):
            obs.reset()
            obs.add("c", 3)
            obs.gauge("g", 2.0)
            with obs.span("s"):
                pass
            text = format_report(build_report())
        for fragment in ("counters", "gauges", "spans", "c", "g", "s"):
            assert fragment in text


class TestHarnessIntegration:
    def test_run_outcome_carries_trace_delta(self):
        series = _series(420, seed=3)
        with obs.tracing(True):
            obs.reset()
            first = run_algorithm("VALMOD", series, 20, 22, p=16)
            second = run_algorithm("STOMP", series, 20, 22, p=16)
        assert first.trace is not None
        assert first.trace["compute_mp.rows"] == 420 - 20 + 1
        assert "submp.profiles.total" in first.trace
        # the second outcome's delta excludes the first run's counters
        assert second.trace is not None
        assert "submp.profiles.total" not in second.trace
        assert second.trace["engine.rows"] > 0

    def test_run_outcome_trace_none_when_disabled(self):
        series = _series(300, seed=4)
        outcome = run_algorithm("VALMOD", series, 20, 21, p=16)
        assert outcome.trace is None
        assert not outcome.dnf
