"""Property-based invariants of the observability counters (hypothesis).

The counters are only trustworthy if they obey the accounting identities
of the algorithms they instrument: per length, pruned + recomputed
profiles partition the total; listDP hits and misses partition the
lookups; and the MAD driver's pruned + recomputed lengths partition the
swept ones.
A final test closes the loop with Figure 9: the ``--trace`` report's
pruning power must reproduce the fraction computed by the standalone
``pruning_margins`` analysis.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.analysis.pruning import pruning_margins
from repro.cli import main
from repro.core.discords_variable import find_discords_pruned
from repro.core.valmod import Valmod
from repro.obs.report import derived_metrics
from repro.datasets.registry import load_dataset

_LENGTH = re.compile(r"^submp\.profiles\.total\.l(\d+)$")


@pytest.fixture(autouse=True)
def clean_tracer():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _traced_counters(fn):
    with obs.tracing(True):
        obs.reset()
        fn()
        return dict(obs.snapshot()["counters"])


class TestCounterAccounting:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_valid_invalid_partition_total_per_length(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal(320)
        counters = _traced_counters(
            lambda: Valmod(t, 18, 24, p=12).run()
        )
        lengths = [int(m.group(1)) for m in map(_LENGTH.match, counters) if m]
        assert lengths, "no per-length counters recorded"
        for length in lengths:
            total = counters[f"submp.profiles.total.l{length}"]
            valid = counters.get(f"submp.profiles.valid.l{length}", 0)
            invalid = counters.get(f"submp.profiles.invalid.l{length}", 0)
            recomputed = counters.get(f"submp.profiles.recomputed.l{length}", 0)
            assert valid + invalid == total
            assert 0 <= recomputed <= invalid
        # ...and the aggregates agree with the per-length sums.
        assert counters["submp.profiles.total"] == sum(
            counters[f"submp.profiles.total.l{n}"] for n in lengths
        )
        assert counters["submp.profiles.valid"] + counters[
            "submp.profiles.invalid"
        ] == counters["submp.profiles.total"]

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_listdp_hits_and_misses_partition_lookups(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal(300)
        counters = _traced_counters(
            lambda: Valmod(t, 16, 21, p=10).run()
        )
        assert counters["listdp.lookups"] > 0
        assert (
            counters.get("listdp.hits", 0) + counters.get("listdp.misses", 0)
            == counters["listdp.lookups"]
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_discord_pruned_recomputed_partition_swept(self, seed):
        # The MAD driver's accounting identity: every scanned length is
        # either pruned or recomputed, never both, never neither —
        # mirroring the ComputeSubMP valid/invalid partition above.
        rng = np.random.default_rng(seed)
        t = rng.standard_normal(260)
        t[100:114] += 3.0 * np.hanning(14)
        l_min, l_max = 10, 20
        counters = _traced_counters(
            lambda: find_discords_pruned(t, l_min, l_max, k=2)
        )
        swept = counters["discords.lengths.swept"]
        assert swept == l_max - l_min + 1
        pruned = counters.get("discords.profiles.pruned", 0)
        recomputed = counters.get("discords.profiles.recomputed", 0)
        assert pruned + recomputed == swept
        # Per-length: exactly one of the two markers per scanned length.
        for length in range(l_min, l_max + 1):
            p_l = counters.get(f"discords.profiles.pruned.l{length}", 0)
            r_l = counters.get(f"discords.profiles.recomputed.l{length}", 0)
            assert p_l + r_l == 1
        # ...and the derived report metric is the pruned fraction.
        assert derived_metrics(counters).get(
            "discords_pruning_power"
        ) == pytest.approx(pruned / swept)


class TestFigure9Consistency:
    def test_trace_pruning_power_matches_pruning_margins(self, tmp_path, capsys):
        """The --trace report reproduces Figure 9's pruned fraction.

        ``pruning_margins`` computes maxLB - minDist per profile after
        advancing the listDP store one length; profiles with a positive
        margin are exactly the "valid" profiles ComputeSubMP counts.  The
        two paths share no code beyond ComputeSubMP itself, so agreement
        pins the counter semantics to the paper's figure.
        """
        series = load_dataset("ECG", 1200, seed=0)
        margins = pruning_margins(series, 24, 25, p=20)
        fraction = float((margins > 0).mean())

        csv = tmp_path / "ecg.csv"
        np.savetxt(csv, series)
        out = tmp_path / "trace.json"
        code = main(
            [
                "motifs",
                "--csv", str(csv),
                "--l-min", "24",
                "--l-max", "25",
                "--p", "20",
                "--trace",
                "--trace-out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        report = json.loads(out.read_text())
        assert report["derived"]["pruning_power.l25"] == pytest.approx(
            fraction, abs=1e-12
        )
        # sanity: the run pruned a nontrivial share of the profiles
        assert 0.0 < report["derived"]["pruning_power.l25"] <= 1.0
