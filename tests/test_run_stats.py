"""Tests for the run-statistics containers (repro.core.stats)."""

import numpy as np
import pytest

from repro.core.stats import LengthStats, RunStats


def make_stats(mode, length=16, n_profiles=100, **kwargs):
    defaults = dict(
        length=length,
        mode=mode,
        elapsed_seconds=0.1,
        n_profiles=n_profiles,
    )
    defaults.update(kwargs)
    return LengthStats(**defaults)


class TestLengthStats:
    def test_valid_fraction(self):
        stats = make_stats("submp", n_valid=75)
        assert stats.valid_fraction == 0.75

    def test_valid_fraction_empty(self):
        stats = make_stats("submp", n_profiles=0)
        assert stats.valid_fraction == 0.0

    def test_no_margin_field(self):
        # Fig. 9's margins come from repro.analysis.pruning.pruning_margins.
        with pytest.raises(TypeError):
            make_stats("submp", pruning_margin=np.array([1.0, -2.0]))


class TestRunStats:
    def test_empty_summary(self):
        assert RunStats().summary() == "no lengths processed"

    def test_mode_counters(self):
        run = RunStats()
        run.add(make_stats("initial"))
        run.add(make_stats("submp", length=17))
        run.add(make_stats("submp-partial", length=18))
        run.add(make_stats("full-recompute", length=19))
        assert run.n_fast_lengths == 1
        assert run.n_partial_recomputes == 1
        assert run.n_full_recomputes == 1

    def test_total_seconds(self):
        run = RunStats()
        run.add(make_stats("initial"))
        run.add(make_stats("submp", length=17))
        assert run.total_seconds == pytest.approx(0.2)

    def test_submp_sizes_skip_initial(self):
        run = RunStats()
        run.add(make_stats("initial", submp_size=100))
        run.add(make_stats("submp", length=17, submp_size=80))
        run.add(make_stats("full-recompute", length=18, submp_size=99))
        assert run.submp_sizes() == [80, 99]

    def test_summary_mentions_modes(self):
        run = RunStats()
        run.add(make_stats("initial"))
        run.add(make_stats("submp", length=17))
        text = run.summary()
        assert "pure-subMP" in text and "full recomputes" in text
