"""Differential wall: the pruned discord driver vs the full-profile oracle.

The MAD-style driver's contract is *bitwise identity*: for any input,
engine, length range, k, and caching mode, ``find_discords_pruned``
returns exactly the ``Discord`` list ``find_discords`` would.  Every
test here asserts ``==`` on the dataclass lists (which compares the
float distances exactly), never ``allclose`` — the pruned driver
evaluates profiles with the same registered engine, so there is no
tolerance to grant.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core import discords_variable
from repro.core.compute_mp import compute_matrix_profile
from repro.core.compute_submp import pairwise_entry_distances
from repro.core.discords import find_discords
from repro.core.discords_variable import find_discords_pruned, length_upper_bound
from repro.datasets import load_dataset
from repro.distance.znorm import CONSTANT_EPS
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.matrixprofile.registry import engine_names
from tests.conftest import oracle_profile


@pytest.fixture(scope="module")
def anomalous_series():
    """Periodic series with three similar-width injected anomalies."""
    x = np.linspace(0, 24 * np.pi, 700)
    t = np.sin(x) + 0.05 * np.random.default_rng(11).standard_normal(700)
    for pos in (90, 300, 520):
        t[pos : pos + 14] += 4.0 * np.hanning(14)
    return t


class TestDifferentialEngines:
    @pytest.mark.parametrize("engine", sorted(engine_names()))
    def test_every_engine_bitwise_identical(self, anomalous_series, engine):
        t = anomalous_series[:260] if engine == "brute" else anomalous_series
        l_min, l_max = (12, 18) if engine == "brute" else (12, 30)
        full = find_discords(t, l_min, l_max, k=3, engine=engine)
        pruned = find_discords_pruned(t, l_min, l_max, k=3, engine=engine)
        assert full == pruned


class TestDifferentialShapes:
    @pytest.mark.parametrize("l_min,l_max", [(16, 16), (16, 17), (10, 40)])
    def test_length_ranges(self, anomalous_series, l_min, l_max):
        full = find_discords(anomalous_series, l_min, l_max, k=3)
        pruned = find_discords_pruned(anomalous_series, l_min, l_max, k=3)
        assert full == pruned

    @pytest.mark.parametrize("k", [1, 2, 5, 50])
    def test_k_values(self, anomalous_series, k):
        full = find_discords(anomalous_series, 14, 26, k=k)
        pruned = find_discords_pruned(anomalous_series, 14, 26, k=k)
        assert full == pruned

    def test_lengths_subset(self, anomalous_series):
        lengths = [12, 15, 21, 30]
        full = find_discords(anomalous_series, 12, 30, k=3, lengths=lengths)
        pruned = find_discords_pruned(
            anomalous_series, 12, 30, k=3, lengths=lengths
        )
        assert full == pruned

    @pytest.mark.parametrize("p", [2, 5, 50])
    def test_p_never_changes_the_result(self, anomalous_series, p):
        # p sizes the bound store: it moves the pruned/recomputed split,
        # never the output.
        baseline = find_discords(anomalous_series, 12, 28, k=3)
        assert find_discords_pruned(anomalous_series, 12, 28, k=3, p=p) == baseline


class TestDifferentialCaching:
    def test_stats_cache_on_off(self, anomalous_series):
        t = anomalous_series
        ctx = SeriesContext(t)
        without = find_discords_pruned(t, 14, 26, k=3)
        with_cache = find_discords_pruned(t, 14, 26, k=3, context=ctx)
        assert without == with_cache == find_discords(t, 14, 26, k=3)

    def test_repeat_call_deterministic(self, anomalous_series):
        first = find_discords_pruned(anomalous_series, 14, 26, k=3)
        second = find_discords_pruned(anomalous_series, 14, 26, k=3)
        assert first == second


class TestDifferentialEdgeCases:
    def test_constant_series(self):
        t = np.zeros(300)
        assert find_discords_pruned(t, 16, 24, k=2) == find_discords(
            t, 16, 24, k=2
        )

    def test_flat_segment(self):
        t = np.random.default_rng(3).standard_normal(400)
        t[100:180] = 0.25  # dead-air window inside a noisy series
        assert find_discords_pruned(t, 12, 24, k=3) == find_discords(
            t, 12, 24, k=3
        )

    def test_k_exceeding_non_overlapping_discords(self):
        t = np.sin(np.linspace(0, 8 * np.pi, 200))
        full = find_discords(t, 16, 40, k=50)
        pruned = find_discords_pruned(t, 16, 40, k=50)
        assert full == pruned
        assert len(pruned) < 50

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_series_differential(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal(220)
        full = find_discords(t, 10, 22, k=3)
        pruned = find_discords_pruned(t, 10, 22, k=3)
        assert full == pruned


class TestValidation:
    def test_reversed_range(self, anomalous_series):
        with pytest.raises(InvalidParameterError):
            find_discords_pruned(anomalous_series, 30, 24)

    def test_bad_k(self, anomalous_series):
        with pytest.raises(InvalidParameterError):
            find_discords_pruned(anomalous_series, 14, 26, k=0)

    def test_empty_lengths(self, anomalous_series):
        with pytest.raises(InvalidParameterError):
            find_discords_pruned(anomalous_series, 14, 26, lengths=[])

    def test_lengths_outside_range(self, anomalous_series):
        with pytest.raises(InvalidParameterError):
            find_discords_pruned(anomalous_series, 14, 26, lengths=[40])

    def test_unknown_engine(self, anomalous_series):
        with pytest.raises(InvalidParameterError):
            find_discords_pruned(anomalous_series, 14, 26, engine="nope")


def nxp_length_upper_bound(store_neighbor, store_qt, ctx, length):
    """The bound with Eq. 3 evaluated on every stored entry (the oracle)."""
    n = ctx.series.size
    n_dp = n - length + 1
    _, sigma = ctx.moving_mean_std(length)
    zone = exclusion_zone_half_width(length)
    nb = store_neighbor[:n_dp]
    qt = store_qt[:n_dp]
    rows = np.arange(n_dp)[:, None]
    in_range = (nb >= 0) & (nb <= n - length)
    usable = in_range & (np.abs(nb - rows) >= zone)
    dist = pairwise_entry_distances(qt, nb, usable, in_range, sigma, length)
    return float(dist.min(axis=1).max()) / math.sqrt(length)


def spiked_sine(n, seed):
    """Noisy sine (period 100) with three short spikes at distinct phases."""
    rng = np.random.default_rng(seed)
    t = np.sin(np.linspace(0.0, 0.02 * np.pi * n, n))
    t += 0.05 * rng.standard_normal(n)
    for q in (1, 3, 5):
        pos = (q * n) // 8 + 11 * q
        t[pos : pos + 6] += np.hanning(6)
    return t


def constant_run():
    t = spiked_sine(900, 2)
    t[300:500] = 0.3
    return t


def offset_shelf():
    t = spiked_sine(900, 3)
    t[300:450] += 1e6
    return t


BOUND_CASES = {
    "spiked-sine": lambda: spiked_sine(900, 1),
    "ecg": lambda: load_dataset("ECG", 900),
    "constant-run": constant_run,
    "offset-shelf": offset_shelf,
}


def advanced_bounds(series, base, top, p, bound):
    """``bound`` at every length in ``(base, top]`` on one advancing store."""
    ctx = SeriesContext(series)
    _, store = compute_matrix_profile(ctx.series, base, p, context=ctx)
    out = []
    for length in range(base + 1, top + 1):
        store.advance_to(length, ctx.series, ctx.moving_mean_std(length - 1)[0])
        out.append(bound(store.neighbor, store.qt, ctx, length))
    return out


class TestRankSpaceBound:
    """``length_upper_bound`` scores entries in rank space; Eq. 3 runs on
    one winner per row (plus constant neighbours).  It must give the n x p
    form's value bit for bit, and never less on an ill-conditioned series."""

    @pytest.mark.parametrize("name", sorted(BOUND_CASES))
    def test_bitwise_equal_to_nxp_form(self, name):
        t = BOUND_CASES[name]()
        fast = advanced_bounds(t, 36, 72, 20, length_upper_bound)
        oracle = advanced_bounds(t, 36, 72, 20, nxp_length_upper_bound)
        assert fast == oracle
        assert all(math.isfinite(value) for value in oracle)

    def test_constant_neighbours_are_folded_in(self):
        # Algorithm 3 ranks constant candidates at correlation 0, so its
        # stores rarely keep one; point whole rows at constant windows to
        # reach the fold-in: a constant owner is 0 from them, a live owner
        # sqrt(l).  Without the fold-in both rows would bound at +inf.
        t = constant_run()
        length = 37
        ctx = SeriesContext(t)
        _, store = compute_matrix_profile(t, length - 1, 20, context=ctx)
        store.advance_to(length, t, ctx.moving_mean_std(length - 1)[0])
        _, sigma = ctx.moving_mean_std(length)
        const = np.flatnonzero(sigma < CONSTANT_EPS)
        owner_const, owner_live = int(const[0]), 100
        nb = store.neighbor.copy()
        nb[owner_const] = const[-20:]
        nb[owner_live] = const[:20]
        fast = length_upper_bound(nb, store.qt, ctx, length)
        assert fast == nxp_length_upper_bound(nb, store.qt, ctx, length)
        assert math.isfinite(fast)

    def test_row_without_usable_entry_is_infinite(self):
        t = spiked_sine(600, 4)
        ctx = SeriesContext(t)
        _, store = compute_matrix_profile(t, 30, 8, context=ctx)
        store.advance_to(31, t, ctx.moving_mean_std(30)[0])
        assert math.isfinite(length_upper_bound(store.neighbor, store.qt, ctx, 31))
        for row, unusable in ((100, -1), (200, 205)):  # empty / inside the zone
            nb = store.neighbor.copy()
            nb[row] = unusable
            assert length_upper_bound(nb, store.qt, ctx, 31) == math.inf
            assert nxp_length_upper_bound(nb, store.qt, ctx, 31) == math.inf

    def test_never_below_nxp_form_when_ill_conditioned(self):
        # A 1e6 offset on the whole series: the bound, inflated by the
        # pruning slack, never falls below the true profile maximum of an
        # oracle that z-normalizes every window, and it is still the n x p
        # form's value.
        t = spiked_sine(900, 6) + 1e6
        fast = advanced_bounds(t, 36, 72, 20, length_upper_bound)
        nxp = advanced_bounds(t, 36, 72, 20, nxp_length_upper_bound)
        assert fast == nxp
        for length, bound in zip(range(37, 73), fast):
            exact = oracle_profile(t, length).max() / math.sqrt(length)
            assert bound * (1.0 + discords_variable.UB_RELATIVE_SLACK) >= exact

    def test_pruned_and_recomputed_lengths_unchanged(self, monkeypatch):
        t = spiked_sine(1000, 0)

        def lengths_by_outcome():
            with obs.tracing(True):
                obs.reset()
                found = find_discords_pruned(t, 36, 80, k=3)
                counters = obs.get_tracer().counters()
            return found, {
                outcome: sorted(
                    int(name.rsplit(".l", 1)[1])
                    for name in counters
                    if name.startswith(f"discords.profiles.{outcome}.l")
                )
                for outcome in ("pruned", "recomputed")
            }

        found, lengths = lengths_by_outcome()
        monkeypatch.setattr(
            discords_variable, "length_upper_bound", nxp_length_upper_bound
        )
        oracle_found, oracle_lengths = lengths_by_outcome()
        assert lengths == oracle_lengths
        assert len(lengths["pruned"]) > len(lengths["recomputed"]) > 0
        assert found == oracle_found == find_discords(t, 36, 80, k=3)
