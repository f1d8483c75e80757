"""SeriesContext: bitwise equivalence, cache semantics, sweep counters.

Three layers of guarantees, strongest first:

1.  **Bitwise transparency** — every cached primitive returns exactly the
    array the uncached call would have produced, on adversarial inputs
    (flat shelves, high-magnitude constants) and across full length
    sweeps (hypothesis drives the shapes).
2.  **Cache mechanics** — hit/miss/build/reuse counters, ``ensure``
    adoption rules, read-only cached arrays.
3.  **The sweep invariant** — a VALMOD l_min→l_max run performs exactly
    one ``moving_mean_std`` per length and one series FFT, proven by
    obs counters, with output bitwise identical to a cache-off run.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.compute_mp import TILE_ROWS
from repro.core.valmod import Valmod
from repro.distance.sliding import (
    DIRECT_DOT_MAX,
    moving_mean_std,
    sliding_dot_product,
)
from repro.kernels import SeriesContext


def _series_with_shelf(seed, n, shelf):
    """Random walk with an optional flat shelf and magnitude offset."""
    rng = np.random.default_rng(seed)
    series = rng.standard_normal(n).cumsum()
    if shelf:
        lo = n // 4
        series[lo : lo + n // 3] = series[lo]
    return series


class TestBitwiseEquivalence:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(64, 300),
        shelf=st.booleans(),
        offset=st.sampled_from([0.0, 1.0, 1e6, -1e8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_moving_mean_std_full_length_sweep(self, seed, n, shelf, offset):
        """Cached stats == uncached stats, bit for bit, for every length
        the series admits — including flat shelves (sigma == 0 windows)
        and high-magnitude constant offsets (cancellation territory)."""
        series = _series_with_shelf(seed, n, shelf) + offset
        ctx = SeriesContext(series)
        for length in range(2, n + 1, max(1, n // 16)):
            mu_c, sigma_c = ctx.moving_mean_std(length)
            mu_u, sigma_u = moving_mean_std(series, length)
            np.testing.assert_array_equal(mu_c, mu_u)
            np.testing.assert_array_equal(sigma_c, sigma_u)
            # And a second request returns the identical cached arrays.
            mu_again, sigma_again = ctx.moving_mean_std(length)
            assert mu_again is mu_c and sigma_again is sigma_c

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(150, 400),
        qlen=st.integers(4, 130),
    )
    @settings(max_examples=40, deadline=None)
    def test_sliding_dot_product_bitwise(self, seed, n, qlen):
        """Cached-spectrum dot products == uncached, on both sides of the
        direct/FFT threshold (DIRECT_DOT_MAX)."""
        series = _series_with_shelf(seed, n, shelf=False)
        query = series[: qlen]
        ctx = SeriesContext(series)
        np.testing.assert_array_equal(
            ctx.sliding_dot_product(query), sliding_dot_product(query, series)
        )
        # Second call reuses the plan; result must not change.
        np.testing.assert_array_equal(
            ctx.sliding_dot_product(query), sliding_dot_product(query, series)
        )


class TestEnsureSemantics:
    def test_ensure_adopts_matching_context(self):
        series = _series_with_shelf(0, 100, shelf=False)
        ctx = SeriesContext(series)
        assert SeriesContext.ensure(series, ctx) is ctx
        # The validated internal buffer matches too (shared memory).
        assert SeriesContext.ensure(ctx.series, ctx) is ctx
        # An equal copy in a distinct buffer is still a match.
        assert SeriesContext.ensure(series.copy(), ctx) is ctx

    def test_ensure_rejects_mismatched_context(self):
        series = _series_with_shelf(0, 100, shelf=False)
        other = _series_with_shelf(1, 100, shelf=False)
        ctx = SeriesContext(series)
        fresh = SeriesContext.ensure(other, ctx)
        assert fresh is not ctx
        assert fresh.matches(other)
        assert not ctx.matches(other)
        assert not ctx.matches(series[:50])

    def test_ensure_without_context_builds_one(self):
        series = _series_with_shelf(2, 80, shelf=False)
        ctx = SeriesContext.ensure(series)
        assert isinstance(ctx, SeriesContext)
        assert ctx.cached_stat_lengths == ()
        assert ctx.cached_fft_sizes == ()


class TestCacheMechanics:
    def test_stats_counters(self):
        series = _series_with_shelf(3, 120, shelf=False)
        ctx = SeriesContext(series)
        with obs.tracing(True):
            obs.reset()
            ctx.moving_mean_std(16)
            ctx.moving_mean_std(16)
            ctx.moving_mean_std(24)
            counters = obs.snapshot()["counters"]
        obs.reset()
        obs.disable()
        assert counters["stats.cache.misses"] == 2
        assert counters["stats.cache.hits"] == 1
        assert ctx.cached_stat_lengths == (16, 24)

    def test_fft_plan_counters(self):
        series = _series_with_shelf(4, 400, shelf=False)
        ctx = SeriesContext(series)
        long_query = series[: DIRECT_DOT_MAX + 8]
        with obs.tracing(True):
            obs.reset()
            ctx.sliding_dot_product(long_query)
            ctx.sliding_dot_product(long_query[::-1].copy())
            counters = obs.snapshot()["counters"]
        obs.reset()
        obs.disable()
        assert counters["fft.plan.build"] == 1
        assert counters["fft.plan.reuse"] == 1
        assert len(ctx.cached_fft_sizes) == 1

    @pytest.mark.parametrize("length", [DIRECT_DOT_MAX + 1, 150])
    def test_window_dot_products_match_direct_correlation(self, length):
        series = _series_with_shelf(7, 400, shelf=True)
        ctx = SeriesContext(series)
        starts = np.array([0, 5, 123, series.size - length])
        with obs.tracing(True):
            obs.reset()
            block = ctx.window_dot_products(
                sliding_window_view(series, length)[starts]
            )
            ctx.sliding_dot_product(series[:length])
            counters = obs.snapshot()["counters"]
        obs.reset()
        obs.disable()
        assert block.shape == (starts.size, series.size - length + 1)
        for row, start in zip(block, starts):
            direct = np.correlate(series, series[start : start + length], mode="valid")
            np.testing.assert_allclose(row, direct, rtol=1e-12, atol=1e-9)
        # One series transform serves the batch and the one-row path.
        assert counters["fft.plan.build"] == 1
        assert counters["fft.plan.reuse"] == 1
        assert counters["mass.fft_calls"] == starts.size + 1

    def test_short_queries_skip_fft_entirely(self):
        series = _series_with_shelf(5, 300, shelf=False)
        ctx = SeriesContext(series)
        with obs.tracing(True):
            obs.reset()
            ctx.sliding_dot_product(series[:DIRECT_DOT_MAX])
            counters = obs.snapshot()["counters"]
        obs.reset()
        obs.disable()
        assert counters.get("fft.plan.build", 0) == 0
        assert ctx.cached_fft_sizes == ()

    def test_cached_arrays_are_readonly(self):
        series = _series_with_shelf(6, 100, shelf=False)
        ctx = SeriesContext(series)
        mu, sigma = ctx.moving_mean_std(10)
        with pytest.raises(ValueError):
            mu[0] = 0.0
        with pytest.raises(ValueError):
            sigma[0] = 0.0


class TestValmodSweepInvariant:
    """The acceptance proof: one stats pass per length, one series FFT."""

    LENGTHS = range(66, 71)  # all above DIRECT_DOT_MAX: the FFT path runs

    @pytest.fixture(scope="class")
    def series(self):
        rng = np.random.default_rng(0)
        return rng.standard_normal(400).cumsum()

    def test_one_stats_pass_per_length_and_one_fft(self, series):
        assert min(self.LENGTHS) > DIRECT_DOT_MAX
        with obs.tracing(True):
            obs.reset()
            Valmod(series, min(self.LENGTHS), max(self.LENGTHS), p=30).run()
            counters = obs.snapshot()["counters"]
        obs.reset()
        obs.disable()
        assert counters["stats.cache.misses"] == len(self.LENGTHS)
        assert counters["fft.plan.build"] == 1
        # One FFT query per Algorithm 3 tile at l_min: row 0, then the
        # exact first row of each further tile, all on the one spectrum.
        n_tiles = -(-(series.size - min(self.LENGTHS) + 1) // TILE_ROWS)
        assert n_tiles > 1
        assert counters["mass.fft_calls"] == n_tiles
