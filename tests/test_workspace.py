"""The scratch workspace Algorithms 3 and 4 reuse from block to block.

Every block taken from a :class:`~repro.kernels.context.Workspace` must
give the same bits as the fresh array it replaces, whatever the buffer
held before: the GEMM rows of ``window_comoments``, the rank block of
``rank_rows``, and whole ``valmod`` runs that share one context.  The
counters the same loops emit are checked against closed forms.
"""

import mmap

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro import obs
from repro.core.compute_mp import compute_matrix_profile
from repro.core.entries import rank_rows
from repro.core.valmod import Valmod
from repro.datasets import load_dataset
from repro.distance.comoment import window_comoments
from repro.distance.sliding import DIRECT_DOT_MAX
from repro.kernels.context import SeriesContext, Workspace

FIELDS = ("neighbor", "qt", "max_lb_base", "profile", "index")


def dirty(space, n_rows, n_cols):
    """Fill every slot of ``space`` with NaN, as if an earlier, larger
    block had left garbage in it."""
    for slot in ("centred", "comoments", "rank"):
        space.take(slot, (n_rows, n_cols))[...] = np.nan


def series_of(n, seed=0):
    return load_dataset("EMG", n, seed=seed)


class TestWorkspace:
    def test_a_slot_reuses_its_memory_and_slots_do_not_alias(self):
        space = Workspace()
        a = space.take("a", (4, 10))
        again = space.take("a", (2, 10))
        b = space.take("b", (4, 10))
        assert again.shape == (2, 10) and again.flags.c_contiguous
        assert np.shares_memory(a, again)
        assert not np.shares_memory(a, b)
        a[...] = 1.0
        assert a.flags.writeable and (again == 1.0).all()

    def test_a_larger_request_gets_a_new_buffer(self):
        space = Workspace()
        first = space.take("a", (100,))
        assert space._buffers["a"].size == 100
        grown = space.take("a", (101,))
        assert grown.size == 101 and not np.shares_memory(first, grown)

    def test_a_reserve_sizes_the_slot_for_later_takes(self):
        space = Workspace()
        space.reserve("a", 400)
        small = space.take("a", (8, 10))
        large = space.take("a", (40, 10))
        assert np.shares_memory(small, large)
        space.reserve("a", 100)
        assert space._buffers["a"].size == 400


class TestContextWorkspace:
    def test_outside_a_block_each_call_is_a_fresh_heap_workspace(self):
        ctx = SeriesContext(np.arange(50.0))
        assert ctx.workspace() is not ctx.workspace()
        assert not ctx.workspace()._mapped

    def test_a_block_workspace_is_mapped_and_reserves_its_centred_slot(self):
        ctx = SeriesContext(np.arange(50.0))
        with ctx.open_workspace() as space:
            assert space._mapped
            assert space._buffers["centred"].size == 50 * DIRECT_DOT_MAX
            space.take("a", (3, 4))
            assert isinstance(space._buffers["a"].base.obj, mmap.mmap)

    def test_a_block_holds_one_workspace_and_drops_it(self):
        ctx = SeriesContext(np.arange(50.0))
        with ctx.open_workspace() as space:
            assert ctx.workspace() is space
            with ctx.open_workspace() as inner:
                assert inner is space
            assert ctx.workspace() is space
        assert ctx._workspace is None
        with pytest.raises(RuntimeError):
            with ctx.open_workspace():
                raise RuntimeError
        assert ctx._workspace is None

    @pytest.mark.parametrize("length, held", [(40, True), (80, False)])
    def test_algorithm_3_uses_the_open_workspace_at_short_windows(self, length, held):
        t = series_of(600, seed=1)
        ctx = SeriesContext(t)
        with ctx.open_workspace() as space:
            compute_matrix_profile(t, length, 5, context=ctx)
            assert ("rank" in space._buffers) == held

    def test_a_run_drops_its_workspace_when_it_returns(self):
        t = series_of(600, seed=1)
        ctx = SeriesContext(t)
        Valmod(t, 30, 36, p=5, context=ctx).run()
        assert ctx._workspace is None


class TestWindowComoments:
    @pytest.mark.parametrize("length", [16, 40, 64])
    def test_rows_equal_the_fresh_gemm_bit_for_bit(self, length):
        t = series_of(700)
        ctx = SeriesContext(t)
        mu, _ = ctx.moving_mean_std(length)
        n_subs = mu.size
        centred = sliding_window_view(t, length) - mu[:, None]
        space = Workspace()
        dirty(space, n_subs, length + 40)
        comoments = window_comoments(ctx, length, mu, space)
        rng = np.random.default_rng(1)
        blocks = [rng.choice(n_subs, size, replace=False) for size in (1, 8, 16, 32)]
        blocks += [slice(96, 128), slice(n_subs - 5, n_subs)]
        for rows in blocks:
            expected = centred[rows] @ centred.T
            got = comoments(rows)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_each_block_is_valid_until_the_next(self):
        t = series_of(300)
        ctx = SeriesContext(t)
        mu, _ = ctx.moving_mean_std(20)
        comoments = window_comoments(ctx, 20, mu, Workspace())
        first = comoments(slice(0, 8))
        kept = first.copy()
        second = comoments(slice(8, 16))
        assert np.shares_memory(first, second)
        assert not np.array_equal(first, kept)


class TestRankRows:
    @pytest.mark.parametrize("length", [12, 48])
    def test_dirty_workspace_equals_a_fresh_call(self, length):
        t = series_of(500, seed=2)
        t[200:260] = 1.5  # constant windows take the convention branch
        ctx = SeriesContext(t)
        mu, sigma = ctx.moving_mean_std(length)
        centred = sliding_window_view(t, length) - mu[:, None]
        qt = centred @ centred.T
        n_subs = mu.size
        space = Workspace()
        dirty(space, 32, n_subs)
        blocks = (np.arange(32), np.arange(n_subs - 8, n_subs), np.array([n_subs - 1, 0, 210, 9]))
        buffer = space._buffers["rank"]
        for rows in blocks:
            fresh = rank_rows(qt[rows], rows, sigma, length, 7)
            reused = rank_rows(qt[rows], rows, sigma, length, 7, space)
            for field in FIELDS:
                assert getattr(reused, field).tobytes() == getattr(fresh, field).tobytes()
                assert not np.shares_memory(getattr(reused, field), buffer)


def run(series, l_min, l_max, context=None):
    return Valmod(series, l_min, l_max, p=6, track_top_k=2, context=context).run()


def assert_same_run(a, b):
    for name in ("distances", "norm_distances", "lengths", "indices"):
        assert getattr(a.valmp, name).tobytes() == getattr(b.valmp, name).tobytes()
    assert a.motif_pairs == b.motif_pairs
    strip = lambda r: [  # noqa: E731
        {k: v for k, v in vars(s).items() if k != "elapsed_seconds"} for s in r.stats.per_length
    ]
    assert strip(a) == strip(b)


class TestSharedContext:
    def test_back_to_back_runs_equal_fresh_contexts(self):
        t = series_of(900, seed=4)
        ctx = SeriesContext(t)
        # Short windows (GEMM rows), then a range across the cut at 64
        # (recurrence rows in Algorithm 3), then the first range again.
        ranges = [(20, 30), (58, 70), (20, 30)]
        # The outer block makes the runs share one workspace, so each run
        # starts on the blocks the one before it left behind.
        with ctx.open_workspace():
            for l_min, l_max in ranges:
                shared = run(t, l_min, l_max, context=ctx)
                fresh = run(t, l_min, l_max)
                assert_same_run(shared, fresh)

    @pytest.mark.parametrize("length", [24, 80])
    def test_pool_equals_serial_on_a_used_context(self, length):
        t = series_of(1200, seed=5)
        ctx = SeriesContext(t)
        with ctx.open_workspace() as space:
            dirty(space, 64, t.size)
            # An earlier pass at another length leaves its state behind.
            compute_matrix_profile(t, length + 7, 8, context=ctx)
            serial_mp, serial = compute_matrix_profile(t, length, 8, context=ctx)
        pool_mp, pool = compute_matrix_profile(t, length, 8, n_jobs=2)
        assert serial_mp.profile.tobytes() == pool_mp.profile.tobytes()
        assert serial_mp.index.tobytes() == pool_mp.index.tobytes()
        for name in ("neighbor", "qt", "max_lb_base"):
            assert getattr(serial, name).tobytes() == getattr(pool, name).tobytes()


class TestCellCounters:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("length", [24, 80])
    def test_compute_mp_cells_is_n_subs_squared(self, length, n_jobs):
        t = series_of(700, seed=6)
        with obs.tracing(True):
            obs.reset()
            compute_matrix_profile(t, length, 5, n_jobs=n_jobs)
            counters = obs.get_tracer().counters()
        n_subs = t.size - length + 1
        assert counters["compute_mp.rows"] == n_subs
        assert counters["compute_mp.cells"] == n_subs * n_subs

    def test_recompute_cells_are_recomputed_rows_times_profiles(self):
        t = series_of(1000, seed=0)
        with obs.tracing(True):
            obs.reset()
            result = run(t, 32, 48)
            counters = obs.get_tracer().counters()
        expected = sum(s.n_recomputed * s.n_profiles for s in result.stats.per_length)
        assert expected > 0
        assert counters["submp.recompute.cells"] == expected
        full = sum(1 for s in result.stats.per_length if s.mode in ("initial", "full-recompute"))
        squares = sum(
            s.n_profiles ** 2
            for s in result.stats.per_length
            if s.mode in ("initial", "full-recompute")
        )
        assert full >= 1
        assert counters["compute_mp.cells"] == squares
