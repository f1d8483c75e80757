"""Tests for the streaming (incremental) matrix profile."""

import numpy as np
import pytest

from repro import obs
from repro.exceptions import InvalidParameterError, WindowTooSmallError
from repro.matrixprofile import StreamingMatrixProfile, stomp
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from tests.conftest import assert_profiles_close


@pytest.fixture()
def feed(rng):
    return np.random.default_rng(42).standard_normal(350)


class TestEquivalenceWithBatch:
    def test_single_append(self, feed):
        smp = StreamingMatrixProfile(feed[:-1], length=20)
        smp.append(float(feed[-1]))
        batch = stomp(feed, 20)
        assert_profiles_close(smp.matrix_profile().profile, batch.profile, atol=1e-6)

    def test_many_appends(self, feed):
        smp = StreamingMatrixProfile(feed[:250], length=20)
        smp.extend(feed[250:])
        batch = stomp(feed, 20)
        assert_profiles_close(smp.matrix_profile().profile, batch.profile, atol=1e-6)

    def test_indices_point_to_true_neighbors(self, feed):
        smp = StreamingMatrixProfile(feed[:300], length=16)
        smp.extend(feed[300:])
        mp = smp.matrix_profile()
        batch = stomp(feed, 16)
        # Distances agree; indices may differ only on exact ties.
        disagreements = mp.index != batch.index
        if disagreements.any():
            np.testing.assert_allclose(
                mp.profile[disagreements], batch.profile[disagreements], atol=1e-6
            )

    def test_motif_pair_tracks_stream(self, feed):
        pattern = np.sin(np.linspace(0, 4 * np.pi, 30))
        series = feed.copy()
        series[50:80] += 5 * pattern
        smp = StreamingMatrixProfile(series, length=30)
        # Stream in a second copy of the pattern.
        tail = np.random.default_rng(1).standard_normal(60)
        tail[10:40] += 5 * pattern
        smp.extend(tail)
        pair = smp.matrix_profile().motif_pair()
        assert {True} == {
            abs(offset - 50) <= 30 or offset >= len(series) - 30
            for offset in (pair.a, pair.b)
        }


class TestValidation:
    def test_initial_length_checks(self, feed):
        with pytest.raises(InvalidParameterError):
            StreamingMatrixProfile(feed, length=1)
        with pytest.raises(InvalidParameterError):
            StreamingMatrixProfile(feed[:20], length=15)

    def test_non_finite_append_rejected(self, feed):
        smp = StreamingMatrixProfile(feed[:100], length=10)
        with pytest.raises(InvalidParameterError):
            smp.append(float("nan"))

    def test_bookkeeping(self, feed):
        smp = StreamingMatrixProfile(feed[:100], length=10)
        assert len(smp) == 100
        assert smp.n_subsequences == 91
        smp.append(1.0)
        assert len(smp) == 101
        assert smp.n_subsequences == 92
        assert smp.series().size == 101


class TestSlidingWindow:
    def test_eviction_matches_batch_on_retained_window(self, feed):
        smp = StreamingMatrixProfile(feed[:250], length=20, max_points=280)
        smp.extend(feed[250:])
        assert smp.window_start == 70
        assert len(smp) == 280
        mp = smp.matrix_profile()
        batch = stomp(feed[70:].copy(), 20)
        assert_profiles_close(mp.profile, batch.profile, atol=1e-8)
        disagreements = mp.index != batch.index
        if disagreements.any():  # only exact distance ties may differ
            np.testing.assert_allclose(
                mp.profile[disagreements],
                batch.profile[disagreements],
                atol=1e-8,
            )

    def test_initial_series_larger_than_window(self, feed):
        smp = StreamingMatrixProfile(feed[:300], length=16, max_points=120)
        assert len(smp) == 120 and smp.window_start == 180
        batch = stomp(feed[180:300].copy(), 16)
        assert_profiles_close(
            smp.matrix_profile().profile, batch.profile, atol=1e-8
        )

    def test_window_too_small_rejected(self, feed):
        with pytest.raises(WindowTooSmallError):
            StreamingMatrixProfile(feed[:200], length=30, max_points=59)


class TestAllocationRegression:
    def test_appends_do_not_rebuild_per_append_state(self, feed):
        """The hoisted-buffer contract, pinned via the obs counters.

        Before the rewrite every append rebuilt the series array and a
        fresh SeriesContext, so ``stats.cache.misses`` grew linearly
        with the number of appends.  Now the per-window statistics are
        extended in place (zero misses during appends) and buffer
        growth is amortized doubling (at most log2 regrows).
        """
        appends = 100
        with obs.tracing(True):
            obs.reset()
            smp = StreamingMatrixProfile(feed[:250], length=20)
            after_init = dict(obs.snapshot()["counters"])
            smp.extend(feed[250 : 250 + appends])
            counters = dict(obs.snapshot()["counters"])
        assert counters["streaming.appends"] == appends
        misses_during_appends = counters.get(
            "stats.cache.misses", 0
        ) - after_init.get("stats.cache.misses", 0)
        assert misses_during_appends == 0
        regrows = counters.get("streaming.buffer.regrows", 0)
        assert regrows <= int(np.ceil(np.log2(250 + appends)))

    def test_eviction_repairs_orphaned_rows(self, feed):
        with obs.tracing(True):
            obs.reset()
            smp = StreamingMatrixProfile(feed[:250], length=20, max_points=260)
            smp.extend(feed[250:])
            counters = dict(obs.snapshot()["counters"])
        assert counters["streaming.entries.evicted"] == feed.size - 260
        assert counters["streaming.rows.repaired"] > 0
        # ... and the repaired state is still exact (the wall above
        # re-checks this; here we only pin that repairs happened).


def direct_profile(series, length):
    """Oracle profile: every window z-normalized explicitly, no recurrence."""
    windows = np.lib.stride_tricks.sliding_window_view(series, length)
    z = (windows - windows.mean(axis=1, keepdims=True)) / windows.std(
        axis=1, keepdims=True
    )
    zone = exclusion_zone_half_width(length)
    profile = np.empty(len(z))
    for i in range(len(z)):
        row = np.sqrt(((z - z[i]) ** 2).sum(axis=1))
        row[max(0, i - zone + 1) : i + zone] = np.inf
        profile[i] = row.min()
    return profile


class TestDrift:
    @pytest.mark.parametrize(
        "step_sd, offset, bound", [(1.0, 1e4, 1e-5), (0.1, 1e6, 0.25)]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_noisy_shelf_matches_direct_oracle(self, seed, step_sd, offset, bound):
        """The trailing co-moment row is re-anchored exactly while streaming.

        A 200-point noisy shelf at a large offset feeds the co-moment
        recurrence update terms of size offset**2.  The streaming window
        recomputes the row exactly by the drift rule (the counter),
        and the streamed profile stays within the stated bound of an
        oracle that uses no recurrence.  On the 0.1-sd-step walk at 1e6 a
        recurrence that is never re-anchored is off by 0.31-0.66 and the
        re-anchored one by 0.027-0.16; batch STOMP's error on the same
        series is 0.010-0.022 (0.9-1.7e-6 on the 1e4 case).
        """
        rng = np.random.default_rng(seed)
        series = np.cumsum(step_sd * rng.standard_normal(1200))
        series[600:800] = offset + 0.5 * rng.standard_normal(200)
        with obs.tracing(True):
            obs.reset()
            smp = StreamingMatrixProfile(series[:100], length=20)
            smp.extend(series[100:])
            counters = dict(obs.snapshot()["counters"])
        error = np.abs(smp.matrix_profile().profile - direct_profile(series, 20))
        assert error.max() < bound
        assert counters.get("comoment.reanchors", 0) > 0
