"""Tests for the vectorized listDP entry store and its rank-space scorer.

The scorer is checked against the oracles: the brute-force matrix
profile (each window z-normalized directly) for the profile minimum, and
a full-row Eq. 2 sort for each row's stored bound.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.compute_mp import compute_matrix_profile
from repro.core import entries as entries_module
from repro.core.entries import EntryStore, rank_rows
from repro.core.lower_bound import lower_bound_base
from repro.datasets import load_dataset
from repro.distance.comoment import correlation_from_qt
from repro.distance.profile import apply_exclusion_zone
from repro.distance.sliding import moving_mean_std
from repro.distance.znorm import CONSTANT_EPS, znormalized_distance
from repro.exceptions import InvalidParameterError
from repro.matrixprofile.brute import brute_force_matrix_profile
from repro.matrixprofile.exclusion import exclusion_zone_half_width

#: the exactness tolerance every engine meets against the brute oracle.
TOL = 1e-6


def exact_qt(series, length):
    """Co-moments of every window with every window, from centred windows."""
    windows = sliding_window_view(series, length)
    centred = windows - windows.mean(axis=1)[:, None]
    return centred @ centred.T


def comoment(a, b):
    """The centred co-moment of two windows, summed directly."""
    return float(np.dot(a - a.mean(), b - b.mean()))


def shelf_series():
    t = np.random.default_rng(5).standard_normal(360)
    t[100:170] = 4.0  # a flat shelf: its inner windows are constant
    return t


def constant_series():
    t = np.random.default_rng(6).standard_normal(360)
    t[40:90] = 0.0
    t[200:260] = -2.5
    t[300:330] = 0.0
    return t


SERIES = {
    "noise": lambda: np.random.default_rng(7).standard_normal(360),
    "ecg": lambda: load_dataset("ECG", 360),
    "emg": lambda: load_dataset("EMG", 360),
    "shelf": shelf_series,
    "constant": constant_series,
}


def full_row_lb_base(series, row, length):
    """Eq. 2 numerators of one owner against every candidate (+inf = zone)."""
    mu, sigma = moving_mean_std(series, length)
    qt = exact_qt(series, length)[row]
    corr = correlation_from_qt(qt, length, max(float(sigma[row]), CONSTANT_EPS), sigma)
    corr[sigma < CONSTANT_EPS] = 0.0  # the listDP convention for constant candidates
    base = np.asarray(lower_bound_base(corr, length, float(sigma[row])))
    zone = exclusion_zone_half_width(length)
    base[np.abs(np.arange(base.size) - row) < zone] = np.inf
    return base


def expected_max_lb_base(series, row, length, p):
    """The row bound listDP must store: the largest of the row's p
    smallest Eq. 2 numerators, or +inf when it has fewer than p
    candidates."""
    base = np.sort(full_row_lb_base(series, row, length))
    return base[p - 1] if p <= base.size else np.inf


def build_row(series, row, length, p):
    """Helper: fill one store row the way Algorithm 3 does."""
    _, sigma = moving_mean_std(series, length)
    n_subs = series.size - length + 1
    store = EntryStore.empty(n_subs, p, length)
    store.fill_row(row, exact_qt(series, length)[row], sigma, length)
    return store


class TestEmpty:
    def test_allocation(self):
        store = EntryStore.empty(10, 4, 16)
        assert store.n_profiles == 10
        assert store.p == 4
        assert store.current_length == 16
        assert (store.neighbor == -1).all()
        assert store.max_lb_base.shape == (10,)
        assert np.isinf(store.max_lb_base).all()

    def test_invalid_p(self):
        with pytest.raises(InvalidParameterError):
            EntryStore.empty(10, 0, 16)

    def test_invalid_profiles(self):
        with pytest.raises(InvalidParameterError):
            EntryStore.empty(0, 4, 16)


class TestFillRow:
    def test_keeps_p_smallest_lb(self, noise_series):
        t = noise_series
        store = build_row(t, 100, 16, 5)
        expected = expected_max_lb_base(t, 100, 16, 5)
        assert np.isfinite(expected)
        np.testing.assert_allclose(store.max_lb_base[100], expected, atol=1e-10)

    def test_excludes_trivial_matches(self, noise_series):
        store = build_row(noise_series, 100, 16, 8)
        zone = exclusion_zone_half_width(16)
        neighbors = store.neighbor[100]
        neighbors = neighbors[neighbors >= 0]
        assert np.all(np.abs(neighbors - 100) >= zone)

    def test_partial_fill_when_few_candidates(self):
        t = np.random.default_rng(0).standard_normal(40)
        # length 16 -> zone 8, 25 subsequences, eligible ~ those beyond zone
        store = build_row(t, 12, 16, 50)
        eligible = np.isfinite(full_row_lb_base(t, 12, 16))
        count = int((store.neighbor[12] >= 0).sum())
        assert count == int(eligible.sum()) < 50
        assert (store.neighbor[12][:count] >= 0).all()
        # The row holds every candidate, so nothing unstored bounds it.
        assert store.max_lb_base[12] == expected_max_lb_base(t, 12, 16, 50) == np.inf

    def test_qt_values_are_dot_products(self, noise_series):
        t = noise_series
        store = build_row(t, 50, 16, 4)
        for slot in range(4):
            j = store.neighbor[50, slot]
            if j < 0:
                continue
            expected = comoment(t[50 : 50 + 16], t[j : j + 16])
            assert store.qt[50, slot] == pytest.approx(expected, abs=1e-8)


class TestRankRows:
    """``rank_rows`` and Algorithm 3 against the brute-force oracle."""

    @pytest.mark.parametrize("name", sorted(SERIES))
    @pytest.mark.parametrize("length", [12, 24])
    def test_profile_and_index_match_brute(self, name, length):
        t = SERIES[name]()
        mu, sigma = moving_mean_std(t, length)
        oracle = brute_force_matrix_profile(t, length)
        ranked = rank_rows(
            exact_qt(t, length), np.arange(mu.size), sigma, length, 6
        )
        mp, _ = compute_matrix_profile(t, length, 6)
        zone = exclusion_zone_half_width(length)
        for profile, index in ((ranked.profile, ranked.index), (mp.profile, mp.index)):
            np.testing.assert_allclose(profile, oracle.profile, rtol=0, atol=TOL)
            # Ties may pick another offset, but never a worse or trivial one.
            for i, j in enumerate(index):
                assert abs(j - i) >= zone
                direct = znormalized_distance(t[i : i + length], t[j : j + length])
                assert direct == pytest.approx(oracle.profile[i], abs=TOL)

    @pytest.mark.parametrize("name", sorted(SERIES))
    @pytest.mark.parametrize("p", [1, 5, 400])
    def test_lb_base_are_the_p_smallest(self, name, p):
        t = SERIES[name]()
        length = 16
        _, store = compute_matrix_profile(t, length, p)
        for row in range(0, store.n_profiles, 23):
            base = full_row_lb_base(t, row, length)
            eligible = int(np.isfinite(base).sum())
            kept = min(p, eligible)
            # Ties among q <= 0 share one value, so any tied choice sorts alike.
            expected = expected_max_lb_base(t, row, length, p)
            stored = store.max_lb_base[row]
            assert (store.neighbor[row][:kept] >= 0).all()
            assert (store.neighbor[row][kept:] == -1).all()
            assert np.isinf(stored) == np.isinf(expected) == (kept < p)
            np.testing.assert_allclose(stored, expected, rtol=1e-9, atol=1e-9)
            # Every unstored candidate bounds at least the stored bound.
            unstored = np.setdiff1d(np.flatnonzero(np.isfinite(base)), store.neighbor[row])
            if unstored.size:
                assert base[unstored].min() >= stored - 1e-9

    @pytest.mark.parametrize("length", [1, 12, 24, 200])
    def test_zone_mask_matches_per_row_reference(self, length):
        n = 40
        rank = np.random.default_rng(3).standard_normal((5, n))
        rows = np.array([0, n - 1, 7, 20, 6])  # edges, then scattered
        zone = exclusion_zone_half_width(length)
        masked = rank.copy()
        entries_module._mask_zones(masked, rows, zone)
        for b, row in enumerate(rows):
            reference = apply_exclusion_zone(rank[b].copy(), int(row), zone, value=-np.inf)
            np.testing.assert_array_equal(masked[b], reference)

    @pytest.mark.parametrize("name", sorted(SERIES))
    def test_ranked_rows_match_per_row_masking(self, monkeypatch, name):
        t = SERIES[name]()
        length = 24
        _, sigma = moving_mean_std(t, length)
        qt = exact_qt(t, length)
        n = qt.shape[0]
        blocks = (np.arange(32), np.arange(n - 32, n), np.array([n - 1, 0, 150, 151, 9]))
        fast = [rank_rows(qt[rows], rows, sigma, length, 6) for rows in blocks]

        def per_row(rank, rows, zone):
            for b, row in enumerate(rows):
                apply_exclusion_zone(rank[b], int(row), zone, value=-np.inf)

        monkeypatch.setattr(entries_module, "_mask_zones", per_row)
        for rows, ranked in zip(blocks, fast):
            reference = rank_rows(qt[rows], rows, sigma, length, 6)
            for field in ("neighbor", "qt", "max_lb_base", "profile", "index"):
                np.testing.assert_array_equal(
                    getattr(ranked, field), getattr(reference, field)
                )

    def test_fill_rows_writes_the_given_rows_and_counts(self, noise_series):
        from repro import obs

        t = noise_series
        mu, sigma = moving_mean_std(t, 16)
        rows = np.arange(40, 56)
        ranked = rank_rows(exact_qt(t, 16)[rows], rows, sigma, 16, 4)
        store = EntryStore.empty(mu.size, 4, 16)
        with obs.tracing(True):
            obs.reset()
            store.fill_rows(rows[:10], ranked.head(10))
            counters = obs.snapshot()["counters"]
        assert counters["listdp.rows_filled"] == 10
        assert counters["listdp.entries_stored"] == 40
        np.testing.assert_array_equal(store.neighbor[40:50], ranked.neighbor[:10])
        np.testing.assert_array_equal(store.max_lb_base[40:50], ranked.max_lb_base[:10])
        assert (store.neighbor[50:] == -1).all()
        assert np.isinf(store.max_lb_base[50:]).all()


class TestAdvance:
    def test_qt_updated_to_new_length(self, noise_series):
        t = noise_series
        _, store = compute_matrix_profile(t, 16, 6)
        store.advance_to(17, t, moving_mean_std(t, 16)[0])
        assert store.current_length == 17
        for row in (0, 40, 200):
            for slot in range(6):
                j = store.neighbor[row, slot]
                if j < 0 or j > t.size - 17:
                    continue
                expected = comoment(t[row : row + 17], t[j : j + 17])
                assert store.qt[row, slot] == pytest.approx(expected, abs=1e-8)

    def test_out_of_range_neighbors_frozen(self):
        t = np.random.default_rng(4).standard_normal(60)
        _, store = compute_matrix_profile(t, 20, 10)
        frozen = store.qt.copy()
        store.advance_to(21, t, moving_mean_std(t, 20)[0])
        n = t.size
        out_of_range = (store.neighbor >= 0) & (store.neighbor > n - 21)
        rows = min(store.n_profiles, n - 21 + 1)
        if out_of_range[:rows].any():
            np.testing.assert_array_equal(
                store.qt[:rows][out_of_range[:rows]],
                frozen[:rows][out_of_range[:rows]],
            )

    def test_must_advance_by_one(self, noise_series):
        _, store = compute_matrix_profile(noise_series, 16, 4)
        with pytest.raises(InvalidParameterError):
            store.advance_to(18, noise_series, moving_mean_std(noise_series, 17)[0])
        with pytest.raises(InvalidParameterError):
            store.advance_to(16, noise_series, moving_mean_std(noise_series, 15)[0])

    def test_sequential_advances(self, noise_series):
        t = noise_series
        _, store = compute_matrix_profile(t, 16, 4)
        for length in (17, 18, 19, 20):
            store.advance_to(length, t, moving_mean_std(t, length - 1)[0])
        assert store.current_length == 20
        j = store.neighbor[10, 0]
        if j >= 0 and j <= t.size - 20:
            expected = comoment(t[10:30], t[j : j + 20])
            assert store.qt[10, 0] == pytest.approx(expected, abs=1e-8)

    def test_masked_advance_matches_boolean_scatter(self):
        # Short series, long lengths: neighbours leave the range during the
        # run and must stay frozen exactly as the boolean scatter froze them.
        t = np.random.default_rng(8).standard_normal(140)
        _, store = compute_matrix_profile(t, 30, 12)
        qt = store.qt.copy()
        left_range = 0
        for length in range(31, 70):
            mu = moving_mean_std(t, length - 1)[0]
            store.advance_to(length, t, mu)
            n_rows = min(store.n_profiles, t.size - length + 1)
            nb = store.neighbor[:n_rows]
            in_range = (nb >= 0) & (nb <= t.size - length)
            left_range += int(((nb > t.size - length) & (nb >= 0)).sum())
            safe_nb = np.where(in_range, nb, 0)
            # Welford: e[x] = t[x + l] - mu_l[x], C += l/(l+1) e[i] e[j]
            e = t[length - 1 :] - mu[: t.size - length + 1]
            increment = e[safe_nb] * (e[:n_rows, None] * ((length - 1) / length))
            block = qt[:n_rows]
            block[in_range] += increment[in_range]
            np.testing.assert_array_equal(store.qt, qt)
        assert left_range > 0


class TestZeroPaddedAdvance:
    def test_empty_slots_stay_zero_and_out_of_range_pairs_freeze(self):
        from repro import obs

        # Few candidates per row (p > n): every row has empty slots, and
        # the long advance pushes neighbours out of range.
        t = np.random.default_rng(12).standard_normal(90)
        _, store = compute_matrix_profile(t, 10, 200)
        assert (store.neighbor == -1).any()
        expected_advanced = advanced = 0
        frozen_checked = 0
        with obs.tracing(True):
            obs.reset()
            for length in range(11, 40):
                n_rows = min(store.n_profiles, t.size - length + 1)
                nb = store.neighbor[:n_rows]
                out = (nb > t.size - length) & (nb >= 0)
                before = store.qt[:n_rows][out].copy()
                expected_advanced += int(((nb >= 0) & (nb <= t.size - length)).sum())
                store.advance_to(length, t, moving_mean_std(t, length - 1)[0])
                np.testing.assert_array_equal(store.qt[:n_rows][out], before)
                frozen_checked += int(out.sum())
            advanced = obs.get_tracer().counter("listdp.entries_advanced")
        assert (store.qt[store.neighbor == -1] == 0.0).all()
        assert frozen_checked > 0
        assert advanced == expected_advanced
