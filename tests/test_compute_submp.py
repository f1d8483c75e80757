"""Tests for Algorithm 4 (ComputeSubMP) — exactness of the fast path."""

import numpy as np
import pytest

from repro.core.compute_mp import compute_matrix_profile
from repro.core.compute_submp import compute_submp
from repro.matrixprofile import stomp


def advance(series, l_min, target, p, recompute_fraction=0.5):
    _, store = compute_matrix_profile(series, l_min, p)
    result = None
    for length in range(l_min + 1, target + 1):
        result = compute_submp(
            series, store, length, recompute_fraction=recompute_fraction
        )
    return result


class TestMotifExactness:
    @pytest.mark.parametrize("target", [17, 20, 24])
    def test_found_motif_matches_stomp_noise(self, noise_series, target):
        result = advance(noise_series, 16, target, p=10)
        reference = stomp(noise_series, target).motif_pair()
        if result.found_motif:
            assert result.best_distance == pytest.approx(
                reference.distance, abs=1e-6
            )

    @pytest.mark.parametrize("target", [41, 45, 55])
    def test_found_motif_matches_stomp_structured(self, structured_series, target):
        result = advance(structured_series, 40, target, p=20)
        reference = stomp(structured_series, target).motif_pair()
        assert result.found_motif, "structured data should stay on the fast path"
        assert result.best_distance == pytest.approx(reference.distance, abs=1e-6)

    def test_planted_motif_followed_across_lengths(self, planted):
        result = advance(planted.series, planted.length - 4, planted.length, p=10)
        reference = stomp(planted.series, planted.length).motif_pair()
        if result.found_motif:
            assert result.best_distance == pytest.approx(
                reference.distance, abs=1e-6
            )
            assert planted.hit(result.best_pair[0])
            assert planted.hit(result.best_pair[1])


class TestValidProfiles:
    def test_valid_rows_equal_full_matrix_profile(self, structured_series):
        t = structured_series
        _, store = compute_matrix_profile(t, 40, 20)
        result = compute_submp(t, store, 41)
        reference = stomp(t, 41)
        known = np.isfinite(result.sub_profile)
        assert known.any()
        np.testing.assert_allclose(
            result.sub_profile[known], reference.profile[known], atol=1e-6
        )

    def test_counters_are_consistent(self, noise_series):
        _, store = compute_matrix_profile(noise_series, 16, 10)
        result = compute_submp(noise_series, store, 17)
        assert result.n_valid + result.n_invalid == result.sub_profile.size
        assert result.submp_size >= result.n_valid

    def test_diagnostics_shapes(self, noise_series):
        _, store = compute_matrix_profile(noise_series, 16, 10)
        result = compute_submp(noise_series, store, 17)
        assert result.min_dist.shape == result.sub_profile.shape
        assert result.max_lb.shape == result.sub_profile.shape


class TestRecomputePaths:
    def test_zero_fraction_disables_partial(self, noise_series):
        _, store = compute_matrix_profile(noise_series, 16, 3)
        result = compute_submp(noise_series, store, 17, recompute_fraction=0.0)
        assert result.n_recomputed == 0

    def test_partial_recompute_is_exact(self, noise_series):
        # Tiny p forces invalid profiles, exercising the partial path.
        result = advance(noise_series, 16, 20, p=2, recompute_fraction=1.0)
        assert result.found_motif
        reference = stomp(noise_series, 20).motif_pair()
        assert result.best_distance == pytest.approx(reference.distance, abs=1e-6)

    def test_not_found_signals_fallback(self, noise_series):
        _, store = compute_matrix_profile(noise_series, 16, 2)
        result = compute_submp(noise_series, store, 17, recompute_fraction=0.0)
        if not result.found_motif:
            assert result.n_recomputed == 0
            assert result.n_invalid > 0


class TestLengthBookkeeping:
    def test_profile_shrinks_with_length(self, noise_series):
        n = noise_series.size
        _, store = compute_matrix_profile(noise_series, 16, 5)
        r17 = compute_submp(noise_series, store, 17)
        assert r17.sub_profile.size == n - 17 + 1
        r18 = compute_submp(noise_series, store, 18)
        assert r18.sub_profile.size == n - 18 + 1

    def test_no_trivial_pairs_reported(self, structured_series):
        from repro.matrixprofile.exclusion import exclusion_zone_half_width

        result = advance(structured_series, 40, 44, p=20)
        if result.best_pair is not None:
            a, b = result.best_pair
            assert abs(a - b) >= exclusion_zone_half_width(44)


def rowwise_recompute(series, store, length):
    """Algorithm 4's partial recompute, one row at a time, on the oracle.

    Certifies with the recompute switched off, then visits the profiles
    that can hide a better pair in ascending maxLB order, each through the
    brute-force distance profile, until the stop rule fires.  Returns the
    best distance, the best pair and the recomputed rows.
    """
    from repro.distance.comoment import comoment_row
    from repro.distance.profile import apply_exclusion_zone, naive_distance_profile
    from repro.distance.sliding import moving_mean_std
    from repro.matrixprofile.exclusion import exclusion_zone_half_width

    certified = compute_submp(series, store, length, recompute_fraction=0.0)
    max_lb = certified.max_lb
    valid = certified.min_dist < max_lb
    best, pair = certified.best_distance, certified.best_pair
    invalid = np.flatnonzero(~valid)
    needing = invalid[max_lb[invalid] < best]
    mu, sigma = moving_mean_std(series, length)
    zone = exclusion_zone_half_width(length)
    visited = []
    for r in needing[np.argsort(max_lb[needing])]:
        if max_lb[r] >= best:
            break
        profile = apply_exclusion_zone(naive_distance_profile(series, r, length), r, zone)
        j = int(np.argmin(profile))
        if profile[j] < best:
            best, pair = float(profile[j]), (int(r), j)
        c = comoment_row(series[r : r + length], series, mu, direct=True)
        store.fill_row(int(r), c, sigma, length)
        visited.append(int(r))
    return best, pair, visited


class TestChunkedRecompute:
    """The chunked recompute visits exactly the rows the rowwise loop does."""

    @pytest.mark.parametrize(
        "t, base, p, steps",
        [
            (np.random.default_rng(3).standard_normal(400), 16, 2, 4),
            (np.random.default_rng(3).standard_normal(400), 16, 4, 4),
            # Windows longer than DIRECT_DOT_MAX take the batched-FFT path.
            # (A fourth step certifies no profile, so the recompute_fraction
            # gate skips it, which the reference loop does not model.)
            (np.cumsum(np.random.default_rng(3).standard_normal(1000)), 300, 10, 3),
        ],
        ids=["gemm-p2", "gemm-p4", "fft-p10"],
    )
    def test_matches_rowwise_reference(self, t, base, p, steps):
        import copy

        _, store = compute_matrix_profile(t, base, p)
        mid_chunk_stops = 0
        for length in range(base + 1, base + 1 + steps):
            reference_store = copy.deepcopy(store)
            result = compute_submp(t, store, length, recompute_fraction=1.0)
            best, pair, visited = rowwise_recompute(t, reference_store, length)
            assert result.n_recomputed == len(visited)
            assert result.best_distance == pytest.approx(best, abs=1e-6)
            # The pair's two rows may each report it, so compare it unordered.
            assert sorted(result.best_pair) == sorted(pair)
            refilled = np.flatnonzero(store.base_length == length)
            np.testing.assert_array_equal(refilled, sorted(visited))
            np.testing.assert_array_equal(
                np.sort(store.neighbor[refilled], axis=1),
                np.sort(reference_store.neighbor[refilled], axis=1),
            )
            np.testing.assert_allclose(
                np.sort(store.lb_base[refilled], axis=1),
                np.sort(reference_store.lb_base[refilled], axis=1),
                rtol=1e-9,
            )
            # Chunks hold 8, 16, 32, 32, ... rows; a stop strictly inside
            # one leaves scored rows uncommitted.
            if len(visited) not in (0, 8, 24, 56, 88):
                mid_chunk_stops += 1
        assert mid_chunk_stops >= 2

    def test_long_window_memory_does_not_grow_with_the_window(self):
        """A long-window recompute never holds an n x l copy of the windows."""
        import tracemalloc

        from repro.core.compute_submp import RECOMPUTE_MAX_CHUNK

        n, length, p = 3000, 1001, 10
        noise = 0.3 * np.random.default_rng(3).standard_normal(n)
        t = np.sin(2 * np.pi * np.arange(n) / 150) + noise
        _, store = compute_matrix_profile(t, length - 1, p)
        tracemalloc.start()
        try:
            result = compute_submp(t, store, length, recompute_fraction=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.n_recomputed > 2 * RECOMPUTE_MAX_CHUNK
        window_copy = (n - length + 1) * length * 8
        assert peak < window_copy / 3


class TestPairwiseRows:
    def test_row_subset_matches_full_call(self, noise_series):
        from repro.core.compute_submp import pairwise_entry_distances
        from repro.distance.sliding import moving_mean_std

        t = noise_series
        _, store = compute_matrix_profile(t, 16, 5)
        _, sigma = moving_mean_std(t, 16)
        usable = store.neighbor >= 0
        full = pairwise_entry_distances(store.qt, store.neighbor, usable, usable, sigma, 16)
        rows = np.array([3, 77, 200])
        subset = pairwise_entry_distances(
            store.qt[rows], store.neighbor[rows], usable[rows], usable[rows],
            sigma, 16, rows=rows,
        )
        np.testing.assert_array_equal(subset, full[rows])

    def test_snapshot_distances_match_the_oracle_on_constant_windows(self):
        from repro.core.valmod import Valmod
        from repro.distance.znorm import znormalized_distance

        t = np.random.default_rng(9).standard_normal(300)
        t[100:170] = 2.0  # constant windows: distances 0 and sqrt(l) by convention
        runner = Valmod(t, 16, 18, p=6, track_top_k=5)
        runner.run()
        length = runner._store.current_length
        checked = 0
        for offset in range(0, t.size - length + 1, 5):
            snap = runner._snapshot(offset, length)
            for j, d in zip(snap.neighbors, snap.distances):
                direct = znormalized_distance(t[offset : offset + length], t[j : j + length])
                assert d == pytest.approx(direct, abs=1e-6)
                checked += 1
        assert checked > 0
