"""Tests for Algorithm 4 (ComputeSubMP) — exactness of the fast path."""

import numpy as np
import pytest

from repro.core.compute_mp import compute_matrix_profile
from repro.core.compute_submp import compute_submp
from repro.matrixprofile import stomp
from tests.test_entries import expected_max_lb_base


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
            # Recomputed rows: the non-valid ones the step committed.
            valid = result.min_dist < result.max_lb
            refilled = np.flatnonzero(~valid & (result.index >= 0))
            np.testing.assert_array_equal(refilled, sorted(visited))
            np.testing.assert_array_equal(
                np.sort(store.neighbor[refilled], axis=1),
                np.sort(reference_store.neighbor[refilled], axis=1),
            )
            expected = [expected_max_lb_base(t, r, length, p) for r in refilled]
            np.testing.assert_allclose(store.max_lb_base[refilled], expected, rtol=1e-9)
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


def entry_lb_base(series, store):
    """Eq. 2 numerators of every stored entry at the store's length.

    Each entry's bound is computed on its own, from its co-moment and
    offset, with the arithmetic of the fill: ``rank = C / sigma_j`` (0
    for a constant candidate) scaled by ``1 / (l sigma_i)``; +inf marks
    an empty slot.
    """
    from repro.core.lower_bound import lower_bound_base
    from repro.distance.znorm import CONSTANT_EPS
    from repro.kernels.context import SeriesContext

    length = store.current_length
    _, sigma = SeriesContext(series).moving_mean_std(length)
    nb = store.neighbor
    sigma_rows = sigma[: nb.shape[0]]
    inv_sigma = np.where(sigma >= CONSTANT_EPS, 1.0 / np.maximum(sigma, CONSTANT_EPS), 0.0)
    to_corr = np.where(
        sigma_rows >= CONSTANT_EPS,
        1.0 / (length * np.maximum(sigma_rows, CONSTANT_EPS)),
        0.0,
    )
    corr = np.clip(store.qt * inv_sigma[np.maximum(nb, 0)] * to_corr[:, None], -1.0, 1.0)
    base = lower_bound_base(corr, length, sigma_rows[:, None])
    return np.where(nb >= 0, base, np.inf)


def nxp_lookup(series, store, length, lb_base):
    """Algorithm 4's lookup with Eq. 3 and Eq. 2 on every stored entry.

    The reference for the rank-space lookup: ``min_dist`` and its offset
    from an ``argmin`` over the whole row (the first slot wins a tie) and
    ``max_lb`` as the largest of the per-entry bounds, whose Eq. 2
    numerators ``lb_base`` (``(n, p)``, see :func:`entry_lb_base`) the
    caller supplies.
    """
    from repro.core.lower_bound import lower_bound_from_base
    from repro.distance.comoment import distance_profile_from_qt
    from repro.kernels.context import SeriesContext
    from repro.matrixprofile.exclusion import exclusion_zone_half_width

    n = series.size
    n_dp = n - length + 1
    _, sigma = SeriesContext(series).moving_mean_std(length)
    nb = store.neighbor[:n_dp]
    qt = store.qt[:n_dp]
    rows = np.arange(n_dp)[:, None]
    in_range = (nb >= 0) & (nb <= n - length)
    usable = in_range & (np.abs(nb - rows) >= exclusion_zone_half_width(length))
    sig_nb = sigma[np.where(in_range, nb, 0)]
    dist = distance_profile_from_qt(qt, length, sigma[:n_dp][:, None], sig_nb)
    dist = np.where(usable, dist, np.inf)
    lb = lower_bound_from_base(lb_base[:n_dp], sigma[:n_dp][:, None])
    arg = np.argmin(dist, axis=1)
    return dist.min(axis=1), np.asarray(lb).max(axis=1), nb[np.arange(n_dp), arg], dist


def lookup_walk():
    return np.random.default_rng(21).standard_normal(500).cumsum()


def lookup_offset():
    return np.random.default_rng(22).standard_normal(500).cumsum() + 1e8


def lookup_constant_runs():
    # Two constant runs far apart: constant owners with constant
    # neighbours outside their zone, and live owners near both.
    t = np.random.default_rng(23).standard_normal(500)
    t[100:180] = 2.0
    t[300:360] = -1.0
    return t


LOOKUP_SERIES = {
    "walk": lookup_walk,
    "offset-1e8": lookup_offset,
    "constant-runs": lookup_constant_runs,
}


class TestRankSpaceLookup:
    """The rank-space lookup equals Eq. 3 / Eq. 2 over all n p entries."""

    @pytest.mark.parametrize("name", sorted(LOOKUP_SERIES))
    def test_matches_the_full_entry_formula(self, name):
        import copy
        import math

        from repro.core.compute_submp import nearest_entries
        from repro.core.discords_variable import length_upper_bound
        from repro.distance.znorm import CONSTANT_EPS
        from repro.kernels.context import SeriesContext

        t = LOOKUP_SERIES[name]()
        ctx = SeriesContext(t)
        _, store = compute_matrix_profile(t, 16, 8, context=ctx)
        # No step refills a row (recompute_fraction=0), so every entry's
        # bound stays the one it had at length 16.
        lb_base = entry_lb_base(t, store)
        const_owner_rows = const_ties = 0
        for length in range(17, 27):
            reference = copy.deepcopy(store)
            reference.advance_to(length, t, ctx.moving_mean_std(length - 1)[0])
            min_dist, max_lb, index, dist = nxp_lookup(t, reference, length, lb_base)
            result = compute_submp(t, store, length, recompute_fraction=0.0, context=ctx)
            np.testing.assert_array_equal(store.qt, reference.qt)
            np.testing.assert_array_equal(result.min_dist, min_dist)
            np.testing.assert_array_equal(result.max_lb, max_lb)
            valid = min_dist < max_lb
            np.testing.assert_array_equal(
                result.sub_profile, np.where(valid, min_dist, np.nan)
            )
            np.testing.assert_array_equal(result.index, np.where(valid, index, -1))
            assert length_upper_bound(store.neighbor, store.qt, ctx, length) == (
                float(min_dist.max()) / math.sqrt(length)
            )
            # Offsets of every row with a usable entry, valid or not.
            _, sigma = ctx.moving_mean_std(length)
            found, nearest = nearest_entries(store.neighbor, store.qt, sigma, length, t.size)
            np.testing.assert_array_equal(found, min_dist)
            known = np.isfinite(min_dist)
            np.testing.assert_array_equal(nearest, np.where(known, index, -1))
            const_owner_rows += int((known & (sigma < CONSTANT_EPS)).sum())
            # rows whose minimum is shared by several slots: the first wins
            const_ties += int((known & ((dist == min_dist[:, None]).sum(axis=1) > 1)).sum())
        if name == "constant-runs":
            assert const_owner_rows > 0 and const_ties > 0

    def test_first_slot_wins_ties_with_constant_neighbours(self):
        """A constant neighbour (distance sqrt(l) from a live owner, 0 from
        a constant one) takes the row only when it is nearer, or as near
        and in an earlier slot, as the full-row argmin decides."""
        from repro.core.compute_submp import nearest_entries
        from repro.core.entries import EntryStore
        from repro.distance.znorm import CONSTANT_EPS
        from repro.kernels.context import SeriesContext

        t = lookup_constant_runs()
        length = 16
        _, sigma = SeriesContext(t).moving_mean_std(length)
        live, const_a, const_b = 420, 120, 310
        store = EntryStore.empty(t.size - length + 1, 3, length)
        rows = [10, 11, 130, 131]
        store.neighbor[rows] = [
            [live, const_a, -1],  # live owner, tie: the live slot is first
            [const_a, live, -1],  # live owner, tie: the constant slot is first
            [live, const_a, const_b],  # constant owner: 0 beats sqrt(l)
            [live, -1, -1],  # constant owner, no constant neighbour
        ]
        # Co-moments whose correlations with owners 10 and 11 are exactly
        # 1/2, so Eq. 3 gives sqrt(l): a tie with any constant neighbour.
        store.qt[10, 0] = 0.5 * (length * sigma[10] * sigma[live])
        store.qt[11, 1] = 0.5 * (length * sigma[11] * sigma[live])
        assert (sigma[[130, 131, const_a, const_b]] < CONSTANT_EPS).all()
        min_dist, index = nearest_entries(store.neighbor, store.qt, sigma, length, t.size)
        reference_dist, _, reference_index, _ = nxp_lookup(
            t, store, length, np.full(store.neighbor.shape, np.inf)
        )
        np.testing.assert_array_equal(min_dist[rows], reference_dist[rows])
        np.testing.assert_array_equal(index[rows], reference_index[rows])
        assert min_dist[10] == min_dist[11] == np.sqrt(length)
        assert index[rows].tolist() == [live, const_a, const_a, live]
        assert min_dist[130] == 0.0 and min_dist[131] == np.sqrt(length)
