"""Tests for Algorithm 3 (ComputeMatrixProfile with listDP)."""

import os

import numpy as np
import pytest

from repro.core.compute_mp import (
    FILL_BLOCK_ROWS,
    compute_matrix_profile,
    resolve_n_jobs,
    row_blocks,
)
from repro.distance.sliding import DIRECT_DOT_MAX, moving_mean_std
from repro.matrixprofile import stomp
from repro.distance.comoment import anchor_rows, increments
from tests.conftest import assert_profiles_close, oracle_profile


def test_profile_matches_stomp(noise_series):
    mp, _ = compute_matrix_profile(noise_series, 16, 5)
    reference = stomp(noise_series, 16)
    assert_profiles_close(mp.profile, reference.profile, atol=1e-8)


def test_profile_matches_stomp_structured(structured_series):
    mp, _ = compute_matrix_profile(structured_series, 40, 10)
    reference = stomp(structured_series, 40)
    assert_profiles_close(mp.profile, reference.profile, atol=1e-8)


def test_store_dimensions(noise_series):
    mp, store = compute_matrix_profile(noise_series, 16, 7)
    assert store.n_profiles == len(mp)
    assert store.p == 7
    assert store.current_length == 16
    assert (store.base_length == 16).all()


def test_every_profile_has_entries(noise_series):
    _, store = compute_matrix_profile(noise_series, 16, 5)
    filled = (store.neighbor >= 0).sum(axis=1)
    assert (filled == 5).all(), "with n >> p every row should be full"


def test_motif_pair_in_some_store_row(planted):
    """The nearest neighbor of the motif member should be among its
    stored entries: it has correlation near 1, hence the smallest LB."""
    mp, store = compute_matrix_profile(planted.series, planted.length, 5)
    pair = mp.motif_pair()
    assert pair.b in set(store.neighbor[pair.a].tolist())


def test_large_p_keeps_all_candidates():
    t = np.random.default_rng(1).standard_normal(60)
    mp, store = compute_matrix_profile(t, 10, 1000)
    n_subs = len(mp)
    zone = mp.exclusion
    for row in range(0, n_subs, 13):
        eligible = int((np.abs(np.arange(n_subs) - row) >= zone).sum())
        stored = int((store.neighbor[row] >= 0).sum())
        assert stored == eligible


def _random_walk():
    return np.random.default_rng(41).standard_normal(280).cumsum(), 16


def _flat_run():
    # A zero-variance run the 2-block seam cuts through.
    t = np.random.default_rng(9).standard_normal(200)
    t[90:130] = -3.0
    return t, 20


def _high_shelf():
    # A 1e8 shelf in short windows: the GEMM path at windows of at most
    # DIRECT_DOT_MAX points computes each co-moment directly.
    t = np.random.default_rng(11).standard_normal(300).cumsum()
    t[120:170] = 1e8
    return t, 16


def _high_shelf_long():
    # The same shelf under windows past DIRECT_DOT_MAX: the STOMP
    # recurrence, whose drift re-anchor rule the second block must replay.
    t, _ = _high_shelf()
    return t, 80


ROW_BLOCK_FIXTURES = {
    "random-walk": _random_walk,
    "flat-run": _flat_run,
    "high-shelf": _high_shelf,
    "high-shelf-l80": _high_shelf_long,
}


@pytest.mark.parametrize("fixture", sorted(ROW_BLOCK_FIXTURES))
def test_compute_mp_row_blocks_bitwise(fixture):
    """Algorithm 3's row-block parallel path matches serial exactly,
    profile and listDP store alike, and both sit on the oracle."""
    t, length = ROW_BLOCK_FIXTURES[fixture]()
    n_subs = t.size - length + 1
    (_, seam), _ = row_blocks(n_subs, 2)
    if fixture == "flat-run":
        assert 90 < seam < 130 - length
    if length <= DIRECT_DOT_MAX:
        # The seam falls inside a GEMM chunk, which both blocks compute whole.
        assert seam % FILL_BLOCK_ROWS != 0
    if fixture.startswith("high-shelf"):
        # Anchors fall before the seam: at l = 80 the second block's replay
        # must honor them; at l = 16 the GEMM path has no recurrence.
        mu, sigma = moving_mean_std(t, length)
        anchors = anchor_rows(t, length, *increments(t, length, mu), sigma)
        assert anchors.size > 0 and anchors.min() < seam
    mp1, st1 = compute_matrix_profile(t, length, 8, n_jobs=1)
    mp2, st2 = compute_matrix_profile(t, length, 8, n_jobs=2)
    assert np.isfinite(mp2.profile).all()
    np.testing.assert_array_equal(mp1.profile, mp2.profile)
    np.testing.assert_array_equal(mp1.index, mp2.index)
    np.testing.assert_array_equal(st1.neighbor, st2.neighbor)
    np.testing.assert_array_equal(st1.qt, st2.qt)
    np.testing.assert_array_equal(st1.lb_base, st2.lb_base)
    np.testing.assert_allclose(mp1.profile, oracle_profile(t, length), rtol=0.0, atol=1e-6)


def test_row_blocks_tile_rows():
    blocks = row_blocks(100, 4)
    assert blocks[0][0] == 0 and blocks[-1][1] == 100
    for (s1, e1), (s2, e2) in zip(blocks, blocks[1:]):
        assert e1 == s2 and s1 < e1
    # Later blocks replay more rows first, so they are shorter.
    sizes = [e - s for s, e in blocks]
    assert sizes == sorted(sizes, reverse=True)
    assert row_blocks(3, 8) == [(0, 1), (1, 2), (2, 3)]


def test_resolve_n_jobs_conventions():
    cpus = os.cpu_count() or 1
    assert resolve_n_jobs(None) == cpus
    assert resolve_n_jobs(0) == cpus
    assert resolve_n_jobs(1) == 1
    assert resolve_n_jobs(3) == 3
    assert resolve_n_jobs(-1) == cpus
    assert resolve_n_jobs(-cpus - 5) == 1
