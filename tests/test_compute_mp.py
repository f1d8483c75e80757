"""Tests for Algorithm 3 (ComputeMatrixProfile with listDP)."""

import importlib
import os

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.core import compute_mp as compute_mp_module
from repro.core.compute_mp import (
    FILL_BLOCK_ROWS,
    TILE_ROWS,
    compute_matrix_profile,
    resolve_n_jobs,
    row_blocks,
)
from repro.distance.sliding import moving_mean_std
from repro.matrixprofile import stomp
from repro.matrixprofile.stomp import iterate_stomp_qt
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
    # A zero-variance run that the first seam of two blocks cuts through.
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
    # recurrence, whose drift re-anchor rule every tile honours.
    t, _ = _high_shelf()
    return t, 80


ROW_BLOCK_FIXTURES = {
    "random-walk": _random_walk,
    "flat-run": _flat_run,
    "high-shelf": _high_shelf,
    "high-shelf-l80": _high_shelf_long,
}

#: small tiles, so that these short fixtures span several of them.
TEST_TILE_ROWS = FILL_BLOCK_ROWS


@pytest.mark.parametrize("fixture", sorted(ROW_BLOCK_FIXTURES))
def test_compute_mp_row_blocks_bitwise(monkeypatch, fixture):
    """Algorithm 3's row-block parallel path matches serial exactly,
    profile and listDP store alike, and both sit on the oracle."""
    monkeypatch.setattr(compute_mp_module, "TILE_ROWS", TEST_TILE_ROWS)
    t, length = ROW_BLOCK_FIXTURES[fixture]()
    n_subs = t.size - length + 1
    seams = {
        jobs: [start for start, _ in row_blocks(n_subs, jobs)[1:]] for jobs in (2, 3)
    }
    assert all(len(s) == jobs - 1 for jobs, s in seams.items())
    if fixture == "flat-run":
        # A block starts on a constant window.
        assert any(90 < seam < 130 - length for seam in seams[2] + seams[3])
    if fixture == "high-shelf-l80":
        # An anchor falls before a seam, and the tile after it starts
        # from an exact row rather than replaying it.
        mu, sigma = moving_mean_std(t, length)
        anchors = anchor_rows(t, length, *increments(t, length, mu), sigma)
        assert anchors.size > 0 and anchors.min() < max(seams[3])
    mp1, st1 = compute_matrix_profile(t, length, 8, n_jobs=1)
    assert np.isfinite(mp1.profile).all()
    np.testing.assert_allclose(mp1.profile, oracle_profile(t, length), rtol=0.0, atol=1e-6)
    for jobs in (2, 3):
        mp, st = compute_matrix_profile(t, length, 8, n_jobs=jobs)
        np.testing.assert_array_equal(mp1.profile, mp.profile)
        np.testing.assert_array_equal(mp1.index, mp.index)
        for field in ("neighbor", "qt", "lb_base", "base_length"):
            np.testing.assert_array_equal(getattr(st1, field), getattr(st, field))
        assert st1.current_length == st.current_length


def test_row_blocks_tile_rows():
    for n_rows in (1, 255, 256, 257, 2000, 2048, 7969):
        n_tiles = -(-n_rows // TILE_ROWS)
        for jobs in (1, 2, 3, 8):
            blocks = row_blocks(n_rows, jobs)
            assert len(blocks) == min(jobs, n_tiles)
            assert blocks[0][0] == 0 and blocks[-1][1] == n_rows
            for (s1, e1), (s2, e2) in zip(blocks, blocks[1:]):
                assert e1 == s2 and s1 < e1 and s2 % TILE_ROWS == 0
            tiles = [-(-(e - s) // TILE_ROWS) for s, e in blocks]
            assert sum(tiles) == n_tiles and max(tiles) - min(tiles) <= 1
    # ECG 2000 at l = 128: 8 tiles over three workers.
    assert [e - s for s, e in row_blocks(1873, 3)] == [768, 768, 337]
    assert row_blocks(3, 8) == [(0, 3)]


def test_one_tile_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started for a single tile")

    monkeypatch.setattr(compute_mp_module, "ProcessPoolExecutor", no_pool)
    t = np.random.default_rng(2).standard_normal(TILE_ROWS + 15)
    mp, _ = compute_matrix_profile(t, 16, 4, n_jobs=4)
    assert len(mp) == TILE_ROWS


def test_row_range_computes_no_earlier_row(monkeypatch):
    """A row range starts from an exact row: no row between row 0 and its
    start is formed."""
    t, length = _high_shelf_long()
    mu, sigma = moving_mean_std(t, length)
    stomp_module = importlib.import_module("repro.matrixprofile.stomp")
    queried = []
    real_comoment_row = stomp_module.comoment_row

    def spy(query, series, mu, **kwargs):
        queried.append(query)
        return real_comoment_row(query, series, mu, **kwargs)

    monkeypatch.setattr(stomp_module, "comoment_row", spy)
    start, stop = 100, 160
    rows = {
        i: c.copy()
        for i, c in iterate_stomp_qt(t, length, mu, sigma, row_range=(start, stop))
    }
    assert sorted(rows) == list(range(start, stop))
    # Row 0 is formed only for its column (C[i, 0] = C[0, i]); every
    # other exact row lies inside the range.
    windows = sliding_window_view(t, length)
    starts = [int(np.flatnonzero((windows == q).all(axis=1))[0]) for q in queried]
    assert starts[0] == 0 and all(start <= s < stop for s in starts[1:])
    # Its rows sit on the exact co-moments as closely as row 0 does.
    centred = windows - mu[:, None]
    for i, c in rows.items():
        exact = centred @ centred[i]
        scale = length * sigma[i] * sigma
        np.testing.assert_allclose(c / scale, exact / scale, rtol=0.0, atol=1e-8)


def test_resolve_n_jobs_conventions():
    cpus = os.cpu_count() or 1
    assert resolve_n_jobs(None) == cpus
    assert resolve_n_jobs(0) == cpus
    assert resolve_n_jobs(1) == 1
    assert resolve_n_jobs(3) == 3
    assert resolve_n_jobs(-1) == cpus
    assert resolve_n_jobs(-cpus - 5) == 1
