"""Differential tests for the blocked STOMP kernel.

The blocked backend (``repro.kernels.blocked``) scores windows of at most
``DIRECT_DOT_MAX`` points from a GEMM over z-normalised windows (each
block only against the columns from its first row on; earlier rows reach
it through the column maxima of their own blocks) and longer ones from
the shared co-moment recurrence
(``repro.distance.comoment.comoment_rows``), a row at a time; these tests
pin both paths to the brute-force oracle across the full block-size
spectrum — ``B=1`` (the rowwise degenerate), interior sizes, the
default, and ``B`` larger than the number of subsequences (one giant
block).  The ``-long`` fixtures sit above the cut, on the recurrence,
where ``B`` plays no part.
"""

import numpy as np
import pytest

from repro import obs
from repro.distance.sliding import DIRECT_DOT_MAX
from repro.distance.znorm import znormalize, znormalized_distance
from repro.exceptions import InvalidParameterError
from repro.kernels import DEFAULT_BLOCK_ROWS, SeriesContext, blocked_stomp
from repro.matrixprofile.brute import brute_force_matrix_profile
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.distance.comoment import anchor_rows, increments
from repro.matrixprofile.stomp import stomp

ATOL = 1e-8


def _high_shelf(n):
    """A random walk with a noisy shelf at 3e4: the windows that straddle
    its edges feed the co-moment update terms of size 3e4."""
    rng = np.random.default_rng(3)
    series = rng.standard_normal(n).cumsum()
    series[n // 2 : n // 2 + 200] = 3e4 + rng.standard_normal(200)
    return series


def _anchors(series, length):
    mu, sigma = SeriesContext(series).moving_mean_std(length)
    return anchor_rows(series, length, *increments(series, length, mu), sigma)


def _random_walk():
    rng = np.random.default_rng(42)
    return rng.standard_normal(500).cumsum(), 32


def _planted_motif():
    rng = np.random.default_rng(7)
    series = rng.standard_normal(500) * 0.3
    pattern = np.sin(np.linspace(0.0, 4.0 * np.pi, 40))
    series[70:110] += pattern * 3.0
    series[300:340] += pattern * 3.0
    return series, 24


def _constant_segment():
    rng = np.random.default_rng(13)
    series = rng.standard_normal(400).cumsum()
    series[150:210] = series[150]
    return series, 20


def _short_series():
    rng = np.random.default_rng(5)
    return rng.standard_normal(20), 10


def _random_walk_long():
    rng = np.random.default_rng(43)
    return rng.standard_normal(500).cumsum(), 80


def _constant_segment_long():
    rng = np.random.default_rng(14)
    series = rng.standard_normal(500).cumsum()
    series[150:330] = series[150]
    return series, 96


FIXTURES = {
    "random-walk": _random_walk,
    "planted-motif": _planted_motif,
    "constant-segment": _constant_segment,
    "short": _short_series,
    "random-walk-long": _random_walk_long,
    "constant-segment-long": _constant_segment_long,
}

#: B=1 degenerates to rowwise, 7 is an odd interior size, 64 is the
#: default, 10_000 exceeds n_subs of every fixture.
BLOCK_SIZES = (1, 7, DEFAULT_BLOCK_ROWS, 10_000)


@pytest.fixture(scope="module")
def oracles():
    cache = {}
    for name, make in FIXTURES.items():
        series, length = make()
        cache[name] = (series, length, brute_force_matrix_profile(series, length))
    return cache


def _assert_matches_oracle(series, length, mp, reference):
    finite = np.isfinite(reference.profile)
    assert np.array_equal(np.isfinite(mp.profile), finite)
    np.testing.assert_allclose(
        mp.profile[finite], reference.profile[finite], atol=ATOL, rtol=0.0
    )
    # Indices may differ from brute only at ties: the reported neighbor
    # must realize the reported distance.
    for i, j in enumerate(mp.index):
        if j < 0:
            assert not np.isfinite(mp.profile[i])
            continue
        d = znormalized_distance(series[i : i + length], series[j : j + length])
        assert d == pytest.approx(float(reference.profile[i]), abs=1e-6)


def _oracle_distances(series, length):
    """Every pair's z-normalised distance, the brute oracle's arithmetic
    row by row; excluded (trivial) pairs read +inf."""
    windows = np.lib.stride_tricks.sliding_window_view(series, length)
    z = np.array([znormalize(w) for w in windows])
    const = ~z.any(axis=1)
    dist = np.array([np.linalg.norm(z[i] - z, axis=1) for i in range(len(z))])
    dist[np.ix_(const, ~const)] = np.sqrt(length)
    dist[np.ix_(~const, const)] = np.sqrt(length)
    dist[np.ix_(const, const)] = 0.0
    offsets = np.arange(len(z))
    zone = exclusion_zone_half_width(length)
    dist[np.abs(offsets[:, None] - offsets[None, :]) < zone] = np.inf
    return dist


#: fixtures on the GEMM path (l <= DIRECT_DOT_MAX)
GEMM_FIXTURES = sorted(
    name for name, make in FIXTURES.items() if make()[1] <= DIRECT_DOT_MAX
)


class TestBlockedVsBrute:
    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    @pytest.mark.parametrize("block_rows", BLOCK_SIZES)
    def test_every_block_size_matches_brute(self, fixture, block_rows, oracles):
        series, length, reference = oracles[fixture]
        mp = blocked_stomp(series, length, block_rows=block_rows)
        _assert_matches_oracle(series, length, mp, reference)

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_block_size_invariance(self, fixture, oracles):
        """All block schedules agree with each other, not just the oracle;
        above the cut, where rows are scored one at a time, bit for bit."""
        series, length, _ = oracles[fixture]
        baseline = blocked_stomp(series, length, block_rows=1)
        for block_rows in BLOCK_SIZES[1:]:
            mp = blocked_stomp(series, length, block_rows=block_rows)
            np.testing.assert_allclose(
                mp.profile, baseline.profile, atol=ATOL, rtol=0.0,
                err_msg=f"B={block_rows} diverges from B=1 on {fixture}",
            )
            if length > DIRECT_DOT_MAX:
                np.testing.assert_array_equal(mp.profile, baseline.profile)
                np.testing.assert_array_equal(mp.index, baseline.index)

    @pytest.mark.parametrize("fixture", GEMM_FIXTURES)
    @pytest.mark.parametrize("block_rows", BLOCK_SIZES)
    def test_index_is_brute_where_the_best_is_clear(self, fixture, block_rows, oracles):
        """Wherever brute's best neighbour beats its second-best non-trivial
        one by more than rounding, the GEMM path reports that neighbour,
        whether it sits in a later column of the row's own block or in an
        earlier block's column maxima."""
        series, length, reference = oracles[fixture]
        dist = _oracle_distances(series, length)
        rows = np.flatnonzero(reference.index >= 0)
        dist[rows, reference.index[rows]] = np.inf
        second = dist.min(axis=1)
        clear = rows[second[rows] - reference.profile[rows] > 1e-9]
        assert clear.size > 0
        mp = blocked_stomp(series, length, block_rows=block_rows)
        np.testing.assert_array_equal(mp.index[clear], reference.index[clear])

    @pytest.mark.parametrize("block_rows", [7, DEFAULT_BLOCK_ROWS])
    def test_later_occurrence_finds_an_earlier_block(self, block_rows):
        """The planted motif's later occurrence has its neighbour in an
        earlier block: only that block's column maxima can supply it."""
        series, length = _planted_motif()
        mp = blocked_stomp(series, length, block_rows=block_rows)
        first, later = 75, 305
        assert later // block_rows > first // block_rows
        assert mp.index[later] == first
        assert mp.index[first] == later

    def test_exact_ties_go_to_the_smaller_offset(self, oracles):
        """Constant windows tie exactly (distance 0 to each other); brute
        keeps the first minimum, and so must the merge of the column side
        (smaller offsets) with the row side."""
        series, length, reference = oracles["constant-segment"]
        const = np.flatnonzero(reference.profile == 0.0)
        assert const.size > 2
        for block_rows in BLOCK_SIZES:
            mp = blocked_stomp(series, length, block_rows=block_rows)
            np.testing.assert_array_equal(mp.index[const], reference.index[const])
            assert (mp.index[const] < const).any()

    def test_reanchor_schedule_is_exercised(self):
        """On a series with a high shelf the recurrence re-anchors
        mid-profile and the anchored rows land on exact co-moments (still
        oracle-exact)."""
        series = _high_shelf(1500)
        length = 64
        assert len(_anchors(series, length)) > 1, "fixture must trigger reanchoring"
        reference = brute_force_matrix_profile(series, length)
        mp = blocked_stomp(series, length)
        np.testing.assert_allclose(
            mp.profile, reference.profile, atol=1e-6, rtol=0.0
        )
        # Rowwise STOMP runs the anchored recurrence (the blocked kernel
        # takes its GEMM path at this length): both sit on the oracle.
        rowwise = stomp(series, length)
        np.testing.assert_allclose(
            rowwise.profile, reference.profile, atol=1e-6, rtol=0.0
        )
        np.testing.assert_array_equal(mp.index, rowwise.index)

    def test_reanchor_schedule_is_exercised_above_the_cut(self):
        """The same shelf at l > DIRECT_DOT_MAX, where the shared
        recurrence runs and must re-anchor mid-profile, exactly as often
        as it does under rowwise STOMP."""
        series = _high_shelf(800)
        length = 96
        assert length > DIRECT_DOT_MAX
        anchors = _anchors(series, length)
        assert len(anchors) > 1, "fixture must actually trigger reanchoring"
        reference = brute_force_matrix_profile(series, length)
        results, counters = {}, {}
        with obs.tracing(True):
            for name, engine in (("blocked", blocked_stomp), ("stomp", stomp)):
                obs.reset()
                results[name] = engine(series, length)
                counters[name] = obs.snapshot()["counters"]
        obs.reset()
        obs.disable()
        assert counters["blocked"]["comoment.reanchors"] == len(anchors)
        assert counters["stomp"]["comoment.reanchors"] == len(anchors)
        mp, rowwise = results["blocked"], results["stomp"]
        np.testing.assert_allclose(
            mp.profile, reference.profile, atol=1e-6, rtol=0.0
        )
        np.testing.assert_allclose(
            rowwise.profile, reference.profile, atol=1e-6, rtol=0.0
        )
        np.testing.assert_array_equal(mp.index, rowwise.index)

    @pytest.mark.parametrize("length", [DIRECT_DOT_MAX, DIRECT_DOT_MAX + 1])
    def test_both_sides_of_the_cut_match_brute(self, length):
        """At the cut the GEMM path runs; one point above, the recurrence."""
        rng = np.random.default_rng(21)
        series = rng.standard_normal(400).cumsum()
        series[200:300] = series[200]
        reference = brute_force_matrix_profile(series, length)
        with obs.tracing(True):
            obs.reset()
            mp = blocked_stomp(series, length, block_rows=7)
            counters = obs.snapshot()["counters"]
        obs.reset()
        obs.disable()
        n_subs = series.size - length + 1
        if length <= DIRECT_DOT_MAX:
            assert counters["kernel.gemm_rows"] == n_subs
            assert "comoment.reanchors" not in counters
        else:
            assert "kernel.gemm_rows" not in counters
            assert "kernel.blocks" not in counters
        _assert_matches_oracle(series, length, mp, reference)

    def test_short_path_is_exact_on_a_large_offset(self):
        """l <= DIRECT_DOT_MAX never forms QT - l*mu_i*mu_j, so a 1e8 DC
        offset costs no accuracy against the oracle."""
        series = np.random.default_rng(1).standard_normal(400) + 1e8
        reference = brute_force_matrix_profile(series, 20)
        mp = blocked_stomp(series, 20)
        np.testing.assert_allclose(
            mp.profile, reference.profile, atol=1e-9, rtol=0.0
        )


class TestContextIntegration:
    def test_shared_context_is_bitwise_neutral(self):
        series, length = _planted_motif()
        ctx = SeriesContext(series)
        with_ctx = blocked_stomp(series, length, context=ctx)
        without = blocked_stomp(series, length)
        np.testing.assert_array_equal(with_ctx.profile, without.profile)
        np.testing.assert_array_equal(with_ctx.index, without.index)
        assert length in ctx.cached_stat_lengths

    def test_obs_counters(self):
        series, length = _random_walk()
        with obs.tracing(True):
            obs.reset()
            blocked_stomp(series, length, block_rows=32)
            snap = obs.snapshot()
        obs.reset()
        obs.disable()
        counters = snap["counters"]
        n_subs = series.size - length + 1
        assert counters["engine.rows"] == n_subs
        assert counters["kernel.blocks"] == -(-n_subs // 32)
        assert snap["gauges"]["kernel.block_rows"] == 32
        assert counters["kernel.gemm_rows"] == n_subs

    @pytest.mark.parametrize("block_rows", [7, 32, 10_000])
    def test_gemm_cells_cover_the_upper_triangle(self, block_rows):
        """Block [r0, r1) computes z[r0:r1] @ z[r0:].T: b * (n - r0) cells,
        about half of the n * n a full-row GEMM would pay."""
        series, length = _random_walk()
        with obs.tracing(True):
            obs.reset()
            blocked_stomp(series, length, block_rows=block_rows)
            counters = obs.snapshot()["counters"]
        obs.reset()
        obs.disable()
        n_subs = series.size - length + 1
        expected = sum(
            (min(r0 + block_rows, n_subs) - r0) * (n_subs - r0)
            for r0 in range(0, n_subs, block_rows)
        )
        assert counters["kernel.gemm_cells"] == expected
        assert counters["kernel.gemm_cells"] <= n_subs * (n_subs + block_rows) / 2


class TestValidation:
    def test_block_rows_must_be_positive(self):
        series, length = _short_series()
        with pytest.raises(InvalidParameterError, match="block_rows"):
            blocked_stomp(series, length, block_rows=0)
