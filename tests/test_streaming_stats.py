"""Direct tests of the streaming core, :class:`StreamingSeriesStats`.

An append computes the statistics of the L newest windows in one batched
pass (suffix sums for the means, centred deviations for the variances).
Those values must agree with the direct ``window.mean()`` /
``window.std()`` of each window to rounding error, which for a sum of
``l`` terms is bounded by a few ``eps * l * max|window|``.  The trailing
co-moment row must stay within the recurrence's error order of a
directly summed co-moment row on data of one scale, and equal it right
after each re-anchor of the drift rule.
"""

import numpy as np
import pytest

from repro import obs
from repro.exceptions import InvalidParameterError
from repro.distance.comoment import comoment_row
from repro.kernels.streaming_stats import StreamingSeriesStats

L_MIN, L_MAX = 10, 16
EPS = np.finfo(np.float64).eps
#: the statistics tolerance, in units of eps * l * max|window|
STATS_ULPS = 4.0


def stats_tolerance(window):
    return STATS_ULPS * EPS * window.size * float(np.abs(window).max())


def assert_window_stats(stats, start, length):
    """The stored statistics of one window match its direct ones."""
    window = np.array(stats.series()[start : start + length])
    mu, sigma = stats.mean_std(length)
    tol = stats_tolerance(window)
    assert abs(mu[start] - window.mean()) <= tol
    assert abs(sigma[start] - window.std()) <= tol


def assert_newest_windows(stats):
    n = stats.n_points
    for length in range(L_MIN, L_MAX + 1):
        assert_window_stats(stats, n - length, length)


def assert_appended_windows(stats, first_end):
    """Every window ending at or after offset ``first_end`` matches."""
    n = stats.n_points
    for length in range(L_MIN, L_MAX + 1):
        for start in range(max(0, first_end - length + 1), n - length + 1):
            assert_window_stats(stats, start, length)


def feed(kind, rng):
    """150 points after a 20-point noise lead-in: noise, shelf or offset."""
    lead = rng.standard_normal(20)
    tail = rng.standard_normal(30)
    if kind == "noise":
        body = rng.standard_normal(100)
    elif kind == "shelf":
        body = np.full(100, 7.25)
    else:  # a 1e8 offset: the windows across the jump force re-anchors
        body = 1e8 + rng.standard_normal(100)
    return np.concatenate([lead, body, tail])


@pytest.mark.parametrize("kind", ["noise", "shelf", "offset"])
@pytest.mark.parametrize("seed", range(3))
def test_batched_statistics_match_direct_windows(kind, seed):
    """Across a regrow, evictions and (offset) a forced re-anchor."""
    rng = np.random.default_rng(seed)
    seed_points = rng.standard_normal(40)
    values = feed(kind, rng)
    with obs.tracing(True):
        obs.reset()
        stats = StreamingSeriesStats(seed_points, L_MIN, L_MAX)
        capacity = stats.capacity
        first_end = stats.n_points  # windows ending here were appended
        for count, value in enumerate(values, 1):
            stats.append(float(value))
            assert_newest_windows(stats)
            if count % 40 == 0:
                stats.evict(25)
                first_end = max(0, first_end - 25)
                assert_appended_windows(stats, first_end)
        counters = dict(obs.snapshot()["counters"])
    assert_appended_windows(stats, first_end)
    assert stats.capacity > capacity
    assert counters["streaming.buffer.regrows"] >= 1
    if kind == "offset":
        # the drift rule re-anchors the windows across both jumps
        assert counters["comoment.reanchors"] >= 3


def test_constant_shelf_is_exactly_constant():
    seed_points = np.random.default_rng(0).standard_normal(40)
    stats = StreamingSeriesStats(seed_points, L_MIN, L_MAX)
    for _ in range(2 * L_MAX):
        stats.append(7.25)
    for length in range(L_MIN, L_MAX + 1):
        mu, sigma = stats.mean_std(length)
        assert mu[-1] == 7.25 and sigma[-1] == 0.0


def test_window_stats_rows_are_the_mean_std_views():
    seed_points = np.random.default_rng(1).standard_normal(90)
    stats = StreamingSeriesStats(seed_points, L_MIN, L_MAX)
    stats.append(0.5)
    stats.evict(7)
    mu2d, sigma2d = stats.window_stats()
    shape = (L_MAX - L_MIN + 1, stats.n_points - L_MIN + 1)
    assert mu2d.shape == sigma2d.shape == shape
    for row, length in enumerate(range(L_MIN, L_MAX + 1)):
        mu, sigma = stats.mean_std(length)
        assert np.shares_memory(mu, mu2d) and np.shares_memory(sigma, sigma2d)
        np.testing.assert_array_equal(mu, mu2d[row, : mu.size])
        np.testing.assert_array_equal(sigma, sigma2d[row, : sigma.size])


@pytest.mark.parametrize("seed", range(3))
def test_trailing_qt_against_correlate(seed):
    """Close to the direct sum on data of one scale, exact right after
    each re-anchor of a shelf."""
    rng = np.random.default_rng(seed)
    stats = StreamingSeriesStats(rng.standard_normal(50), L_MIN, L_MAX)
    calm = 5.0 * rng.standard_normal(64)
    shelf = 5.0 * rng.standard_normal(128)
    shelf[20:50] += 1e6  # the windows across it and past it re-anchor
    scheduled = since = 0
    with obs.tracing(True):
        obs.reset()
        for count, value in enumerate(np.concatenate([calm, shelf]), 1):
            stats.append(float(value))
            if count % 50 == 0:
                stats.evict(30)
            t = np.array(stats.series())
            mu, _ = stats.mean_std(L_MIN)
            exact = comoment_row(t[-L_MIN:], t, mu, direct=True)
            reanchors = obs.get_tracer().counter("comoment.reanchors")
            if reanchors > scheduled:
                scheduled, since = reanchors, 0
                np.testing.assert_array_equal(stats.trailing_comoment(), exact)
            elif count <= calm.size:
                # each recurrence step adds a few roundings of max|x|^2,
                # over at most 64 steps
                since += 1
                scale = float(np.abs(t).max()) ** 2
                tol = 4.0 * EPS * L_MIN * since * scale
                assert np.abs(stats.trailing_comoment() - exact).max() <= tol
    assert scheduled >= 2


def test_validation():
    series = np.random.default_rng(2).standard_normal(40)
    with pytest.raises(InvalidParameterError):
        StreamingSeriesStats(series, 1, L_MAX)
    with pytest.raises(InvalidParameterError):
        StreamingSeriesStats(series[:L_MAX - 1], L_MIN, L_MAX)
    stats = StreamingSeriesStats(series, L_MIN, L_MAX)
    with pytest.raises(InvalidParameterError):
        stats.append(float("nan"))
    with pytest.raises(InvalidParameterError):
        stats.evict(40 - L_MAX + 1)
    with pytest.raises(InvalidParameterError):
        stats.mean_std(L_MAX + 1)
