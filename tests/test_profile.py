"""Tests for the Eq. 3 distance-profile kernel on co-moments and the exclusion zone."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distance.comoment import (
    comoment_row,
    correlation_from_qt,
    distance_profile_from_qt,
)
from repro.distance.profile import apply_exclusion_zone, naive_distance_profile
from repro.distance.sliding import moving_mean_std
from repro.exceptions import InvalidParameterError
from repro.matrixprofile.exclusion import exclusion_zone_half_width


def fast_profile(series, start, length):
    mu, sigma = moving_mean_std(series, length)
    c = comoment_row(series[start : start + length], series, mu)
    return distance_profile_from_qt(c, length, float(sigma[start]), sigma)


class TestDistanceProfileFromQt:
    def test_matches_naive(self, rng):
        t = rng.standard_normal(150)
        for start, length in [(0, 10), (25, 20), (100, 16)]:
            np.testing.assert_allclose(
                fast_profile(t, start, length),
                naive_distance_profile(t, start, length),
                atol=1e-6,
            )

    def test_self_distance_is_zero(self, rng):
        t = rng.standard_normal(80)
        profile = fast_profile(t, 30, 12)
        assert profile[30] == pytest.approx(0.0, abs=1e-6)

    def test_constant_query(self):
        t = np.concatenate([np.full(20, 2.0), np.random.default_rng(1).standard_normal(40)])
        profile = fast_profile(t, 0, 10)
        naive = naive_distance_profile(t, 0, 10)
        np.testing.assert_allclose(profile, naive, atol=1e-6)

    def test_constant_windows_in_series(self):
        t = np.concatenate(
            [np.random.default_rng(2).standard_normal(40), np.full(20, -1.0)]
        )
        np.testing.assert_allclose(
            fast_profile(t, 5, 8), naive_distance_profile(t, 5, 8), atol=1e-6
        )

    def test_invalid_length(self):
        with pytest.raises(InvalidParameterError):
            distance_profile_from_qt(np.zeros(3), 0, 1.0, np.ones(3))

    def test_row_stack_is_bitwise_the_1d_rows(self, rng):
        """One row per query, each with its own length and statistics."""
        t = rng.standard_normal(90)
        t[30:52] = 3.0  # constant queries and constant windows
        starts, lengths = [0, 33, 5, 60], [8, 9, 10, 12]
        width = t.size - min(lengths) + 1
        c = np.zeros((len(starts), width))
        sigma = np.zeros((len(starts), width))
        expected = []
        for row, (start, length) in enumerate(zip(starts, lengths)):
            m, s = moving_mean_std(t, length)
            q = comoment_row(t[start : start + length], t, m)
            c[row, : q.size], sigma[row, : s.size] = q, s
            expected.append(distance_profile_from_qt(q, length, float(s[start]), s))
        column = np.array(lengths)[:, None]
        picks = (np.arange(len(starts)), starts)
        stack = distance_profile_from_qt(c, column, sigma[picks][:, None], sigma)
        assert sigma[1, 33] == 0.0  # the constant query is exercised
        for row, profile in enumerate(expected):
            np.testing.assert_array_equal(stack[row, : profile.size], profile)
        with pytest.raises(InvalidParameterError):
            distance_profile_from_qt(c, column - 8, sigma[picks][:, None], sigma)

    @given(st.integers(0, 2**31 - 1), st.integers(4, 24))
    @settings(max_examples=25, deadline=None)
    def test_matches_naive_property(self, seed, length):
        rng = np.random.default_rng(seed)
        n = length * 3 + int(rng.integers(0, 40))
        t = rng.standard_normal(n)
        start = int(rng.integers(0, n - length + 1))
        np.testing.assert_allclose(
            fast_profile(t, start, length),
            naive_distance_profile(t, start, length),
            atol=1e-5,
        )


class TestCorrelationFromQt:
    def test_self_correlation_is_one(self, rng):
        t = rng.standard_normal(60)
        mu, sigma = moving_mean_std(t, 10)
        c = comoment_row(t[20:30], t, mu)
        corr = correlation_from_qt(c, 10, float(sigma[20]), sigma)
        assert corr[20] == pytest.approx(1.0, abs=1e-9)

    def test_clipped_to_unit_interval(self, rng):
        t = rng.standard_normal(60)
        mu, sigma = moving_mean_std(t, 10)
        c = comoment_row(t[0:10], t, mu)
        corr = correlation_from_qt(c, 10, float(sigma[0]), sigma)
        assert np.all(corr <= 1.0) and np.all(corr >= -1.0)


class TestExclusionZone:
    def test_masks_center(self):
        profile = np.zeros(20)
        apply_exclusion_zone(profile, 10, 3)
        assert np.isinf(profile[8:13]).all()
        assert np.isfinite(profile[:8]).all()
        assert np.isfinite(profile[13:]).all()

    def test_clamps_at_edges(self):
        profile = np.zeros(10)
        apply_exclusion_zone(profile, 0, 4)
        assert np.isinf(profile[:4]).all()
        apply_exclusion_zone(profile, 9, 4)
        assert np.isinf(profile[6:]).all()

    def test_custom_value(self):
        profile = np.zeros(10)
        apply_exclusion_zone(profile, 5, 2, value=-1.0)
        assert profile[5] == -1.0

    def test_half_width(self):
        assert exclusion_zone_half_width(10) == 5
        assert exclusion_zone_half_width(11) == 6
        assert exclusion_zone_half_width(2) == 1
