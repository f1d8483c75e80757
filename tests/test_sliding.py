"""Tests for sliding dot products and running window statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distance.sliding import (
    moving_mean_std,
    prefix_sums,
    sliding_dot_product,
    validate_subsequence_length,
)
from repro.exceptions import InvalidParameterError


def naive_sliding_dot(query, series):
    m, n = len(query), len(series)
    return np.array(
        [float(np.dot(query, series[j : j + m])) for j in range(n - m + 1)]
    )


class TestSlidingDotProduct:
    def test_matches_naive_short_query(self, rng):
        t = rng.standard_normal(100)
        q = t[10:20]
        np.testing.assert_allclose(
            sliding_dot_product(q, t), naive_sliding_dot(q, t), atol=1e-9
        )

    def test_matches_naive_long_query_fft_path(self, rng):
        t = rng.standard_normal(400)
        q = t[50:150]  # length 100 > 64 -> FFT path
        np.testing.assert_allclose(
            sliding_dot_product(q, t), naive_sliding_dot(q, t), atol=1e-7
        )

    def test_query_equals_series(self, rng):
        t = rng.standard_normal(32)
        out = sliding_dot_product(t, t)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(float(np.dot(t, t)))

    def test_empty_query_raises(self):
        with pytest.raises(InvalidParameterError):
            sliding_dot_product(np.array([]), np.zeros(10))

    def test_query_longer_than_series_raises(self):
        with pytest.raises(InvalidParameterError):
            sliding_dot_product(np.zeros(11), np.zeros(10))

    @given(
        st.integers(min_value=2, max_value=150),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_fft_and_direct_agree_property(self, m, seed):
        rng = np.random.default_rng(seed)
        n = m + int(rng.integers(1, 100))
        t = rng.standard_normal(n)
        q = rng.standard_normal(m)
        np.testing.assert_allclose(
            sliding_dot_product(q, t), naive_sliding_dot(q, t), atol=1e-6
        )


class TestMovingMeanStd:
    def test_matches_naive(self, rng):
        t = rng.standard_normal(200) * 3 + 1
        mu, sigma = moving_mean_std(t, 17)
        for i in range(t.size - 17 + 1):
            window = t[i : i + 17]
            assert mu[i] == pytest.approx(window.mean(), abs=1e-9)
            assert sigma[i] == pytest.approx(window.std(), abs=1e-9)

    def test_window_one(self):
        t = np.array([1.0, 2.0, 3.0])
        mu, sigma = moving_mean_std(t, 1)
        np.testing.assert_allclose(mu, t)
        np.testing.assert_allclose(sigma, 0.0)

    def test_window_equal_to_series(self, rng):
        t = rng.standard_normal(20)
        mu, sigma = moving_mean_std(t, 20)
        assert mu.shape == (1,)
        assert mu[0] == pytest.approx(t.mean())

    def test_invalid_windows(self):
        with pytest.raises(InvalidParameterError):
            moving_mean_std(np.zeros(10), 0)
        with pytest.raises(InvalidParameterError):
            moving_mean_std(np.zeros(10), 11)

    def test_constant_series_zero_std(self):
        mu, sigma = moving_mean_std(np.full(50, 3.0), 8)
        np.testing.assert_allclose(mu, 3.0)
        np.testing.assert_allclose(sigma, 0.0, atol=1e-12)


class TestPrefixSums:
    def test_window_sums(self, rng):
        t = rng.standard_normal(64)
        c = prefix_sums(t)
        assert c[0] == 0.0 and c.size == t.size + 1
        assert c[17] - c[5] == pytest.approx(t[5:17].sum())


class TestValidateSubsequenceLength:
    def test_valid(self):
        assert validate_subsequence_length(100, 10) == 91

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            validate_subsequence_length(100, 1)

    def test_too_large(self):
        with pytest.raises(InvalidParameterError):
            validate_subsequence_length(100, 51)

    def test_exactly_half(self):
        assert validate_subsequence_length(100, 50) == 51
