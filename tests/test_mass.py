"""Tests for MASS (one distance profile in O(n log n))."""

import numpy as np
import pytest

from repro.distance.mass import mass, mass_pair, mass_with_stats
from repro.distance.profile import naive_distance_profile
from repro.distance.znorm import znormalized_distance
from repro.exceptions import InvalidParameterError


class TestMass:
    def test_matches_naive(self, rng):
        t = rng.standard_normal(200)
        np.testing.assert_allclose(
            mass(t, 40, 25), naive_distance_profile(t, 40, 25), atol=1e-6
        )

    def test_structured_series(self, structured_series):
        t = structured_series
        np.testing.assert_allclose(
            mass(t, 100, 50), naive_distance_profile(t, 100, 50), atol=1e-6
        )

    def test_out_of_range_start(self, rng):
        t = rng.standard_normal(50)
        with pytest.raises(InvalidParameterError):
            mass(t, 45, 10)

    def test_length_leaves_no_subsequences(self, rng):
        t = rng.standard_normal(20)
        mu = sigma = np.ones(1)
        with pytest.raises(InvalidParameterError):
            mass_with_stats(t, 0, 25, mu, sigma)


class TestMassPair:
    def test_matches_naive_distance(self, rng):
        t = rng.standard_normal(100)
        d, corr = mass_pair(t, 20, 5, 60)
        assert d == pytest.approx(
            znormalized_distance(t[5:25], t[60:80]), abs=1e-8
        )
        assert -1.0 <= corr <= 1.0

    def test_identical_windows(self, rng):
        t = rng.standard_normal(60)
        d, corr = mass_pair(t, 15, 10, 10)
        assert d == pytest.approx(0.0, abs=1e-6)
        assert corr == pytest.approx(1.0, abs=1e-9)

    def test_constant_window(self):
        t = np.concatenate([np.full(20, 1.0), np.random.default_rng(0).standard_normal(40)])
        d, _ = mass_pair(t, 10, 0, 30)
        assert d == pytest.approx(np.sqrt(10))
