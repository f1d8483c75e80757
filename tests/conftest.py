"""Shared fixtures for the test suite.

Series fixtures cover the three structure classes the algorithms behave
differently on: white noise (adversarial for pruning), smooth structured
data (friendly), and planted-motif data (known ground truth).
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.datasets.motif_planting import plant_motifs
from repro.distance.znorm import CONSTANT_EPS
from repro.matrixprofile.exclusion import exclusion_zone_half_width


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def noise_series():
    """White noise: the hardest case for every pruning strategy."""
    return np.random.default_rng(7).standard_normal(400)


@pytest.fixture(scope="session")
def structured_series():
    """Smooth quasi-periodic series: the friendliest case."""
    x = np.linspace(0, 16 * np.pi, 500)
    wobble = 0.05 * np.random.default_rng(11).standard_normal(500)
    return np.sin(x) + 0.4 * np.sin(2.3 * x + 1.0) + wobble


@pytest.fixture(scope="session")
def planted():
    """Noise with two planted copies of a 40-point pattern."""
    generator = np.random.default_rng(3)
    background = generator.standard_normal(500)
    pattern = np.sin(np.linspace(0, 4 * np.pi, 40)) * np.hanning(40)
    return plant_motifs(
        background,
        pattern,
        positions=[70, 300],
        scale=5.0,
        rng=generator,
    )


@pytest.fixture(scope="session")
def planted_series(planted):
    return planted.series


def assert_profiles_close(a, b, atol=1e-6):
    """Profiles equal where both finite; infinities must coincide."""
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape
    fin_a = np.isfinite(a)
    fin_b = np.isfinite(b)
    np.testing.assert_array_equal(fin_a, fin_b)
    np.testing.assert_allclose(a[fin_a], b[fin_b], atol=atol)


def oracle_profile(series, length):
    """The exactness oracle: every window z-normalized directly, no recurrence.

    Returns the matrix profile (exclusion zone applied), with the
    constant-window conventions of :mod:`repro.distance.znorm`: distance 0
    between two constant windows, ``sqrt(l)`` when exactly one is.
    """
    windows = sliding_window_view(np.asarray(series, dtype=np.float64), length)
    sigma = windows.std(axis=1)
    const = sigma < CONSTANT_EPS
    z = (windows - windows.mean(axis=1)[:, None]) / np.where(const, 1.0, sigma)[:, None]
    lcorr = z @ z.T
    lcorr[const] = 0.5 * length
    lcorr[:, const] = 0.5 * length
    lcorr[np.ix_(const, const)] = length
    dist = np.sqrt(np.maximum(2.0 * (length - lcorr), 0.0))
    offsets = np.arange(sigma.size)
    dist[np.abs(offsets[:, None] - offsets) < exclusion_zone_half_width(length)] = np.inf
    return dist.min(axis=1)
