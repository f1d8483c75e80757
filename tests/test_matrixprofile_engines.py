"""Cross-engine equality: brute force == STOMP == STAMP (invariant 5)."""

import numpy as np
import pytest

from repro.matrixprofile import (
    brute_force_matrix_profile,
    stamp,
    stomp,
)
from repro.distance.comoment import comoment_rows, distance_profile_from_qt
from repro.distance.profile import naive_distance_profile
from repro.distance.sliding import moving_mean_std
from tests.conftest import assert_profiles_close


ENGINES = [stomp, stamp, brute_force_matrix_profile]


@pytest.mark.parametrize("length", [8, 16, 33])
def test_engines_agree_on_noise(noise_series, length):
    reference = brute_force_matrix_profile(noise_series, length)
    for engine in (stomp, stamp):
        result = engine(noise_series, length)
        assert_profiles_close(result.profile, reference.profile, atol=1e-6)


@pytest.mark.parametrize("length", [20, 50])
def test_engines_agree_on_structure(structured_series, length):
    reference = brute_force_matrix_profile(structured_series, length)
    for engine in (stomp, stamp):
        result = engine(structured_series, length)
        assert_profiles_close(result.profile, reference.profile, atol=1e-6)


def test_engines_agree_with_constant_segments():
    rng = np.random.default_rng(9)
    t = rng.standard_normal(200)
    t[50:80] = 2.5  # a flat shelf: exercises the degenerate-window paths
    reference = brute_force_matrix_profile(t, 12)
    for engine in (stomp, stamp):
        assert_profiles_close(engine(t, 12).profile, reference.profile, atol=1e-6)


def test_planted_motif_is_found(planted):
    mp = stomp(planted.series, planted.length)
    pair = mp.motif_pair()
    assert planted.hit(pair.a) and planted.hit(pair.b)


def test_index_points_to_nearest_neighbor(noise_series):
    mp = stomp(noise_series, 16)
    # spot-check a few positions against explicitly computed profiles
    for i in (0, 50, 200):
        row = naive_distance_profile(noise_series, i, 16)
        zone = mp.exclusion
        lo, hi = max(0, i - zone + 1), min(row.size, i + zone)
        row[lo:hi] = np.inf
        assert mp.profile[i] == pytest.approx(row.min(), abs=1e-6)


def test_stomp_rows_generator_matches_mass(noise_series):
    t = noise_series
    length = 16
    mu, sigma = moving_mean_std(t, length)
    for i, c in comoment_rows(t, length, mu, sigma, [(0, t.size - length + 1)]):
        if i in (0, 77, 250):
            row = distance_profile_from_qt(c, length, float(sigma[i]), sigma)
            np.testing.assert_allclose(
                row, naive_distance_profile(t, i, length), atol=1e-6
            )


class TestStampAnytime:
    def test_partial_run_is_upper_bound(self, noise_series):
        exact = stomp(noise_series, 16)
        partial = stamp(
            noise_series,
            16,
            max_rows=40,
            rng=np.random.default_rng(0),
        )
        finite = np.isfinite(partial.profile)
        assert finite.any()
        assert np.all(
            partial.profile[finite] >= exact.profile[finite] - 1e-9
        )

    def test_full_random_order_is_exact(self, noise_series):
        exact = stomp(noise_series, 16)
        shuffled = stamp(noise_series, 16, rng=np.random.default_rng(3))
        assert_profiles_close(shuffled.profile, exact.profile, atol=1e-6)

    def test_invalid_max_rows(self, noise_series):
        with pytest.raises(ValueError):
            stamp(noise_series, 16, max_rows=0)

    def test_anytime_converges_quickly(self, structured_series):
        """The paper's anytime claim: a fraction of rows already yields
        the true motif on structured data."""
        exact_pair = stomp(structured_series, 40).motif_pair()
        partial = stamp(
            structured_series,
            40,
            max_rows=len(structured_series) // 4,
            rng=np.random.default_rng(1),
        )
        pair = partial.motif_pair()
        # Anytime runs give upper bounds that converge from above: after a
        # quarter of the rows the best-so-far is already near the truth.
        assert pair.distance >= exact_pair.distance - 1e-9
        assert pair.distance <= 2.0 * exact_pair.distance + 1e-9


class TestFlatSegmentNumerics:
    """Regression: zero-variance and high-magnitude shelves.

    Prefix-sum mean/variance cancellation downstream of a
    high-magnitude shelf (plus QT recurrence drift) inflated STOMP's
    error to O(1); the noise-floor recompute in ``moving_mean_std`` and
    the re-anchoring schedule in ``stomp`` keep it bounded now.  The
    row-block seams of Algorithm 3's pool are checked on a flat run and
    on this shelf in ``tests/test_compute_mp.py``.
    """

    @staticmethod
    def _shelf_series(magnitude):
        rng = np.random.default_rng(11)
        t = rng.standard_normal(300).cumsum()
        t[120:170] = magnitude
        return t

    @pytest.mark.parametrize(
        "magnitude, tolerance",
        [(1e3, 1e-8), (1e6, 1e-6), (1e8, 1e-4)],
    )
    def test_high_magnitude_shelf_stays_accurate(self, magnitude, tolerance):
        """STOMP vs brute on a cumsum walk interrupted by a huge shelf.

        Before the noise-floor recompute + QT re-anchoring, the 1e8 case
        erred by ~4.0 absolute; it now holds 1e-6-ish.  Tolerances leave
        two orders of magnitude of headroom per decade of shelf height.
        """
        t = self._shelf_series(magnitude)
        reference = brute_force_matrix_profile(t, 16)
        result = stomp(t, 16)
        finite = np.isfinite(reference.profile)
        assert np.array_equal(np.isfinite(result.profile), finite)
        error = np.max(np.abs(result.profile[finite] - reference.profile[finite]))
        assert error < tolerance
