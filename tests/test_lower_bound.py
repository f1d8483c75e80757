"""Property and unit tests for the Eq. 2 lower bound — VALMOD's core lemma.

Two properties carry the whole algorithm:

1. **Admissibility**: LB(d[i,j; l+k]) <= d[i,j; l+k] for all i, j, k.
2. **Rank preservation**: within one profile the LB ordering is the same
   for every horizon k.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.lower_bound import (
    lower_bound_base,
    lower_bound_distance,
    lower_bound_from_base,
    lower_bound_profile,
    tightness_of_lower_bound,
)
from repro.analysis.ranking_study import lower_bound_rank_agreement
from repro.distance.znorm import znormalized_distance
from repro.exceptions import InvalidParameterError


def random_series(seed, n):
    return np.random.default_rng(seed).standard_normal(n)


class TestAdmissibility:
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(4, 24),
        st.integers(0, 20),
    )
    @settings(max_examples=120, deadline=None)
    def test_lb_never_exceeds_true_distance(self, seed, length, k):
        rng = np.random.default_rng(seed)
        n = length + k + int(rng.integers(length + k, 4 * (length + k)))
        t = rng.standard_normal(n)
        n_target = n - (length + k) + 1
        i = int(rng.integers(0, n_target))
        j = int(rng.integers(0, n_target))
        lb = lower_bound_distance(t, i, j, length, k)
        true = znormalized_distance(
            t[i : i + length + k], t[j : j + length + k]
        )
        assert lb <= true + 1e-7, (
            f"inadmissible bound: LB={lb} > d={true} (i={i}, j={j}, "
            f"l={length}, k={k})"
        )

    def test_admissible_on_structured_data(self, structured_series):
        t = structured_series
        for k in (0, 1, 5, 20):
            lb = lower_bound_profile(t, 100, 40, k)
            target = 40 + k
            for j in (0, 50, 150, 300):
                true = znormalized_distance(
                    t[100 : 100 + target], t[j : j + target]
                )
                assert lb[j] <= true + 1e-7

    def test_admissible_with_smoothly_varying_sigma(self):
        # A series whose local variance grows: sigma ratios < 1, the
        # regime where the bound can stay tight over many steps.
        x = np.linspace(0, 10, 400)
        t = np.sin(5 * x) * (0.2 + x)
        for k in (1, 10, 40):
            lb = lower_bound_profile(t, 10, 30, k)
            target = 30 + k
            n_target = t.size - target + 1
            for j in range(0, n_target, 37):
                true = znormalized_distance(
                    t[10 : 10 + target], t[j : j + target]
                )
                assert lb[j] <= true + 1e-7


#: relative tolerance of the rank-preservation tie rule, on profiles
#: scaled to their maximum.
RANK_RTOL = 1e-9


def _horizon_profiles(seed):
    """Eq. 2 profiles of one owner at horizons k = 1 and k = 24."""
    t = np.random.default_rng(seed).standard_normal(200)
    owner, length = 40, 16
    k_far = 24
    n_target = t.size - (length + k_far) + 1
    lb1 = lower_bound_profile(t, owner, length, 1)[:n_target]
    lb2 = lower_bound_profile(t, owner, length, k_far)[:n_target]
    return lb1, lb2


def assert_same_ranking(lb1, lb2):
    """``lb2`` orders the positions as ``lb1`` does, up to near-ties.

    The horizons differ by a per-profile constant factor, so both are
    scaled to their maximum first: the tie rule is then the same at every
    horizon.  Walking ``lb1``'s order, ``lb2`` may never step down by more
    than ``RANK_RTOL``.
    """
    a = lb1 / lb1.max()
    b = lb2 / lb2.max()
    steps = np.diff(b[np.argsort(a, kind="stable")])
    assert steps.min() >= -RANK_RTOL, f"rank inversion of {-steps.min():.3g}"


class TestRankPreservation:
    @given(st.integers(0, 2**31 - 1))
    @example(1438454)
    @settings(max_examples=25, deadline=None)
    def test_lb_ordering_is_k_invariant(self, seed):
        assert_same_ranking(*_horizon_profiles(seed))

    def test_rank_check_catches_an_inversion(self):
        """The tie rule is not a loophole: two positions whose bounds differ
        by far more than the tolerance, swapped at one horizon, fail."""
        lb1, lb2 = _horizon_profiles(1438454)
        order = np.argsort(lb2, kind="stable")
        values = lb2[order]
        gaps = np.diff(values) / lb2.max()
        # the closest pair of adjacent ranks that is still well apart
        real = np.flatnonzero(gaps > 1e3 * RANK_RTOL)
        rank = real[np.argmin(gaps[real])]
        inverted = lb2.copy()
        inverted[order[rank]], inverted[order[rank + 1]] = values[rank + 1], values[rank]
        assert_same_ranking(lb1, lb2)
        with pytest.raises(AssertionError, match="rank inversion"):
            assert_same_ranking(lb1, inverted)

    def test_scaling_between_horizons_is_constant(self):
        t = random_series(3, 300)
        owner, length = 50, 20
        lb_k1 = lower_bound_profile(t, owner, length, 1)
        lb_k2 = lower_bound_profile(t, owner, length, 2)
        n = lb_k2.size
        nonzero = lb_k1[:n] > 1e-12
        ratios = lb_k2[nonzero] / lb_k1[:n][nonzero]
        assert np.ptp(ratios) < 1e-9, "the k-step scaling must be per-profile constant"

    def test_rank_agreement_helper_reports_one(self, structured_series):
        agreement = lower_bound_rank_agreement(
            structured_series, owner=30, length=25, k1=0, k2=15, top=10
        )
        assert agreement == 1.0


#: correlations over every branch of Eq. 2's f(q): q <= 0, the open
#: interval, the 1e-12 snap bands near +/-1, the limits and beyond them.
CORRELATIONS = st.one_of(
    st.floats(-1.5, 1.5),
    st.floats(1.0 - 4e-12, 1.0),
    st.floats(-1.0, -1.0 + 4e-12),
    st.sampled_from([-1.0, -0.0, 0.0, 5e-324, 1.0 - 1e-12, -1.0 + 1e-12, 1.0]),
)
#: owner deviations from subnormal to huge (1e305 times sqrt(l) stays finite).
SIGMAS = st.one_of(
    st.floats(5e-324, 1e-300),
    st.floats(1e-6, 1e6),
    st.floats(1e300, 1e305),
)


class TestMonotoneInCorrelation:
    """listDP stores one bound per row, Eq. 2 on the row's smallest
    correlation; that is the largest per-entry bound only because the
    rounded formula never increases with q."""

    @given(CORRELATIONS, CORRELATIONS, st.integers(1, 10**6), SIGMAS)
    @example(1.0 - 2e-12, 1.0 - 5e-13, 16, 1.0)  # across the snap edge
    @example(-1.0, -1.0 + 5e-13, 16, 1.0)
    @example(-1.0, 1.0, 64, 5e-324)
    @example(0.0, 1e-200, 1, 1e308)
    @settings(max_examples=400, deadline=None)
    def test_never_increases_with_q(self, a, b, length, sigma):
        q1, q2 = sorted((a, b))
        low, high = lower_bound_base(q1, length, sigma), lower_bound_base(q2, length, sigma)
        assert low >= high
        # The vectorized form rounds every element as the scalar one does.
        vec = lower_bound_base(np.array([q1, q2]), length, sigma)
        assert vec.tobytes() == np.array([low, high]).tobytes()

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
        st.floats(1e-12, 1e3),
        st.integers(1, 4096),
        SIGMAS,
    )
    @example([2.0 * (1.0 - 3e-13), 1.0, -3.0], 0.5, 16, 1.0)
    @settings(max_examples=300, deadline=None)
    def test_row_maximum_is_the_bound_of_the_smallest_rank(
        self, ranks, scale, length, sigma
    ):
        """The fill's arithmetic: ``corr = clip(rank * scale)``, one
        positive ``scale = 1 / (l sigma_i)`` per row."""
        rank = np.array(ranks)
        per_entry = lower_bound_base(np.clip(rank * scale, -1.0, 1.0), length, sigma)
        smallest = np.clip(rank.min() * scale, -1.0, 1.0)
        row = lower_bound_base(np.array([smallest]), length, sigma)
        assert per_entry.max().tobytes() == row[0].tobytes()


class TestFormula:
    def test_negative_correlation_branch(self):
        # Anti-correlated windows: LB = sqrt(l) * sigma ratio.
        base = lower_bound_base(-0.8, 16, sigma_owner=2.0)
        assert base == pytest.approx(math.sqrt(16) * 2.0)

    def test_positive_correlation_branch(self):
        base = lower_bound_base(0.6, 25, sigma_owner=1.0)
        assert base == pytest.approx(math.sqrt(25 * (1 - 0.36)))

    def test_perfect_correlation_gives_zero(self):
        assert lower_bound_base(1.0, 10, 1.0) == pytest.approx(0.0)

    def test_vectorized_matches_scalar(self):
        qs = np.array([-0.5, 0.0, 0.3, 0.9])
        vec = lower_bound_base(qs, 12, 1.5)
        for q, v in zip(qs, vec):
            assert v == pytest.approx(lower_bound_base(float(q), 12, 1.5))

    def test_from_base_division(self):
        assert lower_bound_from_base(6.0, 2.0) == pytest.approx(3.0)

    def test_from_base_constant_owner_is_vacuous(self):
        assert lower_bound_from_base(6.0, 0.0) == 0.0

    def test_invalid_length(self):
        with pytest.raises(InvalidParameterError):
            lower_bound_base(0.5, 0, 1.0)

    def test_lower_bound_distance_validation(self):
        t = random_series(0, 50)
        with pytest.raises(InvalidParameterError):
            lower_bound_distance(t, 0, 45, 10, 20)  # owner extension too long
        with pytest.raises(InvalidParameterError):
            lower_bound_distance(t, 0, 0, 10, -1)

    def test_profile_owner_out_of_range(self):
        t = random_series(1, 60)
        with pytest.raises(InvalidParameterError):
            lower_bound_profile(t, 50, 10, 10)


class TestTightness:
    def test_range(self, structured_series):
        t = structured_series
        lb = lower_bound_profile(t, 60, 30, 10)
        target = 40
        true = np.array(
            [
                znormalized_distance(t[60 : 60 + target], t[j : j + target])
                for j in range(t.size - target + 1)
            ]
        )
        tlb = tightness_of_lower_bound(lb, true)
        assert np.all(tlb >= 0.0)
        assert np.all(tlb <= 1.0 + 1e-9)

    def test_zero_distance_defines_one(self):
        assert tightness_of_lower_bound(0.0, 0.0) == 1.0

    def test_scalar_and_array(self):
        assert tightness_of_lower_bound(1.0, 2.0) == pytest.approx(0.5)
        out = tightness_of_lower_bound(np.array([1.0, 3.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(out, [0.5, 0.75])
