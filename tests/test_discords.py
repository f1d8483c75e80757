"""Tests for variable-length discord discovery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compute_mp import compute_matrix_profile
from repro.core.discords import (
    Discord,
    find_discords,
    per_length_candidates,
    select_top_k,
)
from repro.core.discords_variable import length_upper_bound
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.matrixprofile.stomp import stomp


@pytest.fixture(scope="module")
def anomalous_series():
    """Periodic series with one injected anomaly of a known width."""
    x = np.linspace(0, 40 * np.pi, 1000)
    t = np.sin(x) + 0.05 * np.random.default_rng(5).standard_normal(1000)
    t[500:530] += 4.0 * np.hanning(30)
    return t, 500, 30


class TestDiscovery:
    def test_finds_injected_anomaly(self, anomalous_series):
        t, pos, width = anomalous_series
        discords = find_discords(t, 24, 36, k=1)
        assert len(discords) == 1
        assert abs(discords[0].start - pos) <= 40

    def test_ranked_by_normalized_distance(self, anomalous_series):
        t, _, _ = anomalous_series
        discords = find_discords(t, 24, 30, k=4)
        norms = [d.normalized_distance for d in discords]
        assert norms == sorted(norms, reverse=True)

    def test_non_overlapping(self, anomalous_series):
        t, _, _ = anomalous_series
        discords = find_discords(t, 24, 30, k=5)
        for i, a in enumerate(discords):
            for b in discords[i + 1 :]:
                zone = max(
                    exclusion_zone_half_width(a.length),
                    exclusion_zone_half_width(b.length),
                )
                assert abs(a.start - b.start) >= zone

    def test_lengths_within_range(self, anomalous_series):
        t, _, _ = anomalous_series
        for d in find_discords(t, 24, 30, k=3):
            assert 24 <= d.length <= 30

    def test_variable_length_beats_wrong_fixed_length(self):
        """The extension's point: a short glitch scanned only at a long
        length scores lower than at its natural length."""
        x = np.linspace(0, 40 * np.pi, 1000)
        t = np.sin(x) + 0.05 * np.random.default_rng(8).standard_normal(1000)
        t[400:412] += 5.0 * np.hanning(12)  # a 12-point glitch
        short = find_discords(t, 10, 14, k=1)[0]
        long_ = find_discords(t, 48, 52, k=1)[0]
        assert short.normalized_distance > long_.normalized_distance


class TestValidation:
    def test_reversed_range(self, anomalous_series):
        t, _, _ = anomalous_series
        with pytest.raises(InvalidParameterError):
            find_discords(t, 30, 24)

    def test_bad_k(self, anomalous_series):
        t, _, _ = anomalous_series
        with pytest.raises(InvalidParameterError):
            find_discords(t, 24, 30, k=0)

    def test_end_property(self):
        d = Discord(normalized_distance=1.0, distance=2.0, length=10, start=5)
        assert d.end == 15


class TestEdgeCases:
    def test_constant_series(self):
        # Every window is identical: nearest-neighbor distance 0
        # everywhere, so the "discords" score 0 but the scan must not
        # crash or return overlapping windows.
        discords = find_discords(np.zeros(300), 16, 24, k=2)
        for d in discords:
            assert d.distance == 0.0
        for i, a in enumerate(discords):
            for b in discords[i + 1 :]:
                zone = max(
                    exclusion_zone_half_width(a.length),
                    exclusion_zone_half_width(b.length),
                )
                assert abs(a.start - b.start) >= zone

    def test_k_exceeding_non_overlapping_discords(self):
        # A 200-point series cannot host 50 mutually non-overlapping
        # 16..40-point windows; the result is simply shorter than k.
        t = np.sin(np.linspace(0, 8 * np.pi, 200))
        discords = find_discords(t, 16, 40, k=50)
        assert 0 < len(discords) < 50


class TestProperties:
    """Hypothesis properties behind the pruned driver's exactness."""

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_lb_upper_bound_admissible(self, seed):
        # Discord-side admissibility: at every advanced length, the
        # listDP-derived bound U_l dominates the true normalized profile
        # maximum — so a length pruned by U_l < threshold really cannot
        # host a top-k discord.
        rng = np.random.default_rng(seed)
        t = rng.standard_normal(240)
        ctx = SeriesContext(t)
        base = 12
        _, store = compute_matrix_profile(t, base, p=8, context=ctx)
        for length in range(base + 1, base + 8):
            store.advance_to(length, t, ctx.moving_mean_std(length - 1)[0])
            upper = length_upper_bound(store.neighbor, store.qt, ctx, length)
            profile = stomp(t, length, context=ctx).profile
            true_max = float(
                np.nanmax(np.where(np.isfinite(profile), profile, np.nan))
            ) / math.sqrt(length)
            assert upper >= true_max - 1e-9

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_per_length_candidates_dominate_rest_of_profile(self, seed):
        # The k extracted candidates must be the k largest
        # non-overlapping values: nothing outside their exclusion zones
        # may exceed the weakest candidate.
        rng = np.random.default_rng(seed)
        t = rng.standard_normal(200)
        profile = stomp(t, 16, context=SeriesContext(t)).profile
        candidates = per_length_candidates(profile, 16, 3)
        assert candidates
        zone = exclusion_zone_half_width(16)
        weakest = min(c.distance for c in candidates)
        covered = np.zeros(profile.size, dtype=bool)
        for c in candidates:
            lo = max(0, c.start - zone + 1)
            covered[lo : c.start + zone] = True
        outside = np.isfinite(profile) & ~covered
        if outside.any():
            assert profile[outside].max() <= weakest

    def test_equal_distance_tie_break_is_deterministic(self):
        # Equal normalized distances: stable sort keeps pool order, and
        # both drivers build the pool in ascending length, so the
        # shorter length (then the earlier per-length rank) wins.
        tie = [
            Discord(normalized_distance=1.0, distance=4.0, length=16, start=0),
            Discord(normalized_distance=1.0, distance=4.2, length=18, start=200),
            Discord(normalized_distance=1.0, distance=4.4, length=20, start=400),
        ]
        chosen = select_top_k(tie, 2)
        assert [d.length for d in chosen] == [16, 18]
        assert select_top_k(list(tie), 2) == chosen

    def test_tied_overlapping_candidates_resolve_to_pool_order(self):
        # An overlapping equal-score rival must lose to the earlier
        # pool entry, never evict it.
        tie = [
            Discord(normalized_distance=1.0, distance=4.0, length=16, start=100),
            Discord(normalized_distance=1.0, distance=4.0, length=16, start=101),
        ]
        chosen = select_top_k(tie, 2)
        assert chosen == [tie[0]]
