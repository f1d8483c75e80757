"""The streaming-vs-batch differential wall for ``StreamingValmod``.

The correctness anchor of the streaming engine: after *any* sequence of
appends (and evictions), the materialized motifs and discords must be
bitwise identical to a fresh batch ``valmod`` / ``find_discords_pruned``
run on the exact retained window — for every registered engine.  The
eager bound layer may only change *when* work happens, never *what* the
answers are.

``Discord`` compares on normalized distance alone (it is an ordered
dataclass), so every discord comparison here goes through full tuples —
(length, start, distance, normalized_distance) — to catch positional
drift that distance equality would mask.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.discords import find_discords
from repro.core.discords_variable import find_discords_pruned
from repro.core.valmod import valmod
from repro.exceptions import InvalidParameterError, WindowTooSmallError
from repro.matrixprofile.registry import DEFAULT_ENGINE, engine_names
from repro.matrixprofile.streaming_valmod import StreamingValmod

L_MIN, L_MAX, P, K = 12, 18, 10, 2


@pytest.fixture()
def feed():
    rng = np.random.default_rng(11)
    series = np.cumsum(rng.standard_normal(320))
    series[40:58] += 4.0 * np.sin(np.linspace(0, 2 * np.pi, 18))
    series[200:218] += 4.0 * np.sin(np.linspace(0, 2 * np.pi, 18))
    return series


def discord_tuples(discords):
    return [
        (d.length, d.start, d.distance, d.normalized_distance) for d in discords
    ]


def assert_wall(stream, window, engine=DEFAULT_ENGINE):
    """Motifs and discords of ``stream`` == fresh batch runs on ``window``."""
    result = stream.motifs()
    batch = valmod(window, stream.l_min, stream.l_max, p=stream.p)
    assert result.motif_pairs == batch.motif_pairs
    np.testing.assert_array_equal(result.valmp.distances, batch.valmp.distances)
    np.testing.assert_array_equal(result.valmp.indices, batch.valmp.indices)
    np.testing.assert_array_equal(result.valmp.lengths, batch.valmp.lengths)

    streamed = stream.discords()
    pruned = find_discords_pruned(
        window, stream.l_min, stream.l_max, k=stream.k_discords,
        engine=engine, p=stream.p,
    )
    assert discord_tuples(streamed) == discord_tuples(pruned)


class TestDifferentialWall:
    @pytest.mark.parametrize("engine", sorted(engine_names()))
    def test_every_engine_bitwise(self, feed, engine):
        short = feed[:260]  # keeps the brute engine affordable
        stream = StreamingValmod(
            short[:230], L_MIN, L_MAX, p=P, k_discords=K, engine=engine
        )
        stream.extend(short[230:])
        assert_wall(stream, short, engine=engine)

    def test_pruned_matches_full_oracle(self, feed):
        stream = StreamingValmod(feed[:280], L_MIN, L_MAX, p=P, k_discords=K)
        stream.extend(feed[280:])
        oracle = find_discords(feed, L_MIN, L_MAX, k=K)
        assert discord_tuples(stream.discords()) == discord_tuples(oracle)

    def test_single_append(self, feed):
        stream = StreamingValmod(feed[:-1], L_MIN, L_MAX, p=P, k_discords=K)
        stream.append(float(feed[-1]))
        assert_wall(stream, feed)

    def test_warm_rematerialization_stays_exact(self, feed):
        stream = StreamingValmod(feed[:280], L_MIN, L_MAX, p=P, k_discords=K)
        stream.extend(feed[280:300])
        assert_wall(stream, feed[:300])  # cold materialization
        stream.extend(feed[300:])
        assert_wall(stream, feed)  # warm: bounds prune, values identical

    def test_eviction_wall(self, feed):
        stream = StreamingValmod(
            feed[:200], L_MIN, L_MAX, p=P, k_discords=K, max_points=240
        )
        stream.extend(feed[200:])
        assert stream.window_start == 80
        assert len(stream) == 240
        assert_wall(stream, feed[80:].copy())

    def test_constant_shelf_appends(self, feed):
        stream = StreamingValmod(feed[:280], L_MIN, L_MAX, p=P, k_discords=K)
        shelf = np.full(2 * L_MAX, 7.25)
        stream.extend(shelf)
        assert_wall(stream, np.concatenate([feed[:280], shelf]))

    def test_high_magnitude_appends(self, feed):
        rng = np.random.default_rng(3)
        spike = 1e8 + rng.standard_normal(40)
        stream = StreamingValmod(feed[:280], L_MIN, L_MAX, p=P, k_discords=K)
        stream.extend(spike)
        assert_wall(stream, np.concatenate([feed[:280], spike]))


class TestHypothesisWall:
    @given(
        seed=st.integers(0, 2**31 - 1),
        init=st.integers(120, 170),
        appends=st.integers(1, 35),
        l_min=st.integers(8, 12),
        span=st.integers(0, 3),
        windowed=st.booleans(),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_append_sequences(
        self, seed, init, appends, l_min, span, windowed
    ):
        rng = np.random.default_rng(seed)
        series = np.cumsum(rng.standard_normal(init + appends))
        l_max = l_min + span
        max_points = max(2 * l_max, init - 10) if windowed else None
        stream = StreamingValmod(
            series[:init], l_min, l_max, p=5, k_discords=2,
            max_points=max_points,
        )
        stream.extend(series[init:])
        window = series[stream.window_start :].copy()
        assert_wall(stream, window)


class TestValidationAndEdges:
    def test_window_too_small_at_construction(self, feed):
        with pytest.raises(WindowTooSmallError):
            StreamingValmod(feed, L_MIN, L_MAX, max_points=2 * L_MAX - 1)

    def test_resize_below_floor_rejected(self, feed):
        stream = StreamingValmod(feed[:280], L_MIN, L_MAX, p=P)
        with pytest.raises(WindowTooSmallError):
            stream.resize(2 * L_MAX - 1)
        # the failed resize must not have mutated the window
        assert len(stream) == 280 and stream.max_points is None

    def test_resize_shrinks_and_stays_exact(self, feed):
        stream = StreamingValmod(feed, L_MIN, L_MAX, p=P, k_discords=K)
        stream.resize(260)
        assert len(stream) == 260 and stream.window_start == 60
        assert_wall(stream, feed[60:].copy())

    def test_invalid_parameters(self, feed):
        with pytest.raises(InvalidParameterError):
            StreamingValmod(feed, 1, L_MAX)
        with pytest.raises(InvalidParameterError):
            StreamingValmod(feed, L_MAX, L_MIN)
        with pytest.raises(InvalidParameterError):
            StreamingValmod(feed[:30], L_MIN, 16)  # l_max > n // 2
        stream = StreamingValmod(feed[:280], L_MIN, L_MAX)
        with pytest.raises(InvalidParameterError):
            stream.append(float("inf"))

    def test_extend_empty_is_strict_noop(self, feed):
        stream = StreamingValmod(feed, L_MIN, L_MAX, p=P, k_discords=K)
        first = stream.motifs()
        stream.extend([])
        # no version bump: the materialization cache must survive
        assert stream.motifs() is first

    def test_total_points_and_series(self, feed):
        stream = StreamingValmod(feed[:300], L_MIN, L_MAX, max_points=300)
        stream.extend(feed[300:])
        assert stream.total_points == feed.size
        assert len(stream) == 300
        np.testing.assert_array_equal(stream.series(), feed[20:])


class TestEventsAndObs:
    def test_motif_improved_fires_for_planted_pattern(self, feed):
        rng = np.random.default_rng(5)
        series = np.cumsum(rng.standard_normal(300))
        stream = StreamingValmod(series, L_MIN, L_MAX, p=P)
        stream.motifs()  # establish a finite baseline
        stream.drain_events()
        pattern = series[100 : 100 + L_MAX].copy()  # replay an old window
        stream.extend(pattern)
        kinds = {event.kind for event in stream.drain_events()}
        assert "motif-improved" in kinds
        assert stream.drain_events() == []  # drained

    def test_window_evicted_event(self, feed):
        stream = StreamingValmod(feed[:300], L_MIN, L_MAX, max_points=300)
        stream.append(0.5)
        events = stream.drain_events()
        assert [event.kind for event in events].count("window-evicted") == 1
        assert events[-1].at_point == stream.total_points

    def test_changed_events_on_materialization(self, feed):
        stream = StreamingValmod(feed[:250], L_MIN, L_MAX, p=P, k_discords=K)
        stream.motifs()
        stream.discords()
        stream.drain_events()
        # Replay an exact earlier window: the new trailing subsequence
        # ties it at distance zero, forcing a new best pair; the spike
        # afterwards plants a fresh top discord.
        stream.extend(feed[100 : 100 + 2 * L_MAX])
        stream.extend(feed[250:] + 40.0)
        stream.motifs()
        stream.discords()
        kinds = {event.kind for event in stream.drain_events()}
        assert "motifs-changed" in kinds
        assert "discords-changed" in kinds

    def test_obs_accounting(self, feed):
        with obs.tracing(True):
            obs.reset()
            stream = StreamingValmod(
                feed[:250], L_MIN, L_MAX, p=P, k_discords=K, max_points=280
            )
            stream.extend(feed[250:])
            stream.motifs()
            stream.discords()
            counters = dict(obs.snapshot()["counters"])
        assert counters["streaming.appends"] == feed.size - 250
        assert counters["streaming.lengths.updated"] > 0
        assert counters["streaming.entries.evicted"] == feed.size - 280
        # the discord materialization reuses the batch accounting
        # identity: every swept length is either pruned or recomputed
        assert (
            counters["discords.profiles.pruned"]
            + counters["discords.profiles.recomputed"]
            == counters["discords.lengths.swept"]
        )

    def test_warm_materialization_prunes(self, feed):
        with obs.tracing(True):
            obs.reset()
            stream = StreamingValmod(feed[:300], L_MIN, L_MAX, p=P, k_discords=K)
            stream.discords()
            cold = dict(obs.snapshot()["counters"])
            stream.extend(feed[300:])
            stream.discords()
            counters = dict(obs.snapshot()["counters"])
        warm_recomputed = (
            counters["discords.profiles.recomputed"]
            - cold["discords.profiles.recomputed"]
        )
        warm_pruned = (
            counters["discords.profiles.pruned"]
            - cold["discords.profiles.pruned"]
        )
        # the maintained bounds must rule out most lengths on a warm pass
        assert warm_pruned > warm_recomputed

    def test_cold_discords_evaluate_the_batch_lengths(self):
        """A fresh stream's first discords() evaluates the batch's lengths.

        Both run the same bound pass; the stream certifies from the base
        length's threshold, the batch prunes against a running one, and
        on this series the two evaluate the same 14 of 25 lengths.
        """
        n = 1000
        rng = np.random.default_rng([1, 0])
        series = np.sin(np.linspace(0.0, 0.02 * np.pi * n, n))
        series += 0.05 * rng.standard_normal(n)
        for q in (1, 3, 5):  # spikes at three sine phases
            pos = (q * n) // 8 + 11 * q
            series[pos : pos + 6] += np.hanning(6)

        def evaluated(run):
            with obs.tracing(True):
                obs.reset()
                run()
                counters = dict(obs.snapshot()["counters"])
            prefix = "discords.profiles.recomputed.l"
            return sorted(
                int(name[len(prefix):]) for name in counters if name.startswith(prefix)
            )

        stream = StreamingValmod(series, 36, 60, p=P, k_discords=3)
        streamed = evaluated(stream.discords)
        batch = evaluated(
            lambda: find_discords_pruned(stream.series(), 36, 60, k=3, p=P)
        )
        assert streamed == batch
        assert 36 in batch and len(batch) < 60 - 36 + 1  # some lengths pruned

    def test_eviction_refresh_recomputes_every_reached_length(self, feed):
        """Pins ``discord_bounds()`` after the eviction wall's refresh.

        The refresh certifies from its seed threshold: every length whose
        bound reaches it is recomputed at once -- here all seven -- so
        each maintained bound becomes that length's exact profile maximum.
        A sweep that pruned against a running threshold would skip
        length 15 and leave its looser listDP bound in place.
        """
        from repro.matrixprofile.registry import compute_with

        stream = StreamingValmod(
            feed[:200], L_MIN, L_MAX, p=P, k_discords=K, max_points=240
        )
        stream.extend(feed[200:])
        with obs.tracing(True):
            obs.reset()
            stream.discords()
            counters = dict(obs.snapshot()["counters"])
        assert counters["discords.profiles.recomputed"] == L_MAX - L_MIN + 1
        window = stream.series()
        for length, bound in stream.discord_bounds().items():
            profile = compute_with(DEFAULT_ENGINE, window, length).profile
            assert bound == float(profile.max()) / math.sqrt(length)

    def test_bound_invariant_vs_batch_profiles(self, feed):
        """Maintained bounds are true upper bounds of the exact maxima."""
        from repro.matrixprofile.registry import compute_with

        stream = StreamingValmod(feed[:280], L_MIN, L_MAX, p=P, k_discords=K)
        stream.discords()
        stream.extend(feed[280:])
        window = stream.series()
        for length, bound in stream.discord_bounds().items():
            if not math.isfinite(bound):
                continue
            profile = compute_with("stomp", window, length).profile
            if not np.isfinite(profile).all():
                continue
            exact = float(profile.max()) / math.sqrt(length)
            assert bound * (1.0 + 1e-6) >= exact
