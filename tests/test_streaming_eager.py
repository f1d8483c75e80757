"""Oracle tests for the eager layer of ``StreamingValmod``.

Every append scores the newest subsequence of every length in 2-D
passes over blocks of lengths.  Here each of those scores is recomputed by direct per-window
z-normalization (no dot-product recurrence, no streaming statistics),
and the maintained discord bounds and ``motif-improved`` events must
follow from it exactly: for every length, the new bound is the larger
of the previous bound and the appended owners' normalized
nearest-neighbor distances, and an event fires for each owner whose
distance beats the best pair known so far.
"""

import math
import re

import numpy as np
import pytest

from repro import obs
from repro.distance.znorm import CONSTANT_EPS
from repro.matrixprofile import streaming_valmod
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.matrixprofile.streaming_valmod import StreamingValmod

L_MIN, L_MAX, P, K = 12, 18, 10, 2
PAIR = re.compile(r"pair \((\d+), (\d+)\)")


def nearest_earlier(series, owner, length):
    """(distance, start) of the owner's nearest earlier non-trivial window.

    Candidates are the windows starting at most ``owner - zone``, each
    z-normalized directly, with the constant-window conventions.
    """
    last = owner - exclusion_zone_half_width(length)
    if last < 0:
        return math.inf, -1
    windows = np.lib.stride_tricks.sliding_window_view(
        series[: last + length], length
    )
    query = series[owner : owner + length]
    mu, sd = windows.mean(axis=1), windows.std(axis=1)
    q_mu, q_sd = query.mean(), query.std()
    constant = sd < CONSTANT_EPS
    if q_sd < CONSTANT_EPS:
        dist = np.where(constant, 0.0, math.sqrt(length))
    else:
        z = (windows - mu[:, None]) / np.where(constant, 1.0, sd)[:, None]
        dist = np.sqrt((((query - q_mu) / q_sd - z) ** 2).sum(axis=1))
        dist[constant] = math.sqrt(length)
    j = int(np.argmin(dist))
    return float(dist[j]), j


@pytest.fixture()
def streams():
    """A warm stream and the feed it is about to be extended with."""
    rng = np.random.default_rng(11)
    base = np.cumsum(rng.standard_normal(250))
    repeat = base[100:130] + 0.02 * rng.standard_normal(30)
    shelf = np.full(2 * L_MAX + 6, 7.25)
    tail = 7.25 + np.cumsum(rng.standard_normal(20))
    return base, np.concatenate([repeat, shelf, tail])


def test_bounds_and_events_follow_the_direct_oracle(streams):
    base, appended = streams
    stream = StreamingValmod(base, L_MIN, L_MAX, p=P, k_discords=K)
    stream.discords()  # exact bounds for every length
    motifs = stream.motifs()  # the best known pair of every length
    before = stream.discord_bounds()
    assert all(math.isfinite(bound) for bound in before.values())
    best = {length: pair.distance for length, pair in motifs.motif_pairs.items()}
    assert sorted(best) == list(range(L_MIN, L_MAX + 1))
    stream.drain_events()

    stream.extend(appended)
    series = np.concatenate([base, appended])
    expected = dict(before)
    expected_events = []
    for end in range(base.size, series.size):
        for length in range(L_MIN, L_MAX + 1):
            owner = end - length + 1
            d, j = nearest_earlier(series[: end + 1], owner, length)
            expected[length] = max(expected[length], d / math.sqrt(length))
            if d < best[length]:
                best[length] = d
                expected_events.append((length, j, owner))

    after = stream.discord_bounds()
    for length in range(L_MIN, L_MAX + 1):
        assert after[length] == pytest.approx(expected[length], rel=1e-9, abs=0.0)
    assert any(after[length] > before[length] for length in after)
    events = [
        (event.length, *map(int, PAIR.match(event.detail).groups()))
        for event in stream.drain_events()
        if event.kind == "motif-improved"
    ]
    assert events == expected_events
    # the repeat and the shelf (constant pairs at distance 0) both improve
    assert {length for length, _, _ in events} == set(range(L_MIN, L_MAX + 1))


def test_row_blocks_leave_the_eager_state_bitwise(monkeypatch, streams):
    """Splitting the lengths into blocks of rows changes no bit.

    At the default budget this window is one block of all seven lengths;
    the small budgets give one row per block, then three or four rows
    per block with a shorter last block.
    """
    base, appended = streams

    def run():
        stream = StreamingValmod(base, L_MIN, L_MAX, p=P, k_discords=K)
        stream.discords()
        stream.drain_events()
        stream.extend(appended)
        return stream.discord_bounds(), stream.drain_events()

    whole = run()
    assert len(whole[1]) > 10
    for cells in (1, 1000):
        monkeypatch.setattr(streaming_valmod, "_EAGER_BLOCK_CELLS", cells)
        assert run() == whole


def test_event_queue_overflow_drops_the_oldest(monkeypatch, streams):
    base, appended = streams

    def run():
        stream = StreamingValmod(base, L_MIN, L_MAX, p=P, max_points=base.size)
        with obs.tracing(True):
            obs.reset()
            stream.extend(appended)
            dropped = obs.get_tracer().counter("streaming.events.dropped")
        return stream, dropped

    reference, dropped = run()
    everything = reference.drain_events()
    assert dropped == 0 and len(everything) > 10

    monkeypatch.setattr(streaming_valmod, "_EVENT_QUEUE_MAX", 10)
    stream, dropped = run()
    kept = stream.drain_events()
    assert isinstance(kept, list)
    assert kept == everything[-10:]
    assert dropped == len(everything) - 10
    assert stream.drain_events() == []
    stream.append(0.0)
    assert [event.kind for event in stream.drain_events()][-1] == "window-evicted"
