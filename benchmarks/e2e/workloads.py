"""The benchmark's four workloads: inputs, calls, references and checks.

Each workload turns ``--seed`` into a *pool* of inputs, calls one public
entry point of the program on each input, and checks every output
against a reference computed on a path that shares no code with VALMOD's
Algorithms 3 and 4: the blocked STOMP kernel, one full matrix profile per
length.

Why pools: VALMOD and the MAD discord search prune data-dependently, so
the cost of a single input moves by 3-15% from one seed to the next.  A
run sums the per-input medians over a pool of independent inputs, which
keeps the seed-to-seed spread of ``run_s`` well inside its bound while
every run still draws all of its inputs from its own seed.

Only stable public signatures are called (no ``n_jobs=``, ``engine=`` or
``stats_cache=`` on the measured path), so later changes that delete
engines or knobs do not break the benchmark.  Calls go through the
``repro`` package attributes, so the traced run's wrappers (layers.py)
see them.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Tuple

import numpy as np

import repro
from repro import find_discords
from repro.datasets import load_dataset
from repro.kernels import blocked_stomp

#: relative tolerance on every distance compared with the reference.
REL_TOL = 1e-6

#: what a workload's ``check`` returns: (operations attempted, operations
#: failed, one message per problem).
Check = Tuple[int, int, List[str]]


def sub_seed(seed: int, index: int) -> int:
    """Independent 32-bit seed for input ``index`` of the pool of ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def noisy_sine_feed(n: int, seed: int, index: int) -> np.ndarray:
    """Noisy sine (period 100) with three short spikes at distinct phases.

    Adapted from the MAD discord benchmark's feed.  Its bumps sit at one
    sine phase, so they are each other's nearest neighbours and the
    discords are noise windows; how many lengths the bounds then prune
    swings from 40 to 60 of 65 with the noise seed.  Spikes at three
    different phases dominate the discords instead, and the pruned share
    stays within a few lengths of its mean from seed to seed.
    """
    rng = np.random.default_rng([seed, index])
    x = np.linspace(0.0, 0.02 * np.pi * n, n)
    t = np.sin(x) + 0.05 * rng.standard_normal(n)
    for q in (1, 3, 5):
        pos = (q * n) // 8 + 11 * q
        t[pos : pos + 6] += np.hanning(6)
    return t


def znorm_distance(series: np.ndarray, a: int, b: int, length: int) -> float:
    """z-normalized Euclidean distance of two windows, computed directly."""
    x = series[a : a + length]
    y = series[b : b + length]
    x = (x - x.mean()) / x.std()
    y = (y - y.mean()) / y.std()
    return float(np.sqrt(np.sum((x - y) ** 2)))


def close(value: float, expected: float) -> bool:
    return math.isclose(value, expected, rel_tol=REL_TOL, abs_tol=REL_TOL * 1e-3)


def profile_minima(series: np.ndarray, l_min: int, l_max: int) -> List[float]:
    """Reference motif distance per length: the minimum of a full profile."""
    out = []
    for length in range(l_min, l_max + 1):
        profile = blocked_stomp(series, length).profile
        out.append(float(profile[np.isfinite(profile)].min()))
    return out


def discord_list(series: np.ndarray, l_min: int, l_max: int, k: int, **engine: str) -> List[list]:
    found = find_discords(series, l_min, l_max, k=k, **engine)
    return [[d.start, d.length, d.distance] for d in found]


@functools.lru_cache(maxsize=32)
def default_engine_discords(data: bytes, l_min: int, l_max: int, k: int) -> List[list]:
    """``find_discords`` with its default engine, memoized per series."""
    return discord_list(np.frombuffer(data), l_min, l_max, k)


def check_pairs(
    series: np.ndarray, pairs: Dict[int, list], minima: List[float], l_min: int
) -> List[str]:
    """One problem per wrong length of an output's motif pairs."""
    problems = []
    for offset, expected in enumerate(minima):
        length = l_min + offset
        pair = pairs.get(length)
        if pair is None:
            problems.append(f"l={length}: no motif pair")
            continue
        a, b, distance = pair
        if abs(a - b) < math.ceil(length / 2):
            problems.append(f"l={length}: trivial pair ({a}, {b})")
        elif not close(distance, expected):
            problems.append(f"l={length}: distance {distance!r} != reference {expected!r}")
        elif not close(znorm_distance(series, a, b, length), distance):
            problems.append(f"l={length}: pair ({a}, {b}) is not at distance {distance!r}")
    return problems


def nn_distance(series: np.ndarray, start: int, length: int) -> float:
    """Distance from one window to its nearest non-trivial neighbour, directly."""
    windows = np.lib.stride_tricks.sliding_window_view(series, length)
    z = (windows - windows.mean(axis=1, keepdims=True)) / windows.std(axis=1, keepdims=True)
    distances = np.sqrt(((z - z[start]) ** 2).sum(axis=1))
    zone = math.ceil(length / 2)
    distances[max(0, start - zone + 1) : start + zone] = np.inf
    return float(distances.min())


def rank_problems(series: np.ndarray, found: List[list], expected: List[list]) -> List[str]:
    """One problem per rank of ``found`` that differs from ``expected``."""
    problems = []
    for rank in range(max(len(found), len(expected))):
        if rank >= len(found) or rank >= len(expected):
            problems.append(f"discord #{rank}: {len(found)} found, {len(expected)} expected")
            continue
        (start, length, distance), (r_start, r_length, r_distance) = found[rank], expected[rank]
        if (start, length) != (r_start, r_length) or not close(distance, r_distance):
            problems.append(
                f"discord #{rank}: ({start}, {length}) at {distance!r} != "
                f"reference ({r_start}, {r_length}) at {r_distance!r}"
            )
        elif not close(nn_distance(series, start, length), distance):
            problems.append(f"discord #{rank}: ({start}, {length}) is not at distance {distance!r}")
    return problems


def check_discords(
    series: np.ndarray, found: List[list], expected: List[list], l_min: int, l_max: int, k: int
) -> List[str]:
    """Problems with a top-k discord list (empty when it is correct).

    Each rank must match the reference's (start, length) exactly and its
    distance within the tolerance, and the window's nearest-neighbour
    distance, computed directly, must equal the reported one.

    Ties: two windows that are each other's nearest neighbours share one
    profile value, so which one a search keeps depends on rounding, and
    through the exclusion zones that choice can change later ranks too.
    An output that differs from the blocked-STOMP reference is therefore
    also compared with ``find_discords`` on the program's default engine,
    which breaks ties the way the program does; the distances are still
    checked directly either way.
    """
    problems = rank_problems(series, found, expected)
    if problems and not rank_problems(
        series, found, default_engine_discords(series.tobytes(), l_min, l_max, k)
    ):
        return []
    return problems


def motif_pairs_of(result: Any) -> Dict[int, list]:
    return {
        int(length): [pair.a, pair.b, pair.distance]
        for length, pair in result.motif_pairs.items()
    }


@dataclass(frozen=True)
class MotifWorkload:
    """``valmod(series, l_min, l_max, p=p)`` on a ``repro.datasets`` family."""

    name: str
    family: str
    n: int
    l_min: int
    l_max: int
    p: int
    pool: int
    kind: str = "motifs"

    def inputs(self, seed: int) -> List[np.ndarray]:
        return [load_dataset(self.family, self.n, seed=sub_seed(seed, i)) for i in range(self.pool)]

    def warmup(self) -> None:
        repro.valmod(load_dataset(self.family, 1000, seed=0), self.l_min, self.l_min + 4, p=self.p)

    def run(self, series: np.ndarray) -> Tuple[Any, Dict[str, List[float]]]:
        return repro.valmod(series, self.l_min, self.l_max, p=self.p), {}

    def output(self, result: Any) -> Dict[int, list]:
        return motif_pairs_of(result)

    def reference(self, series: np.ndarray) -> Dict[str, Any]:
        return {"minima": profile_minima(series, self.l_min, self.l_max)}

    def operations(self) -> int:
        """One operation per length: its motif pair."""
        return self.l_max - self.l_min + 1

    def check(self, series: np.ndarray, output: Dict[int, list], ref: Dict[str, Any]) -> Check:
        problems = check_pairs(series, output, ref["minima"], self.l_min)
        return self.operations(), len(problems), problems


@dataclass(frozen=True)
class DiscordWorkload:
    """``find_discords_pruned(feed, l_min, l_max, k=k)`` on the spiked sine."""

    name: str
    n: int
    l_min: int
    l_max: int
    k: int
    pool: int
    kind: str = "discords"

    def inputs(self, seed: int) -> List[np.ndarray]:
        return [noisy_sine_feed(self.n, seed, i) for i in range(self.pool)]

    def warmup(self) -> None:
        repro.find_discords_pruned(noisy_sine_feed(1000, 0, 0), self.l_min, self.l_min + 8, k=self.k)

    def run(self, series: np.ndarray) -> Tuple[Any, Dict[str, List[float]]]:
        return repro.find_discords_pruned(series, self.l_min, self.l_max, k=self.k), {}

    def output(self, result: Any) -> List[list]:
        return [[d.start, d.length, d.distance] for d in result]

    def reference(self, series: np.ndarray) -> Dict[str, Any]:
        return {
            "discords": discord_list(
                series, self.l_min, self.l_max, self.k, engine="blocked-stomp"
            )
        }

    def operations(self) -> int:
        """One operation per discord of the top k."""
        return self.k

    def check(self, series: np.ndarray, output: List[list], ref: Dict[str, Any]) -> Check:
        problems = check_discords(
            series, output, ref["discords"], self.l_min, self.l_max, self.k
        )
        return self.operations(), min(len(problems), self.k), problems


@dataclass(frozen=True)
class StreamWorkload:
    """One ``StreamingValmod`` session: appends with periodic refreshes.

    The session is seeded with the first ``n_initial`` points of the feed,
    then appends the rest one point at a time; every ``refresh_every``
    appends it reads ``motifs()`` and ``discords()`` (a refresh).  Once the
    window holds ``max_points`` points, every append evicts the oldest.
    """

    name: str
    n_initial: int
    n_appends: int
    refresh_every: int
    max_points: int
    l_min: int
    l_max: int
    p: int
    k: int
    pool: int
    kind: str = "stream"

    def inputs(self, seed: int) -> List[np.ndarray]:
        n = self.n_initial + self.n_appends
        return [noisy_sine_feed(n, seed, i) for i in range(self.pool)]

    def warmup(self) -> None:
        small = replace(self, n_initial=200, n_appends=2 * self.refresh_every, max_points=240)
        small.run(noisy_sine_feed(small.n_initial + small.n_appends, 0, 0))

    def run(self, feed: np.ndarray) -> Tuple[Any, Dict[str, List[float]]]:
        clock = time.perf_counter
        sv = repro.StreamingValmod(
            feed[: self.n_initial], self.l_min, self.l_max,
            p=self.p, k_discords=self.k, max_points=self.max_points,
        )
        append_s: List[float] = []
        refresh_s: List[float] = []
        refreshes = []
        for count, value in enumerate(feed[self.n_initial :], 1):
            start = clock()
            sv.append(value)
            append_s.append(clock() - start)
            if count % self.refresh_every == 0:
                start = clock()
                motifs = sv.motifs()
                discords = sv.discords()
                refresh_s.append(clock() - start)
                refreshes.append((sv.window_start, motifs, discords))
        return refreshes, {"append_s": append_s, "refresh_s": refresh_s}

    def output(self, result: Any) -> List[dict]:
        return [
            {
                "window_start": int(start),
                "pairs": motif_pairs_of(motifs),
                "discords": [[d.start, d.length, d.distance] for d in discords],
            }
            for start, motifs, discords in result
        ]

    def windows(self, feed: np.ndarray) -> List[Tuple[int, np.ndarray]]:
        """(absolute start, points) of the window at every refresh."""
        out = []
        for end in range(
            self.n_initial + self.refresh_every,
            self.n_initial + self.n_appends + 1,
            self.refresh_every,
        ):
            start = max(0, end - self.max_points)
            out.append((start, feed[start:end]))
        return out

    def reference(self, feed: np.ndarray) -> Dict[str, Any]:
        return {
            "refreshes": [
                {
                    "minima": profile_minima(window, self.l_min, self.l_max),
                    "discords": discord_list(
                        window, self.l_min, self.l_max, self.k, engine="blocked-stomp"
                    ),
                }
                for _, window in self.windows(feed)
            ]
        }

    def operations(self) -> int:
        """One operation per refresh: its motif pairs and its discords."""
        return self.n_appends // self.refresh_every

    def check(self, feed: np.ndarray, output: List[dict], ref: Dict[str, Any]) -> Check:
        windows = self.windows(feed)
        problems = []
        failed = max(0, len(windows) - len(output))
        if failed:
            problems.append(f"{len(output)} refreshes, expected {len(windows)}")
        for number, (got, (start, window), expected) in enumerate(
            zip(output, windows, ref["refreshes"])
        ):
            found = []
            if got["window_start"] != start:
                found.append(f"window starts at {got['window_start']}, expected {start}")
            found += check_pairs(window, got["pairs"], expected["minima"], self.l_min)
            found += check_discords(
                window, got["discords"], expected["discords"], self.l_min, self.l_max, self.k
            )
            failed += bool(found)
            problems += [f"refresh {number}: {text}" for text in found]
        return len(windows), failed, problems


def input_digest(workload: Any, inputs: List[np.ndarray]) -> str:
    """sha256 over the workload's configuration and every input array."""
    digest = hashlib.sha256(repr(sorted(asdict(workload).items())).encode())
    for array in inputs:
        digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


#: the benchmark of record.  A round (one call per input) takes 2-5 s on
#: one CPU, so each of a run's three processes measures at least one round
#: and every input gets at least three samples (README.md gives the reason
#: behind each workload and its size).
WORKLOADS = {
    w.name: w
    for w in (
        MotifWorkload("ecg_motifs", "ECG", n=6000, l_min=128, l_max=160, p=50, pool=1),
        MotifWorkload("emg_motifs", "EMG", n=2000, l_min=32, l_max=48, p=50, pool=8),
        DiscordWorkload("bump_discords", n=2000, l_min=36, l_max=100, k=3, pool=4),
        StreamWorkload(
            "sine_stream", n_initial=300, n_appends=600, refresh_every=60,
            max_points=450, l_min=16, l_max=28, p=10, k=3, pool=1,
        ),
    )
}

#: the same four workloads at sizes a test can afford (``--smoke``).
SMOKE = {
    "ecg_motifs": replace(WORKLOADS["ecg_motifs"], n=1000, l_min=64, l_max=72, pool=1),
    "emg_motifs": replace(WORKLOADS["emg_motifs"], n=800, l_min=24, l_max=32, pool=2),
    "bump_discords": replace(WORKLOADS["bump_discords"], n=800, l_max=52, pool=1),
    "sine_stream": replace(
        WORKLOADS["sine_stream"], n_initial=150, n_appends=100, refresh_every=50, max_points=200
    ),
}
