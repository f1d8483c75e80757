"""The exactness wall: every engine and driver against the oracle on ``a*t + b``.

The oracle (:func:`tests.conftest.oracle_profile`) z-normalizes every
window directly and uses no recurrence.  z-normalized distances are
invariant under ``t -> a*t + b``, so every exact path must reproduce the
oracle on affinely transformed data, to the tolerance of
``docs/ALGORITHMS.md`` ("Exactness contract"): a floor plus a few
``eps`` times the conditioning of the series, ``max|t| / sigma`` for an
offset and its square for the spread around the median (a shelf of
large values).  The pinned examples are the offset and shelf series
that exposed the ``QT - l mu_i mu_j`` cancellation.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.discords_variable import find_discords_pruned
from repro.core.valmod import valmod
from repro.matrixprofile.registry import compute_with, engine_names
from repro.matrixprofile.streaming_valmod import STREAMING_UB_SLACK, StreamingValmod
from tests.conftest import oracle_profile

EPS = np.finfo(np.float64).eps

#: the tolerance's floor and its multiple of eps times the conditioning
TOL_FLOOR = 1e-7
TOL_EPS = 32.0

#: the short (GEMM) and long (recurrence) sides of blocked-stomp's cut
LENGTHS = (20, 80)


def tolerance(series, length):
    """Distance tolerance of the exactness contract for one length."""
    windows = np.lib.stride_tricks.sliding_window_view(series, length)
    sigma = float(np.median(windows.std(axis=1)))
    offset = float(np.abs(series).max()) / sigma
    spread = float(np.abs(series - np.median(series)).max()) / sigma
    return TOL_FLOOR + TOL_EPS * EPS * (offset + spread * spread)


def make_series(kind, seed, n=300):
    rng = np.random.default_rng(seed)
    if kind == "noise":
        return rng.standard_normal(n)
    if kind == "walk":
        return rng.standard_normal(n).cumsum()
    # a 0.1-sd walk with a 0.5-sd shelf at 1e6 over its middle third
    t = np.cumsum(0.1 * rng.standard_normal(n))
    t[n // 3 : 2 * n // 3] = 1e6 + 0.5 * rng.standard_normal(2 * n // 3 - n // 3)
    return t


def noisy_sine_feed(n, seed):
    """Noisy sine (period 100) with three short spikes at distinct phases."""
    rng = np.random.default_rng(seed)
    t = np.sin(np.linspace(0.0, 0.02 * np.pi * n, n)) + 0.05 * rng.standard_normal(n)
    for q in (1, 3, 5):
        pos = (q * n) // 8 + 11 * q
        t[pos : pos + 6] += np.hanning(6)
    return t


#: the pinned series and the error each path must stay under
PINNED = {
    "noise+1e8": (lambda: make_series("noise", 1) + 1e8, 1e-6),
    "walk+1e8": (lambda: make_series("walk", 10) + 1e8, 1e-6),
    "shelf-0": (lambda: make_series("shelf", 0), 1e-3),
    "shelf-1": (lambda: make_series("shelf", 1), 1e-3),
}

affine = dict(
    kind=st.sampled_from(["noise", "walk"]),
    seed=st.integers(0, 2**31 - 1),
    a=st.floats(1e-3, 1e3),
    b=st.floats(-1e9, 1e9),
)


def transformed(kind, seed, a, b):
    return a * make_series(kind, seed, n=200) + b


# brute (one Python call per pair) meets the pinned offsets as examples
# of the property below, so it runs here on the shelves alone
@pytest.mark.parametrize(
    "name, engine",
    [
        (name, engine)
        for name in sorted(PINNED)
        for engine in engine_names()
        if engine != "brute" or name.startswith("shelf")
    ],
)
def test_engines_on_pinned_series(name, engine):
    build, bound = PINNED[name]
    t = build()
    for length in LENGTHS:
        error = np.abs(compute_with(engine, t, length).profile - oracle_profile(t, length))
        assert error.max() <= min(bound, tolerance(t, length))


@given(**affine)
@settings(max_examples=5, deadline=None)
@example(kind="noise", seed=1, a=1.0, b=1e8)
@example(kind="walk", seed=10, a=1.0, b=1e8)
@example(kind="walk", seed=3, a=1e-3, b=-1e9)
def test_every_engine_is_affine_invariant(kind, seed, a, b):
    t = transformed(kind, seed, a, b)
    for length in LENGTHS:
        oracle = oracle_profile(t, length)
        tol = tolerance(t, length)
        for engine in engine_names():
            profile = compute_with(engine, t, length).profile
            assert np.abs(profile - oracle).max() <= tol, engine


def motif_errors(result, t):
    return [
        abs(pair.distance - oracle_profile(t, length).min())
        for length, pair in result.motif_pairs.items()
    ]


def discord_errors(found, t, lengths):
    """Each discord against its oracle profile value, and the top one
    against the oracle's largest normalized profile value over ``lengths``."""
    errors = [
        abs(d.distance - oracle_profile(t, d.length)[d.start]) for d in found
    ]
    top = max(oracle_profile(t, length).max() / math.sqrt(length) for length in lengths)
    return errors, abs(found[0].normalized_distance - top)


@given(**affine)
@settings(max_examples=6, deadline=None)
@example(kind="noise", seed=1, a=1.0, b=1e8)
@example(kind="walk", seed=10, a=1.0, b=1e8)
def test_drivers_are_affine_invariant(kind, seed, a, b):
    t = transformed(kind, seed, a, b)
    tol = max(tolerance(t, length) for length in (16, 20))
    assert max(motif_errors(valmod(t, 16, 20, p=5), t)) <= tol
    found = find_discords_pruned(t, 16, 20, k=2, p=5)
    errors, top = discord_errors(found, t, range(16, 21))
    assert max(errors) <= tol and top <= tol


@pytest.mark.parametrize("name", sorted(PINNED))
def test_drivers_on_pinned_series(name):
    build, bound = PINNED[name]
    t = build()
    tol = min(bound, max(tolerance(t, length) for length in (76, 80)))
    assert max(motif_errors(valmod(t, 76, 80, p=5), t)) <= tol
    errors, top = discord_errors(find_discords_pruned(t, 76, 80, k=2, p=5), t, range(76, 81))
    assert max(errors) <= tol and top <= tol


def test_valmod_on_an_offset_sine_matches_the_oracle_minima():
    t = noisy_sine_feed(800, 0) + 1e8
    result = valmod(t, 56, 59)
    for length, pair in result.motif_pairs.items():
        exact = oracle_profile(t, length).min()
        assert 0.5 < exact < 0.7
        assert pair.distance == pytest.approx(exact, abs=1e-6)


@given(**affine)
@settings(max_examples=4, deadline=None)
@example(kind="walk", seed=10, a=1.0, b=1e8)
def test_streaming_valmod_is_affine_invariant(kind, seed, a, b):
    t = transformed(kind, seed, a, b)
    sv = StreamingValmod(t[:120], 16, 20, p=5, k_discords=2, max_points=160)
    sv.extend(t[120:])
    window = sv.series()
    tol = max(tolerance(window, length) for length in range(16, 21))
    assert max(motif_errors(sv.motifs(), window)) <= tol
    errors, top = discord_errors(sv.discords(), window, range(16, 21))
    assert max(errors) <= tol and top <= tol
    # MAD's admissibility: a maintained bound never falls below the true
    # profile maximum, once inflated by the prune slack.
    for length, bound in sv.discord_bounds().items():
        exact = oracle_profile(window, length).max() / math.sqrt(length)
        assert bound * (1.0 + STREAMING_UB_SLACK) >= exact - tol
