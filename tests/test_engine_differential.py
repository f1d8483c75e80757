"""Differential harness: every registered engine against the brute oracle.

One parameterized sweep proves all engines agree on the same fixtures:
profile values within 1e-8 of ``brute``, and neighbor indices that agree
up to tie-breaking (the reported neighbor must realize the reported
distance).
"""

import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro import obs
from repro.core.compute_mp import compute_matrix_profile
from repro.distance.znorm import znormalized_distance
from repro.exceptions import InvalidParameterError
from repro.matrixprofile.brute import brute_force_matrix_profile
from repro.matrixprofile.registry import compute_with, engine_names, get_engine

ATOL = 1e-8


def _random_walk():
    rng = np.random.default_rng(42)
    return rng.standard_normal(500).cumsum(), 32


def _odd_length():
    # Every other fixture has an even length; at an odd length
    # ``ceil(l / 2)`` and ``l // 2`` disagree, so this one checks each
    # engine's exclusion zone against the oracle.
    rng = np.random.default_rng(42)
    return rng.standard_normal(500).cumsum(), 33


def _planted_motif():
    rng = np.random.default_rng(7)
    series = rng.standard_normal(500) * 0.3
    pattern = np.sin(np.linspace(0.0, 4.0 * np.pi, 40))
    series[70:110] += pattern * 3.0
    series[300:340] += pattern * 3.0
    return series, 24


def _constant_segment():
    rng = np.random.default_rng(13)
    series = rng.standard_normal(400).cumsum()
    series[150:210] = series[150]
    return series, 20


def _short_series():
    rng = np.random.default_rng(5)
    return rng.standard_normal(20), 10


FIXTURES = {
    "random-walk": _random_walk,
    "odd-length": _odd_length,
    "planted-motif": _planted_motif,
    "constant-segment": _constant_segment,
    "short": _short_series,
}


@pytest.fixture(scope="module")
def oracles():
    """Brute-force profiles of every fixture, computed once."""
    cache = {}
    for name, make in FIXTURES.items():
        series, length = make()
        cache[name] = (series, length, brute_force_matrix_profile(series, length))
    return cache


def _check_indices_realize_distances(series, length, mp, reference, atol):
    """Indices may differ from brute only where distances tie.

    The engine's reported neighbor must reproduce the engine's reported
    distance (and hence the oracle's, already checked) when the pair is
    re-measured from scratch.
    """
    for i, j in enumerate(mp.index):
        if j < 0:
            assert not np.isfinite(mp.profile[i])
            continue
        d = znormalized_distance(
            series[i : i + length], series[j : j + length]
        )
        assert d == pytest.approx(float(reference.profile[i]), abs=atol), (
            f"index {j} of position {i} does not realize the oracle distance"
        )


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("engine", sorted(engine_names()))
def test_engine_matches_brute(engine, fixture, oracles):
    series, length, reference = oracles[fixture]
    mp = compute_with(engine, series, length)
    finite = np.isfinite(reference.profile)
    assert np.array_equal(np.isfinite(mp.profile), finite)
    np.testing.assert_allclose(
        mp.profile[finite],
        reference.profile[finite],
        atol=ATOL,
        rtol=0.0,
        err_msg=f"{engine} diverges from brute on {fixture}",
    )
    _check_indices_realize_distances(series, length, mp, reference, 1e-6)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("engine", sorted(engine_names()))
def test_tracing_does_not_change_results(engine, fixture, oracles):
    """Observability is read-only: traced output is bitwise untraced."""
    series, length, _ = oracles[fixture]
    with obs.tracing(False):
        plain = compute_with(engine, series, length)
    with obs.tracing(True):
        obs.reset()
        traced = compute_with(engine, series, length)
        recorded = obs.snapshot()["counters"]
    obs.reset()
    np.testing.assert_array_equal(
        traced.profile, plain.profile,
        err_msg=f"{engine} profile changed under tracing on {fixture}",
    )
    np.testing.assert_array_equal(traced.index, plain.index)
    if engine != "brute":  # brute is deliberately uninstrumented
        assert recorded, f"{engine} recorded no counters while traced"


def test_tracing_does_not_change_parallel_workers(oracles):
    """Algorithm 3's row-block workers return untraced bits when traced."""
    series, length, _ = oracles["random-walk"]
    serial, _ = compute_matrix_profile(series, length, 8)
    with obs.tracing(True):
        obs.reset()
        mp, _ = compute_matrix_profile(series, length, 8, n_jobs=2)
        pids = obs.snapshot()["pids"]
    obs.reset()
    obs.disable()
    np.testing.assert_array_equal(mp.profile, serial.profile)
    np.testing.assert_array_equal(mp.index, serial.index)
    assert len(pids) >= 2, "worker snapshots were not merged"


def test_repro_trace_env_does_not_change_results(tmp_path):
    """REPRO_TRACE=1 in a fresh process leaves the profile bitwise equal."""
    script = (
        "import numpy as np\n"
        "from repro.matrixprofile.stomp import stomp\n"
        "rng = np.random.default_rng(11)\n"
        "series = rng.standard_normal(300).cumsum()\n"
        "mp = stomp(series, 20)\n"
        "np.save(r'{out}', np.vstack([mp.profile, mp.index.astype(float)]))\n"
    )
    results = {}
    for label, env_value in (("off", "0"), ("on", "1")):
        out = tmp_path / f"{label}.npy"
        code = subprocess.run(
            [sys.executable, "-c", script.format(out=out)],
            env={
                "PYTHONPATH": str(
                    pathlib.Path(__file__).resolve().parent.parent / "src"
                ),
                "PATH": "/usr/bin:/bin",
                "REPRO_TRACE": env_value,
            },
            capture_output=True,
            text=True,
        )
        assert code.returncode == 0, code.stderr
        results[label] = np.load(out)
    np.testing.assert_array_equal(results["on"], results["off"])


def test_registry_lists_all_engines():
    assert engine_names() == ("stomp", "stamp", "scrimp", "brute", "blocked-stomp")


def test_registry_rejects_unknown_engine():
    with pytest.raises(InvalidParameterError, match="blocked-stomp"):
        get_engine("no-such-engine")
