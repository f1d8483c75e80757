"""Public-API contract: everything advertised is importable and sane.

These tests protect the packaging surface: ``repro.__all__`` names must
resolve, the subpackage ``__all__`` lists must be consistent, and the
headline one-liners from the README must work verbatim.
"""

import importlib
import pathlib
import re

import numpy as np
import pytest

import repro

SUBPACKAGES = [
    "repro.distance",
    "repro.matrixprofile",
    "repro.core",
    "repro.features",
    "repro.kernels",
    "repro.baselines",
    "repro.datasets",
    "repro.analysis",
    "repro.harness",
    "repro.shapelets",
    "repro.multidim",
    "repro.multiseries",
    "repro.io",
    "repro.viz",
    "repro.cli",
    "repro.types",
    "repro.exceptions",
]


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ advertises missing {name!r}"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_all_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), (
            f"{module_name}.__all__ advertises missing {name!r}"
        )


def test_version_present():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_version_matches_pyproject():
    # A regex, not tomllib: the package still supports Python 3.10.
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    match = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.MULTILINE)
    assert match is not None, "pyproject.toml has no [project] version"
    assert match.group(1) == repro.__version__


def test_readme_quickstart_verbatim():
    rng = np.random.default_rng(7)
    series = rng.standard_normal(2000)
    result = repro.valmod(series, l_min=64, l_max=70)
    best = result.best_motif_pair()
    assert 64 <= best.length <= 70
    sets = repro.find_motif_sets(series, 64, 70, k=3, radius_factor=3.0)
    assert isinstance(sets, list)


def test_docstrings_on_public_callables():
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj) and not isinstance(obj, type(repro)):
            assert obj.__doc__, f"public callable {name} lacks a docstring"


def test_exceptions_exported_consistently():
    assert repro.InvalidParameterError is repro.exceptions.InvalidParameterError
    assert issubclass(repro.InvalidSeriesError, repro.ReproError)


def test_features_facade_exported_at_top_level():
    # The façade symbols the ISSUE-7 refactor added to the surface.
    for name in (
        "SeriesFeatures",
        "AnnotationSummary",
        "FeatureStore",
        "extract_features",
        "extract_features_batch",
        "feature_cache_key",
    ):
        assert name in repro.__all__, name
        assert getattr(repro, name) is getattr(repro.features, name)


def test_features_subpackage_surface_pinned():
    # The exact public surface of repro.features: additions require a
    # deliberate edit here, removals break downstream imports loudly.
    assert sorted(repro.features.__all__) == [
        "AnnotationSummary",
        "DEFAULT_INCLUDE",
        "DEFAULT_MAX_ENTRIES",
        "DEFAULT_P",
        "FeatureStore",
        "INCLUDE_OPTIONS",
        "STORE_ENV",
        "STORE_SCHEMA_VERSION",
        "SeriesFeatures",
        "StreamingFeatures",
        "extract_features",
        "extract_features_batch",
        "feature_cache_key",
        "features_from_dict",
        "features_to_dict",
        "motif_set_summary",
        "resolve_store",
        "save_features_json",
    ]


def test_readme_features_quickstart_verbatim():
    rng = np.random.default_rng(7)
    series = rng.standard_normal(1500)
    features = repro.extract_features(series, l_min=24, l_max=28, p=10)
    assert 24 <= features.best_motif.length <= 28
    assert set(features.pairs_by_length()) == set(range(24, 29))
    assert len(features.motif_set_counts) == len(features.motif_sets)
    assert features.discords and features.discord_distance is not None


def test_engine_default_is_default_engine_everywhere():
    # One source of truth: a literal default in any one place would split
    # the defaults the moment DEFAULT_ENGINE moves.
    import argparse
    import inspect

    from repro.cli import build_parser
    from repro.matrixprofile.registry import DEFAULT_ENGINE

    for fn in (
        repro.find_discords,
        repro.find_discords_pruned,
        repro.StreamingValmod,
        repro.StreamingFeatures,
        repro.extract_features,
    ):
        default = inspect.signature(fn).parameters["engine"].default
        assert default == DEFAULT_ENGINE, fn.__name__

    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    with_engine = set()
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            if action.dest == "engine":
                assert action.default == DEFAULT_ENGINE, command
                with_engine.add(command)
    assert {"discords", "features", "profile", "stream"} <= with_engine
