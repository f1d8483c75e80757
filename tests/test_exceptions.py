"""Tests for the exception hierarchy and the entry points that raise it."""

import numpy as np
import pytest

from repro import (
    StreamingFeatures,
    StreamingValmod,
    Valmod,
    compute_motif_sets,
    extract_features,
    find_discords,
    find_discords_pruned,
    find_motif_sets,
    lower_bound_distance,
    lower_bound_profile,
    tightness_of_lower_bound,
    valmod,
)
from repro.core.compute_mp import compute_matrix_profile
from repro.distance import (
    apply_exclusion_zone,
    mass,
    naive_distance_profile,
    prefix_sums,
    sliding_dot_product,
    znormalize,
)
from repro.exceptions import (
    BudgetExceededError,
    InvalidParameterError,
    InvalidSeriesError,
    NotComputedError,
    ReproError,
)
from repro.kernels import SeriesContext
from repro.matrixprofile import is_trivial_match, register_engine
from repro.matrixprofile.registry import compute_with, engine_names


def test_all_derive_from_repro_error():
    for exc in (
        InvalidSeriesError,
        InvalidParameterError,
        NotComputedError,
        BudgetExceededError,
    ):
        assert issubclass(exc, ReproError)


def test_value_error_compatibility():
    assert issubclass(InvalidSeriesError, ValueError)
    assert issubclass(InvalidParameterError, ValueError)


def test_runtime_error_compatibility():
    assert issubclass(NotComputedError, RuntimeError)
    assert issubclass(BudgetExceededError, RuntimeError)


def test_catchable_as_base():
    with pytest.raises(ReproError):
        raise InvalidParameterError("boom")


# ---------------------------------------------------------------------------
# Entry-point rejection wall: every public entry point rejects a NaN
# series, a zero length, p = 0 and k = 0 with a repro.exceptions type.
# ---------------------------------------------------------------------------

_SERIES = np.random.default_rng(3).standard_normal(200).cumsum()
_NAN_SERIES = _SERIES.copy()
_NAN_SERIES[50] = np.nan

# entry point -> (callable, valid keyword arguments, name of its length)
_ENTRY_POINTS = {
    "valmod": (valmod, dict(l_min=8, l_max=10, p=5), "l_min"),
    "find_discords": (find_discords, dict(l_min=8, l_max=10, k=2), "l_min"),
    "find_discords_pruned": (
        find_discords_pruned, dict(l_min=8, l_max=10, k=2, p=5), "l_min"
    ),
    "compute_matrix_profile": (compute_matrix_profile, dict(length=8, p=5), "length"),
    "StreamingValmod": (
        StreamingValmod, dict(l_min=8, l_max=10, p=5, k_discords=2), "l_min"
    ),
    "extract_features": (
        extract_features, dict(l_min=8, l_max=10, p=5, k_discords=2), "l_min"
    ),
}
for _engine in engine_names():
    _ENTRY_POINTS[f"compute_with[{_engine}]"] = (
        lambda series, length, _name=_engine: compute_with(_name, series, length),
        dict(length=8),
        "length",
    )

# (entry point, argument, bad value, expected type)
_REJECTIONS = []
for _name, (_fn, _kwargs, _length_arg) in _ENTRY_POINTS.items():
    _REJECTIONS.append((_name, "series", _NAN_SERIES, InvalidSeriesError))
    _REJECTIONS.append((_name, _length_arg, 0, InvalidParameterError))
    for _arg in ("p", "k", "k_discords"):
        if _arg in _kwargs:
            _REJECTIONS.append((_name, _arg, 0, InvalidParameterError))


@pytest.mark.parametrize(
    "entry,arg,value,expected",
    _REJECTIONS,
    ids=[f"{entry}-{arg}" for entry, arg, _, _ in _REJECTIONS],
)
def test_entry_point_rejects_invalid_input(entry, arg, value, expected):
    fn, kwargs, _ = _ENTRY_POINTS[entry]
    call = dict(kwargs, series=_SERIES)
    call[arg] = value
    with pytest.raises(expected):
        fn(**call)


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_entry_point_accepts_the_valid_call(name):
    # The wall is only meaningful if the baseline call itself succeeds.
    fn, kwargs, _ = _ENTRY_POINTS[name]
    fn(series=_SERIES, **kwargs)


# Inputs the building blocks check in-function: (id, thunk, expected type).
_BUILDING_BLOCKS = [
    ("znormalize-nan", lambda: znormalize(_NAN_SERIES[40:60]), InvalidSeriesError),
    ("context-min-length", lambda: SeriesContext(_SERIES, min_length=0), InvalidParameterError),
    ("naive-profile-nan", lambda: naive_distance_profile(_NAN_SERIES, 0, 8), InvalidSeriesError),
    ("mass-nan", lambda: mass(_NAN_SERIES, 0, 8), InvalidSeriesError),
    ("exclusion-center", lambda: apply_exclusion_zone(np.zeros(9), -1, 2), InvalidParameterError),
    ("exclusion-width", lambda: apply_exclusion_zone(np.zeros(9), 3, -2), InvalidParameterError),
    ("sliding-query-nan", lambda: sliding_dot_product(_NAN_SERIES[45:55], _SERIES), InvalidSeriesError),
    ("prefix-sums-nan", lambda: prefix_sums(_NAN_SERIES), InvalidSeriesError),
    ("trivial-match", lambda: is_trivial_match(-1, 3, 8), InvalidParameterError),
    ("lb-distance-nan", lambda: lower_bound_distance(_NAN_SERIES, 0, 30, 8, 2), InvalidSeriesError),
    ("lb-distance-start", lambda: lower_bound_distance(_SERIES, -1, 30, 8, 2), InvalidParameterError),
    ("lb-distance-length", lambda: lower_bound_distance(_SERIES, 0, 30, 0, 2), InvalidParameterError),
    ("lb-profile-k", lambda: lower_bound_profile(_SERIES, 0, 8, -1), InvalidParameterError),
    ("tlb-nan", lambda: tightness_of_lower_bound(np.array([np.nan]), np.ones(1)), InvalidParameterError),
    ("valmod-track", lambda: Valmod(_SERIES, 8, 10, p=5, track_top_k=-1), InvalidParameterError),
    ("valmod-n-jobs", lambda: valmod(_SERIES, 8, 10, p=5, n_jobs=2.5), InvalidParameterError),
    ("Valmod-n-jobs", lambda: Valmod(_SERIES, 8, 10, p=5, n_jobs=2.5), InvalidParameterError),
    ("stream-track", lambda: StreamingValmod(_SERIES, 8, 10, p=5, track_top_k=-1), InvalidParameterError),
    ("features-top-k", lambda: StreamingFeatures(_SERIES, 8, 10, top_k=0), InvalidParameterError),
    ("features-set-k", lambda: StreamingFeatures(_SERIES, 8, 10, motif_set_k=0), InvalidParameterError),
    ("motif-sets-k", lambda: find_motif_sets(_SERIES, 8, 10, k=0, p=5), InvalidParameterError),
    ("motif-sets-nan", lambda: compute_motif_sets(_NAN_SERIES, [], 2.0), InvalidSeriesError),
    ("engine-name", lambda: register_engine(3, lambda *a, **k: None), InvalidParameterError),
]


@pytest.mark.parametrize(
    "thunk,expected",
    [case[1:] for case in _BUILDING_BLOCKS],
    ids=[case[0] for case in _BUILDING_BLOCKS],
)
def test_building_block_rejects_invalid_input(thunk, expected):
    with pytest.raises(expected):
        thunk()
