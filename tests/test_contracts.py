"""Tests for the repro.lint.contracts runtime-contract layer.

Contracts are compiled out at decoration time unless ``REPRO_CONTRACTS=1``
(or the ``_enabled`` override is passed).  The tests exercise both modes
explicitly via ``_enabled`` so they are independent of the environment
the suite happens to run under, plus one subprocess test for the env
knob itself.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.exceptions import (
    ContractViolationError,
    InvalidSeriesError,
    ReproError,
    SeriesContractViolationError,
)
from repro.lint.contracts import (
    CONTRACTS_ENV,
    Contract,
    ensure,
    finite_array,
    float64_array,
    instance_of,
    int_at_least,
    no_nan_profile,
    number_in,
    optional,
    positive_int,
    positive_lengths,
    require,
    series_like,
)


class TestPredicates:
    def test_series_like_accepts_finite_1d(self):
        assert series_like()(np.arange(8.0)) is None
        assert series_like()([1.0, 2.0, 3.0]) is None

    def test_series_like_rejects_bad_inputs(self):
        assert series_like()(np.zeros((3, 3))) is not None  # 2-D
        assert series_like(min_length=10)(np.arange(4.0)) is not None
        assert series_like()(np.array([1.0, np.nan])) is not None
        assert series_like()(object()) is not None

    def test_float64_array(self):
        assert float64_array()(np.zeros(3)) is None
        assert float64_array()(np.zeros(3, dtype=np.float32)) is not None
        assert float64_array(ndim=2)(np.zeros(3)) is not None
        assert float64_array()([1.0]) is not None  # not an ndarray

    def test_finite_array(self):
        assert finite_array()(np.ones(4)) is None
        assert finite_array()(np.array([1.0, np.inf])) is not None

    def test_positive_int(self):
        assert positive_int()(3) is None
        assert positive_int()(np.int64(3)) is None
        assert positive_int()(0) is not None
        assert positive_int()(-1) is not None
        assert positive_int()(2.0) is not None
        assert positive_int()(True) is not None  # bools are not lengths

    def test_positive_lengths(self):
        assert positive_lengths()(3) is None
        assert positive_lengths()(np.array([[4], [5]])) is None
        assert positive_lengths()(0) is not None
        assert positive_lengths()(np.array([3, 0])) is not None
        assert positive_lengths()(np.array([3.0])) is not None  # not integers

    def test_int_at_least(self):
        assert int_at_least(0)(0) is None
        assert int_at_least(0)(-1) is not None

    def test_number_in_open_and_closed(self):
        assert number_in(0.0, 1.0)(0.0) is None
        assert number_in(0.0, 1.0, open_low=True)(0.0) is not None
        assert number_in(0.0, 1.0, open_high=True)(1.0) is not None
        assert number_in(0.0, 1.0)(2.0) is not None
        assert number_in(0.0, 1.0)("x") is not None

    def test_instance_of(self):
        assert instance_of(str)("hi") is None
        assert instance_of(str, int)(3) is None
        assert instance_of(str)(3) is not None

    def test_optional_wraps(self):
        pred = optional(positive_int())
        assert pred(None) is None
        assert pred(4) is None
        assert pred(-4) is not None

    def test_no_nan_profile(self):
        class Result:
            profile = np.array([1.0, np.inf])  # inf is fine (anytime runs)

        assert no_nan_profile(Result()) is None
        Result.profile = np.array([1.0, np.nan])
        assert no_nan_profile(Result()) is not None
        assert no_nan_profile(object()) is not None  # no .profile at all


class TestDisabledMode:
    def test_require_disabled_returns_function_unchanged(self):
        def fn(x):
            return x

        assert require(_enabled=False, x=positive_int())(fn) is fn

    def test_ensure_disabled_returns_function_unchanged(self):
        def fn():
            return None

        assert ensure(no_nan_profile, _enabled=False)(fn) is fn

    def test_disabled_contract_never_evaluates(self):
        @require(_enabled=False, x=positive_int())
        def fn(x):
            return x

        assert fn(-5) == -5  # violation passes through silently


class TestEnabledMode:
    def test_valid_arguments_pass_through(self):
        @require(_enabled=True, length=positive_int())
        def fn(series, length):
            return length * 2

        assert fn(None, 4) == 8

    def test_violation_raises_with_parameter_name(self):
        @require(_enabled=True, length=positive_int())
        def fn(series, length):
            return length

        with pytest.raises(ContractViolationError, match="'length'"):
            fn(None, -3)

    def test_violation_names_function(self):
        @require(_enabled=True, x=positive_int())
        def my_entry_point(x):
            return x

        with pytest.raises(ContractViolationError, match="my_entry_point"):
            my_entry_point(0)

    def test_checks_keyword_and_default_arguments(self):
        @require(_enabled=True, stride=optional(positive_int()))
        def fn(series, stride=None):
            return stride

        assert fn(None) is None
        assert fn(None, stride=3) == 3
        with pytest.raises(ContractViolationError):
            fn(None, stride=0)

    def test_ensure_checks_result(self):
        class Bad:
            profile = np.array([np.nan])

        @ensure(no_nan_profile, _enabled=True)
        def fn():
            return Bad()

        with pytest.raises(ContractViolationError, match="result"):
            fn()

    def test_unknown_parameter_name_fails_at_decoration(self):
        with pytest.raises(ContractViolationError, match="unknown parameter"):

            @require(_enabled=True, nope=positive_int())
            def fn(x):
                return x

    def test_contract_error_is_catchable_as_repro_and_type_error(self):
        @require(_enabled=True, x=positive_int())
        def fn(x):
            return x

        with pytest.raises(ReproError):
            fn(-1)
        with pytest.raises(TypeError):
            fn(-1)


class TestErrorClasses:
    def test_series_violation_is_an_invalid_series_error(self):
        # The ordinary validation for a bad series raises
        # InvalidSeriesError; the contract must be catchable the same way.
        @require(_enabled=True, series=series_like())
        def fn(series):
            return series

        with pytest.raises(InvalidSeriesError):
            fn([1.0])
        with pytest.raises(ContractViolationError):
            fn([1.0])

    def test_series_predicates_carry_the_series_error_class(self):
        for factory in (series_like, float64_array, finite_array):
            pred = factory()
            assert isinstance(pred, Contract)
            assert pred.error_class is SeriesContractViolationError

    def test_optional_propagates_the_error_class(self):
        pred = optional(series_like())
        assert isinstance(pred, Contract)
        assert pred.error_class is SeriesContractViolationError
        assert pred(None) is None

    def test_scalar_violation_is_not_a_series_error(self):
        @require(_enabled=True, length=positive_int())
        def fn(length):
            return length

        with pytest.raises(ContractViolationError) as excinfo:
            fn(-3)
        assert not isinstance(excinfo.value, InvalidSeriesError)


class TestEnvironmentKnob:
    @pytest.mark.parametrize("knob,expect_raise", [("1", True), ("", False)])
    def test_env_var_gates_public_api(self, knob, expect_raise):
        # stomp(series, length=-3) violates the positive_int contract on
        # the public API; with contracts off it must fail some other way
        # (the normal validation path), never with ContractViolationError.
        code = (
            "import numpy as np\n"
            "from repro.exceptions import ContractViolationError\n"
            "from repro.matrixprofile.stomp import stomp\n"
            "try:\n"
            "    stomp(np.arange(32.0), -3)\n"
            "except ContractViolationError:\n"
            "    print('CONTRACT')\n"
            "except Exception:\n"
            "    print('OTHER')\n"
        )
        env = dict(os.environ)
        env[CONTRACTS_ENV] = knob
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ("CONTRACT" if expect_raise else "OTHER")
