"""Optionally-enabled runtime contracts for the public numerical API.

Static rules catch code shapes; these decorators catch *values*.  Each
public entry point declares parameter and result contracts (shape, dtype,
finiteness, domain).  By default the decorators are free: unless the
environment variable ``REPRO_CONTRACTS`` is ``"1"`` at import time, they
return the function unchanged — zero wrapper, zero overhead.  With
``REPRO_CONTRACTS=1`` every decorated call validates its inputs and
result and raises :class:`repro.exceptions.ContractViolationError` on a
violation (series-shaped predicates raise the
:class:`repro.exceptions.SeriesContractViolationError` subclass, which
is also an :class:`repro.exceptions.InvalidSeriesError`).

Usage::

    @require(series=series_like(min_length=4), length=positive_int())
    @ensure(no_nan_profile)
    def stomp(series, length): ...

Predicates are plain callables returning ``None`` when satisfied or a
human-readable complaint string when not, so they compose and test
trivially.
"""

from __future__ import annotations

import functools
import inspect
import os
from typing import Any, Callable, Optional, Sequence, Tuple, Type, TypeVar, Union

import numpy as np

from repro.exceptions import ContractViolationError, SeriesContractViolationError

__all__ = [
    "CONTRACTS_ENV",
    "Contract",
    "contracts_enabled",
    "require",
    "ensure",
    "series_like",
    "float64_array",
    "finite_array",
    "positive_int",
    "positive_lengths",
    "int_at_least",
    "number_in",
    "instance_of",
    "optional",
    "no_nan_profile",
]

#: environment knob: set to "1" to activate contract checking at import.
CONTRACTS_ENV = "REPRO_CONTRACTS"

#: a predicate returns None when satisfied, else a complaint string.
Predicate = Callable[[Any], Optional[str]]
PredicateSpec = Union[Predicate, Sequence[Predicate]]

F = TypeVar("F", bound=Callable[..., Any])


def contracts_enabled() -> bool:
    """True when the ``REPRO_CONTRACTS`` environment knob is on."""
    return os.environ.get(CONTRACTS_ENV, "") == "1"


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class Contract:
    """A predicate bundled with the error class its violations raise.

    Plain function predicates raise :class:`ContractViolationError`;
    wrapping one in a ``Contract`` lets a domain pick a more specific
    subclass, so ``except`` clauses written against the ordinary
    in-function validation behave identically with contracts on or off.
    """

    def __init__(
        self,
        check: Predicate,
        error_class: Type[ContractViolationError] = ContractViolationError,
    ) -> None:
        self.check = check
        self.error_class = error_class

    def __call__(self, value: Any) -> Optional[str]:
        return self.check(value)


def _error_class(pred: Predicate) -> Type[ContractViolationError]:
    if isinstance(pred, Contract):
        return pred.error_class
    return ContractViolationError


def series_like(min_length: int = 2) -> Predicate:
    """A 1-D finite numeric array-like with at least ``min_length`` points."""

    def check(value: Any) -> Optional[str]:
        try:
            arr = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError):
            return f"not convertible to a float array: {type(value).__name__}"
        if arr.ndim != 1:
            return f"expected a 1-D series, got ndim={arr.ndim}"
        if arr.size < min_length:
            return f"series has {arr.size} points, need at least {min_length}"
        if not np.isfinite(arr).all():
            return "series contains NaN or infinite values"
        return None

    return Contract(check, SeriesContractViolationError)


def float64_array(ndim: Optional[int] = None) -> Predicate:
    """A NumPy array of dtype float64 (optionally of fixed ndim)."""

    def check(value: Any) -> Optional[str]:
        if not isinstance(value, np.ndarray):
            return f"expected an ndarray, got {type(value).__name__}"
        if value.dtype != np.float64:
            return f"expected dtype float64, got {value.dtype}"
        if ndim is not None and value.ndim != ndim:
            return f"expected ndim={ndim}, got {value.ndim}"
        return None

    return Contract(check, SeriesContractViolationError)


def finite_array() -> Predicate:
    """An array-like with no NaN/inf entries."""

    def check(value: Any) -> Optional[str]:
        arr = np.asarray(value, dtype=np.float64)
        if not np.isfinite(arr).all():
            return "array contains NaN or infinite values"
        return None

    return Contract(check, SeriesContractViolationError)


def positive_int() -> Predicate:
    """A positive integer (NumPy integer scalars count)."""

    def check(value: Any) -> Optional[str]:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            return f"expected an int, got {type(value).__name__}"
        if int(value) <= 0:
            return f"expected a positive int, got {int(value)}"
        return None

    return check


def positive_lengths() -> Predicate:
    """A positive int, or an integer array of them (one length per row)."""
    single = positive_int()

    def check(value: Any) -> Optional[str]:
        if not isinstance(value, np.ndarray):
            return single(value)
        if not np.issubdtype(value.dtype, np.integer):
            return f"expected integer lengths, got dtype {value.dtype}"
        if value.size and int(value.min()) <= 0:
            return f"expected positive lengths, got {int(value.min())}"
        return None

    return check


def int_at_least(minimum: int) -> Predicate:
    """An integer no smaller than ``minimum``."""

    def check(value: Any) -> Optional[str]:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            return f"expected an int, got {type(value).__name__}"
        if int(value) < minimum:
            return f"expected an int >= {minimum}, got {int(value)}"
        return None

    return check


def number_in(
    low: float, high: float, open_low: bool = False, open_high: bool = False
) -> Predicate:
    """A real number inside the given (optionally open) interval."""

    def check(value: Any) -> Optional[str]:
        if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)
        ):
            return f"expected a number, got {type(value).__name__}"
        x = float(value)
        lo_ok = x > low if open_low else x >= low
        hi_ok = x < high if open_high else x <= high
        if not (lo_ok and hi_ok):
            lo_b = "(" if open_low else "["
            hi_b = ")" if open_high else "]"
            return f"expected a value in {lo_b}{low}, {high}{hi_b}, got {x}"
        return None

    return check


def instance_of(*types: type) -> Predicate:
    """An instance of any of the given types."""

    def check(value: Any) -> Optional[str]:
        if not isinstance(value, types):
            names = ", ".join(t.__name__ for t in types)
            return f"expected {names}, got {type(value).__name__}"
        return None

    return check


def optional(spec: PredicateSpec) -> Predicate:
    """Accept ``None``, otherwise delegate to the wrapped predicate(s)."""
    preds = _as_predicates(spec)

    def check(value: Any) -> Optional[str]:
        if value is None:
            return None
        for pred in preds:
            msg = pred(value)
            if msg is not None:
                return msg
        return None

    classes = {_error_class(pred) for pred in preds}
    if len(classes) == 1:
        return Contract(check, classes.pop())
    return check


def no_nan_profile(result: Any) -> Optional[str]:
    """Result contract: a MatrixProfile-like result must never contain NaN.

    ``inf`` is legitimate (untouched entries of anytime runs); NaN always
    means a kernel invariant was violated upstream.
    """
    profile = getattr(result, "profile", None)
    if profile is None:
        return "result has no 'profile' attribute"
    if bool(np.isnan(np.asarray(profile)).any()):
        return "profile contains NaN entries"
    return None


# ---------------------------------------------------------------------------
# Decorators
# ---------------------------------------------------------------------------


def _as_predicates(spec: PredicateSpec) -> Tuple[Predicate, ...]:
    if callable(spec):
        return (spec,)
    return tuple(spec)


def require(
    _enabled: Optional[bool] = None, **param_specs: PredicateSpec
) -> Callable[[F], F]:
    """Validate named parameters on call when contracts are enabled.

    ``_enabled`` overrides the environment knob (used by the tests); the
    default consults ``REPRO_CONTRACTS`` once, at decoration time, so a
    disabled contract costs nothing at call time.
    """
    enabled = contracts_enabled() if _enabled is None else _enabled

    def decorate(fn: F) -> F:
        if not enabled:
            return fn
        sig = inspect.signature(fn)
        for name in param_specs:
            if name not in sig.parameters:
                raise ContractViolationError(
                    f"{fn.__qualname__}: contract names unknown parameter {name!r}"
                )
        specs = {name: _as_predicates(s) for name, s in param_specs.items()}

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            for name, preds in specs.items():
                value = bound.arguments.get(name)
                for pred in preds:
                    msg = pred(value)
                    if msg is not None:
                        raise _error_class(pred)(
                            f"contract violated in {fn.__qualname__}(): "
                            f"parameter {name!r}: {msg}"
                        )
            return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


def ensure(
    spec: PredicateSpec, _enabled: Optional[bool] = None
) -> Callable[[F], F]:
    """Validate the return value when contracts are enabled."""
    enabled = contracts_enabled() if _enabled is None else _enabled
    preds = _as_predicates(spec)

    def decorate(fn: F) -> F:
        if not enabled:
            return fn

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            for pred in preds:
                msg = pred(result)
                if msg is not None:
                    raise _error_class(pred)(
                        f"contract violated in {fn.__qualname__}(): result: {msg}"
                    )
            return result

        return wrapper  # type: ignore[return-value]

    return decorate
