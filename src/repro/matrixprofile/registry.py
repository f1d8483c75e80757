"""Engine registry: one place that maps engine names to implementations.

Every consumer that lets a caller pick a matrix-profile engine — the CLI,
the harness runner, the discord scanner — goes through this registry, so
adding an engine is one :func:`register_engine` call and every entry
point picks it up.

Every engine is serial and takes an optional shared
:class:`~repro.kernels.SeriesContext` (stats + FFT cache); engines that
cannot use it ignore it, so passing a context is always safe and never
changes a result bit.  ``docs/ENGINES.md`` gives each engine's reason to
exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.types import FloatArray

from repro.exceptions import InvalidParameterError
from repro.kernels.blocked import blocked_stomp
from repro.kernels.context import SeriesContext
from repro.matrixprofile.brute import brute_force_matrix_profile
from repro.matrixprofile.index import MatrixProfile
from repro.matrixprofile.scrimp import scrimp
from repro.matrixprofile.stamp import stamp
from repro.matrixprofile.stomp import stomp

__all__ = [
    "EngineSpec",
    "register_engine",
    "get_engine",
    "engine_names",
    "compute_with",
    "DEFAULT_ENGINE",
]

DEFAULT_ENGINE = "blocked-stomp"

ComputeFn = Callable[[FloatArray, int, Optional[SeriesContext]], MatrixProfile]


@dataclass(frozen=True)
class EngineSpec:
    """A registered matrix-profile engine.

    ``compute`` takes ``(series, length, context)`` and returns a
    :class:`MatrixProfile`; ``context`` is a shared
    :class:`SeriesContext` or ``None``, and results are identical either
    way.
    """

    name: str
    compute: ComputeFn
    description: str


_REGISTRY: Dict[str, EngineSpec] = {}


def register_engine(
    name: str, compute: ComputeFn, description: str = ""
) -> EngineSpec:
    """Register (or replace) an engine under ``name``."""
    if not isinstance(name, str) or not name:
        raise InvalidParameterError(f"engine name must be a non-empty str, got {name!r}")
    spec = EngineSpec(name=name, compute=compute, description=description)
    _REGISTRY[name] = spec
    return spec


def engine_names() -> Tuple[str, ...]:
    """Registered engine names, in registration order."""
    return tuple(_REGISTRY)


def get_engine(name: str) -> EngineSpec:
    """Look up an engine; raises with the valid choices on a miss."""
    spec = _REGISTRY.get(name)
    if spec is None:
        choices = ", ".join(sorted(_REGISTRY))
        raise InvalidParameterError(
            f"unknown engine {name!r}; choose one of: {choices}"
        )
    return spec


def compute_with(
    name: str,
    series: FloatArray,
    length: int,
    context: Optional[SeriesContext] = None,
) -> MatrixProfile:
    """Compute a matrix profile with the engine registered under ``name``.

    ``context`` optionally carries a shared :class:`SeriesContext`;
    context-aware engines reuse its cached statistics and series FFT,
    other engines silently ignore it (results are identical either way).
    """
    return get_engine(name).compute(series, length, context)


register_engine(
    "stomp",
    lambda series, length, context: stomp(series, length, context=context),
    description="serial O(n^2) rolling-dot-product engine (the paper's baseline)",
)
register_engine(
    "stamp",
    lambda series, length, context: stamp(series, length, context=context),
    description="MASS-per-row anytime engine",
)
register_engine(
    "scrimp",
    lambda series, length, context: scrimp(series, length, context=context),
    description="diagonal-order anytime engine",
)
register_engine(
    "brute",
    lambda series, length, context: brute_force_matrix_profile(series, length),
    description="O(n^2 l) reference oracle",
)
register_engine(
    "blocked-stomp",
    lambda series, length, context: blocked_stomp(series, length, context=context),
    description=(
        "blocked STOMP kernel: GEMM over z-normalised windows up to 64 points, "
        "the shared co-moment recurrence above (default, fastest exact engine)"
    ),
)
