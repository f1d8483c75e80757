"""R008: series statistics and FFTs flow through SeriesContext.

The stats/FFT cache (:class:`repro.kernels.SeriesContext`) only pays off
when every consumer goes through it: one stray ``moving_mean_std`` call
recomputes an O(n) pass the cache already holds, and one stray
``np.fft.*`` call plans a transform the cached series spectrum already
answered.  Only the layers that *implement* the primitives — the
``distance`` package and the ``kernels`` package — may touch them
directly; everyone else asks a context (``ctx.moving_mean_std(length)``,
``ctx.sliding_dot_product(query)``) or calls a context-accepting wrapper
such as :func:`repro.distance.mass.mass_with_stats`.

Flagged outside the distance/kernels layer:

* any import of ``numpy.fft`` and any ``<numpy alias>.fft`` attribute use;
* calls to ``moving_mean_std`` — whether imported bare, aliased, or
  reached through a module alias (``sliding.moving_mean_std``).

Method calls on a context object (``ctx.moving_mean_std(...)``) are the
endorsed idiom and are not flagged.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set

from repro.lint.base import Diagnostic, FileContext, Rule, call_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph import ProjectContext

#: packages allowed to use the raw primitives (they implement them).
_ALLOWED_PARTS = frozenset({"distance", "kernels"})

#: the modules whose ``moving_mean_std`` is the raw recomputation.
_STATS_MODULES = frozenset({"repro.distance.sliding", "repro.distance"})

#: the fix a raw stats call is pointed at.
_RAW_STATS_MESSAGE = (
    "raw moving_mean_std call outside the distance/kernels layer; use "
    "SeriesContext.ensure(series, context).moving_mean_std(length) so the "
    "stats cache is shared"
)


def _collect_bindings(tree: ast.AST):
    """Names bound to numpy, to stats modules, and to moving_mean_std."""
    numpy_aliases: Set[str] = set()
    stats_module_aliases: Set[str] = set()
    stats_names: Set[str] = set()
    fft_imports: List[ast.stmt] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name == "numpy":
                    numpy_aliases.add(bound)
                elif alias.name.startswith("numpy.fft"):
                    fft_imports.append(node)
                elif alias.name in _STATS_MODULES:
                    if alias.asname is not None:
                        stats_module_aliases.add(alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "fft":
                        fft_imports.append(node)
            elif node.module.startswith("numpy.fft"):
                fft_imports.append(node)
            elif node.module in _STATS_MODULES or node.module == "repro":
                for alias in node.names:
                    if alias.name == "moving_mean_std":
                        stats_names.add(alias.asname or alias.name)
                    elif alias.name == "sliding":
                        stats_module_aliases.add(alias.asname or alias.name)
    return numpy_aliases, stats_module_aliases, stats_names, fft_imports


class ContextStatsRule(Rule):
    rule_id = "R008"
    name = "context-stats"
    summary = (
        "np.fft.* and raw moving_mean_std stay in the distance/kernels "
        "layer; everyone else goes through SeriesContext"
    )
    rationale = (
        "a stray moving_mean_std or np.fft call silently recomputes work "
        "the shared SeriesContext cache already holds, eroding the one-"
        "stats-pass-per-length / one-FFT-per-series guarantee the sweep "
        "counters assert"
    )

    def applies(self, ctx: FileContext) -> bool:
        return not any(part in _ALLOWED_PARTS for part in ctx.module_parts)

    def check(
        self, ctx: FileContext, project: Optional["ProjectContext"] = None
    ) -> Iterator[Diagnostic]:
        numpy_aliases, stats_modules, stats_names, fft_imports = _collect_bindings(
            ctx.tree
        )
        flagged: Dict[int, bool] = {}

        def emit(node: ast.AST, message: str) -> Iterator[Diagnostic]:
            line = getattr(node, "lineno", 0)
            if not flagged.get(line):
                flagged[line] = True
                yield self.diag(ctx, node, message)

        for node in fft_imports:
            yield from emit(
                node,
                "numpy.fft imported outside the distance/kernels layer; "
                "use SeriesContext.sliding_dot_product (cached spectrum)",
            )
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "fft"
                and isinstance(node.value, ast.Name)
                and node.value.id in numpy_aliases
            ):
                yield from emit(
                    node,
                    f"direct {node.value.id}.fft use outside the "
                    "distance/kernels layer; go through SeriesContext",
                )
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name in stats_names:
                    yield from emit(node, _RAW_STATS_MESSAGE)
                elif "." in name:
                    base, last = name.rsplit(".", 1)
                    if last == "moving_mean_std" and base in stats_modules:
                        yield from emit(node, _RAW_STATS_MESSAGE)
