"""R010: every observability name is declared in the central registry.

The obs counter/gauge/span names are load-bearing strings: the derived
metrics in :mod:`repro.obs.report` compute paper figures from them
(Fig. 9 pruning power is ``submp.profiles.valid / submp.profiles.total``),
and a typo at an emission site silently zeroes a figure instead of
raising.  :mod:`repro.obs.registry` is the single source of truth; this
rule checks both directions across the whole project:

* an ``obs.add``/``obs.gauge``/``obs.span`` call whose name (literal or
  f-string template) is not declared in the registry table of the same
  kind is a violation at the emission site;
* a registry entry whose name is never emitted anywhere is a violation
  at the declaration line — dead declarations hide exactly the typos
  this rule exists to catch.  This direction only runs when the whole
  ``repro`` package is being linted (partial invocations cannot prove
  absence).

When the registry module itself is not part of the lint input (single
files, fixture trees), the installed :mod:`repro.obs.registry` supplies
the declared-name tables so the emission-side check still works.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Set

from repro.lint.base import Diagnostic, Rule
from repro.obs.registry import normalize_template

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph import ProjectContext

#: dotted module holding the declaration tables.
_REGISTRY_MODULE = "repro.obs.registry"

#: emission kind -> the registry table that must declare it.
_KIND_TABLE = {"counter": "COUNTERS", "gauge": "GAUGES", "span": "SPANS"}


def _runtime_tables() -> Dict[str, Dict[str, int]]:
    """Declared names from the installed registry (no source in project)."""
    from repro.obs import registry

    return {
        "counter": {name: 0 for name in registry.COUNTERS},
        "gauge": {name: 0 for name in registry.GAUGES},
        "span": {name: 0 for name in registry.SPANS},
    }


class ObsRegistryRule(Rule):
    rule_id = "R010"
    name = "obs-name-registry"
    summary = (
        "every emitted counter/gauge/span name is declared in "
        "repro.obs.registry, and every declared name is emitted"
    )
    rationale = (
        "derived metrics and paper figures are computed from counter names; "
        "a typo at an emission site silently zeroes a figure instead of "
        "raising, so both unknown emissions and dead declarations must fail "
        "the lint"
    )
    phase = "project"

    def check_project(self, project: "ProjectContext") -> Iterator[Diagnostic]:
        declarations = project.registry_declarations
        registry_ctx = project.module(_REGISTRY_MODULE)
        if registry_ctx is not None and declarations is None:
            yield self.diag_at(
                registry_ctx,
                1,
                1,
                "registry module defines no literal COUNTERS/GAUGES/SPANS "
                "tables; R010 cannot check emission names against it",
            )
            return
        if declarations is not None:
            raw_tables = {
                kind: declarations.of_kind(kind) for kind in _KIND_TABLE
            }
        else:
            raw_tables = _runtime_tables()
        tables: Dict[str, Set[str]] = {
            kind: {normalize_template(name) for name in table}
            for kind, table in raw_tables.items()
        }

        emitted: Dict[str, Set[str]] = {kind: set() for kind in _KIND_TABLE}
        for emission in project.obs_emissions:
            if emission.name is None:
                yield self.diag(
                    emission.ctx,
                    emission.node,
                    f"obs {emission.kind} name is not a string literal or "
                    "f-string; R010 cannot check it against the registry — "
                    "emit a literal (or f-string template) name declared in "
                    "repro.obs.registry",
                )
                continue
            normalized = normalize_template(emission.name)
            emitted[emission.kind].add(normalized)
            if normalized not in tables[emission.kind]:
                yield self.diag(
                    emission.ctx,
                    emission.node,
                    f"{emission.kind} name {emission.name!r} is not declared "
                    f"in repro.obs.registry ({_KIND_TABLE[emission.kind]})",
                )

        if declarations is None or not project.is_whole_package:
            return
        for kind in _KIND_TABLE:
            for name, line in sorted(raw_tables[kind].items()):
                if normalize_template(name) not in emitted[kind]:
                    yield self.diag_at(
                        declarations.ctx,
                        line,
                        1,
                        f"{kind} {name!r} is declared in the registry but "
                        "never emitted anywhere in the project",
                    )
