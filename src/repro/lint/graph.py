"""Whole-project analysis context for :mod:`repro.lint`.

The per-file rules see one :class:`~repro.lint.base.FileContext` at a
time; the cross-file rule (R010 obs-name-registry) needs the *project*:
every parsed file, a module table keyed by dotted name, and the
observability emission sites.  :class:`ProjectContext` parses the
input set once and exposes those views; rules receive it alongside the
file context.

A "project" is simply the set of files handed to one lint invocation —
linting a single file builds a one-file project, so every rule runs
under the same API regardless of scope.  Rules that only make sense on
a whole tree (R010's declared-but-never-emitted direction) gate on
:attr:`ProjectContext.is_whole_package`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.lint.base import FileContext, call_name

__all__ = [
    "ObsEmission",
    "ProjectContext",
    "RegistryDeclarations",
    "collect_obs_emissions",
    "parse_registry_declarations",
]

#: dotted call targets that record an observability name, by kind.
_OBS_EMITTERS: Dict[str, str] = {
    "obs.add": "counter",
    "obs.gauge": "gauge",
    "obs.span": "span",
    "tracer.add": "counter",
    "tracer.gauge": "gauge",
    "tracer.span": "span",
}

#: registry module dict names, by kind (see repro/obs/registry.py).
_REGISTRY_TABLES: Dict[str, str] = {
    "COUNTERS": "counter",
    "GAUGES": "gauge",
    "SPANS": "span",
}


@dataclass(frozen=True)
class ObsEmission:
    """One ``obs.add``/``obs.gauge``/``obs.span`` call site.

    ``name`` is the literal string, or the normalized template
    (``submp.profiles.valid.l{}``) for an f-string argument; it is None
    when the argument is not statically readable (a variable), which
    R010 reports as its own violation.
    """

    kind: str
    name: Optional[str]
    is_template: bool
    node: ast.Call
    ctx: FileContext


def _fstring_template(node: ast.JoinedStr) -> Optional[str]:
    """Normalized ``{}`` template of an f-string, or None if malformed."""
    parts: List[str] = []
    for value in node.values:
        if isinstance(value, ast.Constant):
            if not isinstance(value.value, str):
                return None
            parts.append(value.value)
        else:
            parts.append("{}")
    return "".join(parts)


def collect_obs_emissions(ctx: FileContext) -> List[ObsEmission]:
    """Every observability emission call site in one file."""
    emissions: List[ObsEmission] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        kind = _OBS_EMITTERS.get(call_name(node))
        if kind is None or not node.args:
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            emissions.append(
                ObsEmission(
                    kind=kind, name=arg.value, is_template=False, node=node, ctx=ctx
                )
            )
        elif isinstance(arg, ast.JoinedStr):
            emissions.append(
                ObsEmission(
                    kind=kind,
                    name=_fstring_template(arg),
                    is_template=True,
                    node=node,
                    ctx=ctx,
                )
            )
        else:
            emissions.append(
                ObsEmission(kind=kind, name=None, is_template=False, node=node, ctx=ctx)
            )
    return emissions


@dataclass(frozen=True)
class RegistryDeclarations:
    """The statically parsed contents of ``repro/obs/registry.py``.

    ``names`` maps kind -> declared name -> declaration line number.
    """

    names: Dict[str, Dict[str, int]]
    ctx: FileContext

    def of_kind(self, kind: str) -> Dict[str, int]:
        return self.names.get(kind, {})


def parse_registry_declarations(
    ctx: FileContext,
) -> Optional[RegistryDeclarations]:
    """Extract COUNTERS/GAUGES/SPANS declarations from the registry module.

    Returns None when the file does not define the expected literal
    tables (R010 then reports the registry as unreadable).
    """
    names: Dict[str, Dict[str, int]] = {}
    for stmt in ctx.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            kind = _REGISTRY_TABLES.get(target.id)
            if kind is None or not isinstance(value, ast.Dict):
                continue
            table: Dict[str, int] = {}
            for key in value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    table[key.value] = key.lineno
            names[kind] = table
    if not names:
        return None
    return RegistryDeclarations(names=names, ctx=ctx)


class ProjectContext:
    """Every file of one lint invocation, parsed once, with derived views."""

    def __init__(self, files: List[FileContext]) -> None:
        self.files = list(files)
        self.by_module: Dict[str, FileContext] = {}
        self.by_display: Dict[str, FileContext] = {}
        for ctx in self.files:
            self.by_module.setdefault(ctx.module_name, ctx)
            self.by_display[ctx.display_path] = ctx
        #: rule ids active in the current run (set by the runner before
        #: post-phase rules execute; R011 consults it).
        self.active_rule_ids: Set[str] = set()
        #: the full known rule-id universe (for unknown-id pragma checks).
        self.known_rule_ids: Set[str] = set()
        self._emissions: Optional[List[ObsEmission]] = None
        self._registry: Optional[RegistryDeclarations] = None
        self._registry_resolved = False

    # -- module table --------------------------------------------------

    def module(self, dotted: str) -> Optional[FileContext]:
        """The file defining module ``dotted``, if it is in the project."""
        return self.by_module.get(dotted)

    @property
    def is_whole_package(self) -> bool:
        """True when the ``repro`` package root is part of the project.

        The heuristic that separates "lint the tree" invocations (where
        global completeness checks are meaningful) from partial ones
        (single files, fixture directories).
        """
        return "repro" in self.by_module

    # -- observability -------------------------------------------------

    @property
    def obs_emissions(self) -> List[ObsEmission]:
        """All emission call sites across the project, in file order."""
        if self._emissions is None:
            emissions: List[ObsEmission] = []
            for ctx in self.files:
                if ctx.skip_file:
                    continue
                emissions.extend(collect_obs_emissions(ctx))
            self._emissions = emissions
        return self._emissions

    @property
    def registry_declarations(self) -> Optional[RegistryDeclarations]:
        """Parsed registry tables when the registry module is in the project."""
        if not self._registry_resolved:
            self._registry_resolved = True
            ctx = self.module("repro.obs.registry")
            if ctx is not None:
                self._registry = parse_registry_declarations(ctx)
        return self._registry
