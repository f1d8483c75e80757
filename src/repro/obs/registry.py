"""Central catalog of observability names — the single source of truth.

Every counter, gauge, and span name the package emits at runtime is
declared here, next to a one-line description.  The names are
load-bearing: derived metrics (:mod:`repro.obs.report`), the Fig. 9
pruning-power proof, and the documentation tables all key off these
exact strings, so a typo at an emission site silently breaks a
published quantity instead of raising.  Lint rule R010 closes that
hole by checking, project-wide, that

* every name passed to ``obs.add`` / ``obs.gauge`` / ``obs.span``
  anywhere in ``src/`` is declared below (unknown names are reported
  at the emission site), and
* every declaration below is emitted somewhere (dead declarations are
  reported here), so the catalog cannot drift from the code.

Dynamic per-length families are declared as *templates* with
``{placeholder}`` segments (``submp.profiles.valid.l{length}``); a
placeholder matches one dot-free segment fragment, and an f-string
emission site matches a template structurally.  Because the rule is
static, the registry must stay statically readable: the three dicts
below hold only literal strings.

Like the rest of :mod:`repro.obs`, this module imports only the
standard library and :mod:`repro.exceptions` (lint rule R007).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import InvalidParameterError

__all__ = [
    "COUNTERS",
    "GAUGES",
    "SPANS",
    "all_names",
    "declared",
    "describe",
    "format_catalog",
    "is_declared",
    "normalize_template",
    "undeclared",
]

#: Monotonic counters, by exact name or ``{placeholder}`` template.
COUNTERS: Dict[str, str] = {
    # engines (shared across stomp/stamp/scrimp/blocked)
    "engine.rows": "profile rows an engine processed",
    "engine.cells": "distance cells an engine contributed (exclusion-adjusted)",
    # the co-moment recurrence (the shared producer comoment_rows, behind
    # stomp, blocked_stomp and Algorithm 3, and the streaming window)
    "comoment.reanchors": "co-moment rows recomputed exactly by the drift rule",
    # stamp / scrimp
    "stamp.mass_rows": "rows computed via full MASS calls",
    "scrimp.diagonals": "diagonals visited by the SCRIMP schedule",
    # blocked kernel
    "kernel.blocks": "GEMM row blocks processed by blocked_stomp (l <= DIRECT_DOT_MAX)",
    "kernel.gemm_rows": "rows blocked_stomp scored by GEMM over z-normalised windows",
    "kernel.gemm_cells": "l*corr cells blocked_stomp's GEMMs computed (upper triangle, sum of b*(n - r0))",
    # series-context caches
    "stats.cache.hits": "moving mean/std lookups served from the context cache",
    "stats.cache.misses": "moving mean/std lookups computed fresh",
    "fft.plan.build": "series rffts computed for a new plan size",
    "fft.plan.reuse": "sliding dot products that reused a cached series rfft",
    # MASS / distance layer
    "mass.profile_calls": "distance-profile evaluations via MASS",
    "mass.fft_calls": "sliding dot products computed through the FFT path",
    "mass.direct_dot_calls": "sliding dot products computed by direct correlation",
    # compute_mp
    "compute_mp.rows": "rows processed by the row-blocked reference driver",
    # listDP store (VALMOD partial profiles)
    "listdp.rows_filled": "listDP rows populated with best-entry lists",
    "listdp.entries_stored": "listDP entries stored across all rows",
    "listdp.entries_advanced": "listDP entries advanced to the next length",
    "listdp.lookups": "listDP slots consulted during a sub-MP update",
    "listdp.hits": "listDP slots whose stored entry stayed valid",
    "listdp.misses": "listDP slots whose stored entry had to be discarded",
    # compute_submp (Fig. 9 pruning power = valid / total)
    "submp.profiles.total": "distance profiles considered at a new length",
    "submp.profiles.total.l{length}": "per-length split of submp.profiles.total",
    "submp.profiles.valid": "profiles whose minimum the listDP entries certified",
    "submp.profiles.valid.l{length}": "per-length split of submp.profiles.valid",
    "submp.profiles.invalid": "profiles the listDP entries could not certify",
    "submp.profiles.invalid.l{length}": "per-length split of submp.profiles.invalid",
    "submp.profiles.recomputed": "profiles recomputed exactly after certification failed",
    "submp.profiles.recomputed.l{length}": "per-length split of submp.profiles.recomputed",
    # valmod driver
    "valmod.lengths.initial": "lengths solved by the initial full profile",
    "valmod.lengths.{mode}": "lengths resolved per update mode (lb-pruned/recomputed/...)",
    "valmod.lengths.full-recompute": "lengths that fell back to a full recompute",
    # variable-length discords (MAD pruning power = pruned / swept)
    "discords.lengths.swept": "lengths scanned by the pruned discord driver",
    "discords.profiles.pruned": "full profiles the upper bounds proved unnecessary",
    "discords.profiles.pruned.l{length}": "per-length split of discords.profiles.pruned",
    "discords.profiles.recomputed": "full profiles actually computed for discords",
    "discords.profiles.recomputed.l{length}": "per-length split of discords.profiles.recomputed",
    # streaming engines (fixed-length StreamingMatrixProfile and
    # variable-length StreamingValmod share the streaming.* namespace)
    "streaming.appends": "points ingested by a streaming engine",
    "streaming.lengths.updated": "per-length eager states refreshed across appends",
    "streaming.entries.evicted": "profile/VALMP entries retired by window eviction",
    "streaming.rows.repaired": "evicted-neighbor rows recomputed exactly after eviction",
    "streaming.buffer.regrows": "amortized capacity doublings of hoisted scratch buffers",
    "streaming.events.dropped": "change events discarded because the event queue was full",
    # features façade / store
    "features.cache.hits": "feature-store lookups served from disk",
    "features.cache.misses": "feature-store lookups that fell through to compute",
    "features.cache.corrupt": "store entries discarded as unreadable (counted as misses)",
    "features.cache.evictions": "store entries evicted by the size/mtime policy",
}

#: Gauges (last-write wins locally, max across worker merges).
GAUGES: Dict[str, str] = {
    "kernel.block_rows": "block size B the blocked kernel's GEMM path ran with",
}

#: Timing spans.  A span records under its ``/``-joined nesting path;
#: names declared here are the names passed to ``obs.span`` (a literal
#: ``parent/child`` name records directly under that path).
SPANS: Dict[str, str] = {
    "engine.stomp": "serial STOMP engine",
    "engine.stamp": "STAMP engine",
    "engine.scrimp": "SCRIMP engine",
    "engine.blocked_stomp": "blocked diagonal STOMP kernel",
    "compute_mp": "row-blocked reference driver",
    "compute_mp/block": "one row block (worker side, recorded as a path)",
    "block": "one row block nested under compute_mp",
    "submp.advance": "listDP advance + certification at a new length",
    "submp.recompute": "exact recomputation of uncertified profiles",
    "valmod.initial": "VALMOD initial full profile",
    "valmod.step": "one VALMOD length step",
    "valmod.full_recompute": "VALMOD full-recompute fallback",
    "discords.profile": "full profile computed by the discord driver",
    "discords.listdp": "listDP pair distances backing the discord bounds",
    "discords.advance": "per-length bound advance in the discord sweep",
    "features.extract": "one extract_features call",
    "features.valmod": "VALMP construction inside the façade",
    "features.motif_sets": "motif-set extraction inside the façade",
    "features.discords": "fixed-length discords inside the façade",
    "features.discords_variable": "variable-length discords inside the façade",
    "features.chains": "chain discovery inside the façade",
    "features.segmentation": "FLUSS segmentation inside the façade",
    "features.annotation": "annotation vectors inside the façade",
    "features.store": "one feature-store read or write",
    "streaming.append": "one streaming append (eager per-length update)",
    "streaming.materialize.motifs": "batch VALMOD run materializing streaming motifs",
    "streaming.materialize.discords": "warm-start pruned discord materialization",
}

_KINDS: Dict[str, Dict[str, str]] = {
    "counter": COUNTERS,
    "gauge": GAUGES,
    "span": SPANS,
}

#: what one ``{placeholder}`` may expand to: a dot-free fragment.
_PLACEHOLDER_PATTERN = r"[A-Za-z0-9_\-]+"

_PLACEHOLDER_RE = re.compile(r"\{[A-Za-z0-9_]*\}")


def normalize_template(name: str) -> str:
    """Canonical form of a template: every ``{placeholder}`` becomes ``{}``.

    Both registry declarations and f-string emission sites normalize to
    this form, so structural equality is one string comparison.
    """
    return _PLACEHOLDER_RE.sub("{}", name)


def _template_regex(template: str) -> "re.Pattern[str]":
    parts = _PLACEHOLDER_RE.split(template)
    pattern = _PLACEHOLDER_PATTERN.join(re.escape(part) for part in parts)
    return re.compile(f"^{pattern}$")


def _kind_table(kind: Optional[str]) -> List[Tuple[str, Dict[str, str]]]:
    if kind is None:
        return list(_KINDS.items())
    table = _KINDS.get(kind)
    if table is None:
        raise InvalidParameterError(
            f"unknown obs name kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    return [(kind, table)]


def is_declared(name: str, kind: Optional[str] = None) -> bool:
    """True when ``name`` matches a declaration (exact or template).

    ``name`` may itself be a template (``submp.profiles.valid.l{}``), in
    which case it matches structurally; a concrete runtime name
    (``submp.profiles.valid.l48``) matches the template's expansion.
    """
    wanted = normalize_template(name)
    for _, table in _kind_table(kind):
        for declared_name in table:
            if normalize_template(declared_name) == wanted:
                return True
            if "{" in declared_name and _template_regex(declared_name).match(name):
                return True
    return False


def declared(name: str, kind: str = "counter") -> str:
    """Return ``name`` unchanged, asserting it is declared.

    Consumers that build derived quantities from counter names route
    them through this helper so a typo fails at import time instead of
    silently producing an absent metric.
    """
    if not is_declared(name, kind):
        raise InvalidParameterError(
            f"obs {kind} name {name!r} is not declared in repro.obs.registry"
        )
    return name


def describe(name: str, kind: Optional[str] = None) -> Optional[str]:
    """The declared description for ``name``, or None when undeclared."""
    wanted = normalize_template(name)
    for _, table in _kind_table(kind):
        for declared_name, text in table.items():
            if normalize_template(declared_name) == wanted:
                return text
            if "{" in declared_name and _template_regex(declared_name).match(name):
                return text
    return None


def all_names(kind: Optional[str] = None) -> List[str]:
    """Every declared name (or only those of ``kind``), sorted."""
    names: List[str] = []
    for _, table in _kind_table(kind):
        names.extend(table)
    return sorted(names)


def undeclared(names: Iterable[str], kind: Optional[str] = None) -> List[str]:
    """The subset of ``names`` with no matching declaration, sorted."""
    return sorted({name for name in names if not is_declared(name, kind)})


def format_catalog() -> str:
    """Markdown tables of the full catalog (doc-generation surface)."""
    sections = []
    for kind, table in _KINDS.items():
        lines = [f"### {kind.capitalize()}s", "", "| name | meaning |", "| --- | --- |"]
        for name in sorted(table):
            lines.append(f"| `{name}` | {table[name]} |")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)
