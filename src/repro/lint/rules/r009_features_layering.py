"""R009: the features façade owns the store and the workload composition.

Two invariants keep :mod:`repro.features` an actual façade rather than
one more loosely-coordinated module:

(a) ``repro.features.store`` is private to the façade.  Its cache keys
    encode the façade's exact parameter canonicalization; a second
    import site would inevitably drift and either miss forever or —
    worse — hit on stale semantics.
(b) Only the façade (and the workload packages themselves) may compose
    several *workload families* (motifs, discords, chains,
    segmentation, annotation, snippets) in one module.  Everything else
    should call :func:`repro.features.extract_features` instead of
    re-plumbing core modules — that is what keeps "one entry point,
    zero recompute" true.

``__init__`` modules are exempt from (b): re-exporting a public surface
is aggregation, not composition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Optional

from repro.lint.base import Diagnostic, FileContext, Rule, imported_names

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.graph import ProjectContext

#: dotted module prefix -> workload family.  Longest prefix wins, so
#: ``repro.core.discords`` maps to discords while an unlisted
#: ``repro.core.*`` internal falls back to the motifs family (the
#: package's re-exports are motif machinery).
_WORKLOAD_GROUPS: Dict[str, str] = {
    "repro.core": "motifs",
    "repro.core.valmod": "motifs",
    "repro.core.motif_sets": "motifs",
    "repro.core.ranking": "motifs",
    "repro.core.discords": "discords",
    "repro.core.discords_variable": "discords",
    "repro.core.chains": "chains",
    "repro.core.segmentation": "segmentation",
    "repro.core.annotation": "annotation",
    "repro.multiseries": "snippets",
}

#: packages whose own modules may compose freely: the façade itself and
#: the packages that *implement* the workload families.
_EXEMPT_DIRS = frozenset({"features", "core", "multiseries"})


def _is_exempt(ctx: FileContext) -> bool:
    parts = ctx.module_parts
    if parts[-1] == "__init__":
        return True
    return any(part in _EXEMPT_DIRS for part in parts[:-1])


def _is_features_module(ctx: FileContext) -> bool:
    parts = ctx.module_parts
    return "features" in parts[:-1] or parts[-1] == "features"


def _workload_group(name: str) -> Optional[str]:
    best: Optional[str] = None
    best_len = -1
    for prefix, group in _WORKLOAD_GROUPS.items():
        if name == prefix or name.startswith(prefix + "."):
            if len(prefix) > best_len:
                best = group
                best_len = len(prefix)
    return best


def _is_store_import(name: str) -> bool:
    return name == "repro.features.store" or name.startswith(
        "repro.features.store."
    )


class FeaturesLayeringRule(Rule):
    rule_id = "R009"
    name = "features-layering"
    summary = (
        "repro.features.store is façade-private; only the façade composes "
        "several workload families"
    )
    rationale = (
        "a second store import site would drift from the façade's cache-key "
        "canonicalization (stale hits or permanent misses), and modules that "
        "re-plumb several core workloads bypass the one entry point whose "
        "shared SeriesContext and content-addressed store make repeat "
        "queries free"
    )

    def applies(self, ctx: FileContext) -> bool:
        return True

    def check(
        self, ctx: FileContext, project: Optional["ProjectContext"] = None
    ) -> Iterator[Diagnostic]:
        features_module = _is_features_module(ctx)
        exempt = _is_exempt(ctx)
        first_group: Optional[str] = None
        flagged: set = set()
        for node, name in imported_names(ctx.tree):
            if node.lineno in flagged:
                continue  # one diagnostic per import statement
            if not features_module and _is_store_import(name):
                flagged.add(node.lineno)
                yield self.diag(
                    ctx,
                    node,
                    f"{name} imported outside repro.features; the store is "
                    "private to the façade — call "
                    "repro.features.extract_features instead",
                )
                continue
            if exempt:
                continue
            group = _workload_group(name)
            if group is None:
                continue
            if first_group is None:
                first_group = group
            elif group != first_group:
                flagged.add(node.lineno)
                yield self.diag(
                    ctx,
                    node,
                    f"module composes workload family '{group}' on top of "
                    f"'{first_group}'; only the repro.features façade may "
                    "compose several families — use extract_features",
                )
