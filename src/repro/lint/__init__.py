"""`repro.lint`: whole-project static analyzer for the numerical core.

The exactness guarantees of the matrix-profile family rest on a handful of
numerical invariants — clip before ``sqrt``, guard every division by a
window deviation, centralize the exclusion-zone arithmetic, keep parallel
reductions deterministic.  This package encodes them as AST-based rules
(R001–R013; R012 is retired) that run over the source tree and fail CI
on violations::

    python -m repro.lint src/

Beyond the per-file syntactic rules, the analyzer builds a whole-project
view (:class:`~repro.lint.graph.ProjectContext`: module table, import
graph, observability emission sites) for the cross-file rules — R010
checks every emitted obs name against :mod:`repro.obs.registry`.

See ``docs/LINTING.md`` for the rule catalog and the historical bug each
rule would have caught.  Runtime shape/dtype/finiteness contracts (enabled
with ``REPRO_CONTRACTS=1``) live in :mod:`repro.lint.contracts`.
"""

from __future__ import annotations

from repro.lint.base import Diagnostic, FileContext, Rule
from repro.lint.graph import ProjectContext
from repro.lint.rules import all_rules
from repro.lint.runner import lint_paths, lint_project, lint_source

__all__ = [
    "Diagnostic",
    "FileContext",
    "ProjectContext",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_project",
    "lint_source",
]
