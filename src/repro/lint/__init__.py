"""`repro.lint`: whole-project static analyzer for the invariants no test sees.

The behavioural walls (oracle differentials, rejection tests) back the
numerical claims; this package keeps only the rules whose violation
those walls let through: guarded divisions in kernels (R002), the
observability and façade layering (R007, R009), stats/FFT access
through ``SeriesContext`` (R008), the obs-name registry (R010), and
stale suppressions (R011).  They run as AST checks over the source tree
and fail CI on violations::

    python -m repro.lint src/

Beyond the per-file rules, the analyzer builds a whole-project view
(:class:`~repro.lint.graph.ProjectContext`: module table, observability
emission sites) for R010, which checks every emitted obs name against
:mod:`repro.obs.registry`.

See ``docs/LINTING.md`` for the rule catalog and for the mutation audit
that decided which rules stay.
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
