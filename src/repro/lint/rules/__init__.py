"""Rule registry: one module per invariant (R002, R007-R011; see docs/LINTING.md)."""

from __future__ import annotations

from typing import List

from repro.lint.base import Rule
from repro.lint.rules.r002_errstate_div import ErrstateDivRule
from repro.lint.rules.r007_obs_layering import ObsLayeringRule
from repro.lint.rules.r008_context_stats import ContextStatsRule
from repro.lint.rules.r009_features_layering import FeaturesLayeringRule
from repro.lint.rules.r010_obs_registry import ObsRegistryRule
from repro.lint.rules.r011_stale_pragma import StalePragmaRule

__all__ = ["all_rules"]


def all_rules() -> List[Rule]:
    """Instantiate the full rule set, in rule-id order."""
    return [
        ErrstateDivRule(),
        ObsLayeringRule(),
        ContextStatsRule(),
        FeaturesLayeringRule(),
        ObsRegistryRule(),
        StalePragmaRule(),
    ]
