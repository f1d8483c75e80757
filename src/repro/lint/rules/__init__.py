"""Rule registry: one module per invariant, R001–R013 (R012 retired)."""

from __future__ import annotations

from typing import List

from repro.lint.base import Rule
from repro.lint.rules.r001_sqrt_clip import SqrtClipRule
from repro.lint.rules.r002_errstate_div import ErrstateDivRule
from repro.lint.rules.r003_exceptions import ExceptionHierarchyRule
from repro.lint.rules.r004_exclusion import ExclusionZoneRule
from repro.lint.rules.r005_determinism import WorkerDeterminismRule
from repro.lint.rules.r006_dtype import DtypeDisciplineRule
from repro.lint.rules.r007_obs_layering import ObsLayeringRule
from repro.lint.rules.r008_context_stats import ContextStatsRule
from repro.lint.rules.r009_features_layering import FeaturesLayeringRule
from repro.lint.rules.r010_obs_registry import ObsRegistryRule
from repro.lint.rules.r011_stale_pragma import StalePragmaRule
from repro.lint.rules.r013_contract_coverage import ContractCoverageRule

__all__ = ["all_rules"]


def all_rules() -> List[Rule]:
    """Instantiate the full rule set, in rule-id order."""
    return [
        SqrtClipRule(),
        ErrstateDivRule(),
        ExceptionHierarchyRule(),
        ExclusionZoneRule(),
        WorkerDeterminismRule(),
        DtypeDisciplineRule(),
        ObsLayeringRule(),
        ContextStatsRule(),
        FeaturesLayeringRule(),
        ObsRegistryRule(),
        StalePragmaRule(),
        ContractCoverageRule(),
    ]
