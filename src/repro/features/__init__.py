"""``repro.features`` — the one-call analysis façade and its store.

Public surface (see ``docs/FEATURES.md``):

:func:`extract_features` / :func:`extract_features_batch`
    One typed, validated entry point per series (or batch): runs
    VALMOD once, fans out into motif sets, discords, chains,
    segmentation and annotation on demand, and returns a frozen
    :class:`SeriesFeatures`.
:class:`FeatureStore` / :func:`feature_cache_key`
    The content-addressed on-disk cache behind the façade's ``store``
    argument — key = hash of (series bytes, dtype, params, engine,
    package version, kernel schema version), so a repeat query provably
    skips the kernels.
:func:`features_to_dict` / :func:`features_from_dict` /
:func:`save_features_json`
    Exact (bitwise) JSON round-trip of a features object.

Layering (lint rule R009): this package is the only place allowed to
compose the ``repro.core`` workload modules wholesale, and
:mod:`repro.features.store` may not be imported from anywhere else.
"""

from repro.core.motif_sets import motif_set_summary
from repro.features.facade import (
    DEFAULT_INCLUDE,
    DEFAULT_P,
    INCLUDE_OPTIONS,
    extract_features,
    extract_features_batch,
)
from repro.features.result import AnnotationSummary, SeriesFeatures
from repro.features.serialize import (
    features_from_dict,
    features_to_dict,
    save_features_json,
)
from repro.features.store import (
    DEFAULT_MAX_ENTRIES,
    STORE_ENV,
    STORE_SCHEMA_VERSION,
    FeatureStore,
    feature_cache_key,
    resolve_store,
)
from repro.features.streaming import StreamingFeatures

__all__ = [
    "AnnotationSummary",
    "DEFAULT_INCLUDE",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_P",
    "FeatureStore",
    "INCLUDE_OPTIONS",
    "STORE_ENV",
    "STORE_SCHEMA_VERSION",
    "SeriesFeatures",
    "StreamingFeatures",
    "extract_features",
    "extract_features_batch",
    "feature_cache_key",
    "features_from_dict",
    "features_to_dict",
    "motif_set_summary",
    "resolve_store",
    "save_features_json",
]
