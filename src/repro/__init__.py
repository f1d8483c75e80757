"""repro — a full reproduction of VALMOD (SIGMOD 2018).

VALMOD discovers, exactly and scalably, the motif pairs of *every*
subsequence length in a range ``[l_min, l_max]`` of a data series, plus
the variable-length motif sets built on top of them.

Quickstart
----------
>>> import numpy as np
>>> from repro import extract_features
>>> rng = np.random.default_rng(7)
>>> series = rng.standard_normal(4000)
>>> features = extract_features(series, l_min=64, l_max=96)
>>> best = features.best_motif              # top motif over all lengths
>>> per_length = features.pairs_by_length() # exact motif pair per length
>>> counts = features.motif_set_counts      # motif-set frequencies
>>> anomalies = features.discords           # ranked discords

Pass ``store="~/.cache/repro-features"`` (or set the
``REPRO_FEATURES_STORE`` environment variable) and a repeat query
returns a bitwise-identical result without running any kernel.  The
lower-level building blocks (:func:`valmod`, :func:`find_motif_sets`,
:func:`find_discords`, the engines) remain available for staged use.

Package layout
--------------
``repro.features``      the one-call façade + content-addressed store
``repro.core``          VALMOD itself (Algorithms 1-6, Eq. 2 lower bound)
``repro.distance``      z-normalized distance kernels, MASS
``repro.matrixprofile`` STOMP / STAMP / brute-force engines
``repro.baselines``     STOMP-per-length, MOEN, QUICK MOTIF, brute force
``repro.datasets``      synthetic stand-ins for the paper's five datasets
``repro.analysis``      TLB, pruning margins, distance distributions
``repro.harness``       experiment drivers for every figure and table
"""

from repro.core.valmod import Valmod, ValmodResult, valmod, DEFAULT_P
from repro.core.valmp import VALMP
from repro.core.motif_sets import compute_motif_sets, find_motif_sets
from repro.core.ranking import (
    RankedEvent,
    rank_motif_pairs,
    top_motifs_across_lengths,
    unified_ranking,
)
from repro.core.lower_bound import (
    lower_bound_distance,
    lower_bound_profile,
    tightness_of_lower_bound,
)
from repro.core.discords import Discord, find_discords
from repro.core.discords_variable import find_discords_pruned
from repro.core.pan import PanMatrixProfile, compute_pan_matrix_profile
from repro.core.chains import Chain, all_chains, unanchored_chain
from repro.core.segmentation import fluss, regime_boundaries
from repro.core.annotation import apply_annotation, variance_annotation
from repro.features import (
    AnnotationSummary,
    FeatureStore,
    SeriesFeatures,
    StreamingFeatures,
    extract_features,
    extract_features_batch,
    feature_cache_key,
)
from repro.matrixprofile.join import ab_join_motif, stomp_ab_join
from repro.matrixprofile.mpdist import mpdist
from repro.multiseries import consensus_motif, find_snippets, mpdist_matrix
from repro.multidim import mstamp, multidim_motifs
from repro.matrixprofile import (
    MatrixProfile,
    StreamEvent,
    StreamingMatrixProfile,
    StreamingValmod,
    compute_with,
    engine_names,
    scrimp,
    stamp,
    stomp,
)
from repro.types import Motif, MotifPair, MotifSet, length_normalized
from repro.exceptions import (
    InvalidParameterError,
    InvalidSeriesError,
    NotComputedError,
    ReproError,
    WindowTooSmallError,
)

__version__ = "10.0.0"

__all__ = [
    "AnnotationSummary",
    "FeatureStore",
    "SeriesFeatures",
    "extract_features",
    "extract_features_batch",
    "feature_cache_key",
    "Valmod",
    "ValmodResult",
    "valmod",
    "DEFAULT_P",
    "VALMP",
    "compute_motif_sets",
    "find_motif_sets",
    "rank_motif_pairs",
    "top_motifs_across_lengths",
    "lower_bound_distance",
    "lower_bound_profile",
    "tightness_of_lower_bound",
    "MatrixProfile",
    "StreamingMatrixProfile",
    "StreamingValmod",
    "StreamingFeatures",
    "StreamEvent",
    "stomp",
    "stamp",
    "scrimp",
    "engine_names",
    "compute_with",
    "Discord",
    "find_discords",
    "find_discords_pruned",
    "RankedEvent",
    "unified_ranking",
    "PanMatrixProfile",
    "compute_pan_matrix_profile",
    "Chain",
    "all_chains",
    "unanchored_chain",
    "fluss",
    "regime_boundaries",
    "apply_annotation",
    "variance_annotation",
    "ab_join_motif",
    "stomp_ab_join",
    "mpdist",
    "consensus_motif",
    "find_snippets",
    "mpdist_matrix",
    "mstamp",
    "multidim_motifs",
    "Motif",
    "MotifPair",
    "MotifSet",
    "length_normalized",
    "ReproError",
    "InvalidSeriesError",
    "InvalidParameterError",
    "NotComputedError",
    "WindowTooSmallError",
    "__version__",
]
