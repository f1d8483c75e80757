"""Distance kernels: the substrate every motif-discovery engine builds on.

Contents
--------
:mod:`repro.distance.znorm`
    z-normalization and the exact (naive) z-normalized Euclidean distance.
:mod:`repro.distance.sliding`
    FFT sliding dot products and O(1) running window statistics.
:mod:`repro.distance.comoment`
    centred co-moments and Eq. 3 of the paper on them, vectorized.
:mod:`repro.distance.profile`
    the naive reference distance profile and the exclusion zone.
:mod:`repro.distance.mass`
    MASS: Mueen's Algorithm for Similarity Search (one distance profile in
    O(n log n)).
"""

from repro.distance.znorm import (
    znormalize,
    znormalized_distance,
    pearson_to_distance,
    distance_to_pearson,
)
from repro.distance.sliding import (
    sliding_dot_product,
    moving_mean_std,
    prefix_sums,
)
from repro.distance.comoment import distance_profile_from_qt
from repro.distance.profile import (
    naive_distance_profile,
    apply_exclusion_zone,
)
from repro.distance.mass import mass
from repro.distance.missing import (
    admissible_distance,
    has_missing,
    missing_aware_profile,
)

__all__ = [
    "admissible_distance",
    "has_missing",
    "missing_aware_profile",
    "znormalize",
    "znormalized_distance",
    "pearson_to_distance",
    "distance_to_pearson",
    "sliding_dot_product",
    "moving_mean_std",
    "prefix_sums",
    "distance_profile_from_qt",
    "naive_distance_profile",
    "apply_exclusion_zone",
    "mass",
]
