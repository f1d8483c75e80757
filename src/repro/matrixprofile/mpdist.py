"""MPdist: a distance *between whole series* built from joins.

Matrix Profile XII's measure: two series are similar when they share
many similar subsequences, regardless of where they occur.  Concretely,
concatenate the AB-join and BA-join profiles and take the k-th smallest
value, with ``k = ceil(threshold * (|A| + |B|))`` (threshold 0.05 in
the original).  MPdist tolerates spikes, dropouts and misalignment that
break whole-series Euclidean distance, which makes it the right measure
for clustering recordings — see
:func:`repro.multiseries.consensus.mpdist_matrix`.

Properties (tested): non-negative, symmetric, zero for identical
series; NOT a metric (the triangle inequality may fail — by design).
"""

from __future__ import annotations

import math

import numpy as np

from repro.distance.znorm import as_series
from repro.exceptions import InvalidParameterError
from repro.matrixprofile.join import stomp_ab_join

__all__ = ["mpdist"]


def mpdist(
    series_a: np.ndarray,
    series_b: np.ndarray,
    length: int,
    threshold: float = 0.05,
) -> float:
    """The MPdist between two series at one subsequence length."""
    a = as_series(series_a, min_length=4)
    b = as_series(series_b, min_length=4)
    if not 0.0 < threshold <= 1.0:
        raise InvalidParameterError(
            f"threshold must be in (0, 1], got {threshold}"
        )
    ab = stomp_ab_join(a, b, length).profile
    ba = stomp_ab_join(b, a, length).profile
    joined = np.concatenate([ab, ba])
    joined = joined[np.isfinite(joined)]
    if joined.size == 0:
        raise InvalidParameterError("no finite join distances")
    k = min(joined.size - 1, int(math.ceil(threshold * (a.size + b.size))))
    return float(np.partition(joined, k)[k])
