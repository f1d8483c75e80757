"""Annotation vectors: guided motif search (Matrix Profile V idea).

An annotation vector ``AV`` in [0, 1] expresses, per subsequence, how
*interesting* the analyst finds that region.  The corrected matrix
profile ``CMP = MP + (1 - AV) * max(MP)`` pushes unannotated regions'
entries toward the ceiling so motif extraction concentrates on the
annotated parts — without touching the underlying engine (Dau & Keogh,
"Matrix Profile V", 2017).

Ready-made annotation builders cover the two most common guidance
needs: suppressing flat (low-variance) regions and suppressing
user-specified intervals (e.g. known artifacts).
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.types import FloatArray

from repro.distance.znorm import as_series
from repro.exceptions import InvalidParameterError
from repro.kernels.context import SeriesContext
from repro.matrixprofile.index import MatrixProfile

__all__ = [
    "apply_annotation",
    "variance_annotation",
    "interval_annotation",
]


def apply_annotation(mp: MatrixProfile, annotation: FloatArray) -> MatrixProfile:
    """The corrected matrix profile ``CMP = MP + (1 - AV) * max(MP)``."""
    av = np.asarray(annotation, dtype=np.float64)
    if av.shape != mp.profile.shape:
        raise InvalidParameterError(
            f"annotation shape {av.shape} != profile shape {mp.profile.shape}"
        )
    if av.min() < 0.0 or av.max() > 1.0:
        raise InvalidParameterError("annotation values must lie in [0, 1]")
    finite = np.isfinite(mp.profile)
    if not finite.any():
        raise InvalidParameterError("matrix profile has no finite entries")
    ceiling = float(mp.profile[finite].max())
    corrected = mp.profile + (1.0 - av) * ceiling
    corrected[~finite] = np.inf
    return MatrixProfile(
        profile=corrected, index=mp.index.copy(), length=mp.length
    )


def variance_annotation(series: FloatArray, length: int) -> FloatArray:
    """AV favoring lively regions: per-window std rescaled to [0, 1].

    Flat stretches (sensor dropouts, saturation plateaus) produce
    spurious near-zero-distance motifs; this annotation suppresses them.
    """
    t = as_series(series, min_length=4)
    _, sigma = SeriesContext(t).moving_mean_std(length)
    span = sigma.max() - sigma.min()
    if span < 1e-12:
        return np.ones_like(sigma)
    return (sigma - sigma.min()) / span


def interval_annotation(
    n_subsequences: int, suppressed: Iterable[Tuple[int, int]]
) -> FloatArray:
    """AV that zeroes user-specified [start, end) intervals."""
    av = np.ones(n_subsequences, dtype=np.float64)
    for start, end in suppressed:
        if start < 0 or end <= start:
            raise InvalidParameterError(
                f"invalid suppressed interval [{start}, {end})"
            )
        av[start : min(end, n_subsequences)] = 0.0
    return av
