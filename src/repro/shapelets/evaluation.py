"""Shapelet quality evaluation: distances, entropy, information gain.

A candidate shapelet turns every series into one number — the
length-normalized distance of the series' best-matching window — and
its quality is the information gain of the best threshold split of
those numbers against the labels (Ye & Keogh 2009).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.distance.znorm import as_series, znormalized_distance
from repro.exceptions import InvalidParameterError
from repro.types import length_normalized

__all__ = [
    "series_to_shapelet_distance",
    "entropy",
    "information_gain",
    "best_split",
]


def series_to_shapelet_distance(series: np.ndarray, shapelet: np.ndarray) -> float:
    """Length-normalized distance of the series' best window to the shapelet.

    Uses a MASS profile when the series is long enough, the direct
    distance when the series length equals the shapelet length.
    """
    t = as_series(series, min_length=2)
    s = np.asarray(shapelet, dtype=np.float64)
    if s.size > t.size:
        raise InvalidParameterError(
            f"shapelet of {s.size} points longer than series of {t.size}"
        )
    if s.size == t.size:
        return length_normalized(znormalized_distance(t, s), s.size)
    # MASS needs the query to come from the series; compute the profile
    # of the shapelet against the series directly instead.
    from repro.distance.comoment import comoment_row, distance_profile_from_qt
    from repro.kernels.context import SeriesContext

    ctx = SeriesContext(t)
    mu, sigma = ctx.moving_mean_std(s.size)
    c = comoment_row(s, t, mu, context=ctx)
    profile = distance_profile_from_qt(c, s.size, float(s.std()), sigma)
    return length_normalized(float(profile.min()), s.size)


def entropy(labels: Sequence) -> float:
    """Shannon entropy (bits) of a label multiset."""
    labels = list(labels)
    if not labels:
        return 0.0
    total = len(labels)
    out = 0.0
    for label in set(labels):
        p = labels.count(label) / total
        out -= p * math.log2(p)
    return out


def information_gain(
    distances: np.ndarray, labels: Sequence, threshold: float
) -> float:
    """Information gain of splitting at ``distance <= threshold``."""
    d = np.asarray(distances, dtype=np.float64)
    labels = list(labels)
    if d.size != len(labels):
        raise InvalidParameterError(
            f"{d.size} distances vs {len(labels)} labels"
        )
    left = [lab for dist, lab in zip(d, labels) if dist <= threshold]
    right = [lab for dist, lab in zip(d, labels) if dist > threshold]
    total = len(labels)
    if not left or not right:
        return 0.0
    return entropy(labels) - (
        len(left) / total * entropy(left) + len(right) / total * entropy(right)
    )


def best_split(distances: np.ndarray, labels: Sequence) -> Tuple[float, float, float]:
    """The threshold with maximal information gain.

    Returns ``(gain, threshold, margin)`` where the margin is the
    separation between the two sides at the chosen split — the standard
    tie-breaker among equal-gain shapelets.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.size != len(list(labels)):
        raise InvalidParameterError("distances and labels must align")
    order = np.argsort(d)
    sorted_d = d[order]
    best = (0.0, float(sorted_d[0]) if d.size else 0.0, 0.0)
    for i in range(d.size - 1):
        if sorted_d[i] == sorted_d[i + 1]:
            continue
        threshold = 0.5 * (sorted_d[i] + sorted_d[i + 1])
        gain = information_gain(d, labels, threshold)
        margin = float(sorted_d[i + 1] - sorted_d[i])
        if gain > best[0] or (gain == best[0] and margin > best[2]):
            best = (gain, float(threshold), margin)
    return best
