"""Grammar-style APPROXIMATE variable-length motif discovery.

The paper's related work (Section 7) discusses a family of approximate
variable-length motif finders built on symbolic discretization —
grammar induction over SAX words [8], proper-length selection [54].
They are fast but "(i) approximate ... and (ii) require setting many
parameters (most of which are unintuitive)", with unbounded error.

This module implements that family's core recipe so the claim can be
*measured* (``benchmarks/bench_approximate_baseline.py``):

1. discretize every window of each length into a SAX word;
2. group windows by identical word (collisions = candidate motifs);
3. within each group, take the closest non-trivial pair (computed
   exactly — the standard "numerosity + refinement" step);
4. rank candidates across lengths by normalized distance.

It inherits the family's parameters (word length, alphabet size, length
stride) and its failure mode: a true motif pair whose two occurrences
straddle a SAX cell boundary lands in different groups and is *missed*
— exactly the unbounded-error behaviour the paper criticizes.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.baselines.sax import sax_words
from repro.kernels.context import SeriesContext
from repro.distance.comoment import pair_distances
from repro.distance.znorm import as_series
from repro.exceptions import InvalidParameterError
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.types import MotifPair

__all__ = ["grammar_motifs", "grammar_motif_per_length"]


def _closest_pair_in_group(
    centred: np.ndarray,
    members: List[int],
    length: int,
    sigma: np.ndarray,
    zone: int,
) -> Optional[Tuple[int, int, float]]:
    """Exact closest non-trivial pair among a (small) candidate group."""
    idx = np.asarray(members)
    left, right = np.triu_indices(idx.size, k=1)
    i, j = idx[left], idx[right]
    keep = np.abs(i - j) >= zone
    if not keep.any():
        return None
    i, j = i[keep], j[keep]
    dist = pair_distances(centred, sigma, length, i, j)
    k = int(np.argmin(dist))
    return int(i[k]), int(j[k]), float(dist[k])


def grammar_motif_per_length(
    series: np.ndarray,
    length: int,
    word_length: int = 6,
    alphabet_size: int = 4,
    max_group: int = 64,
) -> Optional[MotifPair]:
    """Approximate motif pair of one length via SAX-word collisions.

    Returns None when no word repeats (the method's blind spot).
    Groups larger than ``max_group`` are subsampled, another standard
    speed/accuracy knob of the family.
    """
    t = as_series(series, min_length=8)
    effective_word = min(word_length, length)
    words = sax_words(t, length, effective_word, alphabet_size)
    zone = exclusion_zone_half_width(length)
    groups: Dict[int, List[int]] = defaultdict(list)
    for position, word in enumerate(words):
        groups[int(word)].append(position)
    mu, sigma = SeriesContext(t).moving_mean_std(length)
    centred = sliding_window_view(t, length) - mu[:, None]
    best: Optional[Tuple[int, int, float]] = None
    for members in groups.values():
        if len(members) < 2:
            continue
        if len(members) > max_group:
            stride = len(members) // max_group + 1
            members = members[::stride]
        found = _closest_pair_in_group(centred, members, length, sigma, zone)
        if found is not None and (best is None or found[2] < best[2]):
            best = found
    if best is None:
        return None
    return MotifPair.build(best[0], best[1], length, best[2])


def grammar_motifs(
    series: np.ndarray,
    l_min: int,
    l_max: int,
    length_stride: int = 1,
    word_length: int = 6,
    alphabet_size: int = 4,
) -> Dict[int, MotifPair]:
    """Approximate variable-length motif discovery.

    ``length_stride`` skips lengths (the family's usual shortcut); the
    returned dictionary only contains lengths where some SAX word
    repeated.  NO exactness guarantee — that is the point of this
    baseline; ``benchmarks/bench_approximate_baseline.py`` measures the
    error against VALMOD's exact answer.
    """
    t = as_series(series, min_length=8)
    if l_min > l_max:
        raise InvalidParameterError(f"l_min ({l_min}) must not exceed l_max ({l_max})")
    if length_stride <= 0:
        raise InvalidParameterError(
            f"length_stride must be positive, got {length_stride}"
        )
    result: Dict[int, MotifPair] = {}
    for length in range(l_min, l_max + 1, length_stride):
        pair = grammar_motif_per_length(
            t, length, word_length=word_length, alphabet_size=alphabet_size
        )
        if pair is not None:
            result[length] = pair
    return result
