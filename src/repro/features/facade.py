"""One entry point for per-series VALMOD analysis: ``extract_features``.

The paper's pitch is that variable-length motif/discord discovery is a
single practical call; this module makes the reproduction read the same
way.  ``extract_features`` owns the per-series
:class:`~repro.kernels.SeriesContext`, selects the engine via the
registry, runs the VALMP/listDP plumbing once, and fans the result into
every requested feature family — so callers never compose
``repro.core`` modules by hand (lint rule R009 enforces that this
module is the only place such wholesale composition happens).

Results are deterministic and free of timing state, which lets the
content-addressed store (:mod:`repro.features.store`) serve a repeat
query without touching a kernel: the warm path shows
``features.cache.hits == 1`` and ``engine.cells == 0`` in a trace, and
returns a bitwise-identical :class:`SeriesFeatures`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.annotation import variance_annotation
from repro.core.chains import Chain, unanchored_chain
from repro.core.discords import Discord, find_discords
from repro.core.discords_variable import find_discords_pruned
from repro.core.motif_sets import compute_motif_sets
from repro.core.ranking import top_motifs_across_lengths
from repro.core.segmentation import boundaries_from_cac, fluss
from repro.core.valmod import DEFAULT_P, Valmod
from repro.distance.znorm import as_series
from repro.exceptions import InvalidParameterError
from repro.features.result import AnnotationSummary, SeriesFeatures
from repro.features.serialize import features_from_dict, features_to_dict
from repro.features.store import FeatureStore, feature_cache_key, resolve_store
from repro.kernels.context import SeriesContext
from repro.matrixprofile.registry import DEFAULT_ENGINE, engine_names
from repro.types import MotifSet, SeriesLike

__all__ = [
    "DEFAULT_INCLUDE",
    "DEFAULT_P",
    "INCLUDE_OPTIONS",
    "extract_features",
    "extract_features_batch",
]

#: every optional feature family, in canonical order.
INCLUDE_OPTIONS: Tuple[str, ...] = (
    "motif_sets",
    "discords",
    "discords_variable",
    "chains",
    "segmentation",
    "annotation",
)

#: what ``extract_features`` computes unless told otherwise.
DEFAULT_INCLUDE: Tuple[str, ...] = ("motif_sets", "discords")

StoreLike = Union[FeatureStore, str, bool, None]


def _canonical_include(include: Iterable[str]) -> Tuple[str, ...]:
    requested = list(include)
    unknown = sorted(set(requested) - set(INCLUDE_OPTIONS))
    if unknown:
        raise InvalidParameterError(
            f"unknown include option(s) {', '.join(unknown)}; "
            f"choose from {', '.join(INCLUDE_OPTIONS)}"
        )
    return tuple(name for name in INCLUDE_OPTIONS if name in requested)


def extract_features(
    series: SeriesLike,
    l_min: int,
    l_max: int,
    *,
    p: int = DEFAULT_P,
    top_k: int = 5,
    include: Iterable[str] = DEFAULT_INCLUDE,
    motif_set_k: int = 10,
    radius_factor: float = 3.0,
    k_discords: int = 3,
    discord_lengths: Optional[Sequence[int]] = None,
    n_regimes: int = 2,
    engine: str = DEFAULT_ENGINE,
    n_jobs: Optional[int] = 1,
    stats_cache: bool = True,
    store: StoreLike = None,
    trace: Optional[bool] = None,
) -> SeriesFeatures:
    """Extract every requested feature family of one series, in one call.

    Runs VALMOD over ``[l_min, l_max]`` (always: the exact per-length
    motif pairs and the cross-length ``top_k`` ranking are the baseline
    output), then the families named by ``include`` — ``motif_sets``
    (Algorithms 5-6, parameters ``motif_set_k``/``radius_factor``),
    ``discords`` (``k_discords`` anomalies; ``discord_lengths``
    restricts the scan to specific lengths), ``discords_variable``
    (the same anomalies via the MAD-style lower-bound-pruned driver —
    identical output, far fewer full profiles on wide ranges; ``p``
    sizes its bound store), ``chains``,
    ``segmentation`` (FLUSS at ``l_min``, splitting into ``n_regimes``),
    and ``annotation`` (variance-annotation summary).  One shared
    :class:`~repro.kernels.SeriesContext` serves all of them, so window
    statistics and FFT plans are computed once per series.

    ``store`` enables the content-addressed cache: a
    :class:`~repro.features.FeatureStore`, a directory path, ``None``
    (consult ``REPRO_FEATURES_STORE``; disabled when unset) or ``False``
    (never cache).  A repeat call with bit-identical series and
    parameters returns a bitwise-identical result without running any
    kernel.  ``trace`` toggles the :mod:`repro.obs` tracer for this call
    (``None`` leaves the global state untouched); ``stats_cache`` and
    ``n_jobs`` never change the result bits and are excluded from the
    cache key.
    """
    if trace is None:
        return _extract(
            series, l_min, l_max, p, top_k, include, motif_set_k,
            radius_factor, k_discords, discord_lengths, n_regimes, engine,
            n_jobs, stats_cache, store,
        )
    with obs.tracing(trace):
        return _extract(
            series, l_min, l_max, p, top_k, include, motif_set_k,
            radius_factor, k_discords, discord_lengths, n_regimes, engine,
            n_jobs, stats_cache, store,
        )


def _extract(
    series: SeriesLike,
    l_min: int,
    l_max: int,
    p: int,
    top_k: int,
    include: Iterable[str],
    motif_set_k: int,
    radius_factor: float,
    k_discords: int,
    discord_lengths: Optional[Sequence[int]],
    n_regimes: int,
    engine: str,
    n_jobs: Optional[int],
    stats_cache: bool,
    store: StoreLike,
) -> SeriesFeatures:
    t = as_series(series, min_length=8)
    if l_min > l_max:
        raise InvalidParameterError(
            f"l_min ({l_min}) must not exceed l_max ({l_max})"
        )
    if top_k <= 0:
        raise InvalidParameterError(f"top_k must be positive, got {top_k}")
    if engine not in engine_names():
        raise InvalidParameterError(
            f"unknown engine {engine!r}; choose from {', '.join(engine_names())}"
        )
    included = _canonical_include(include)
    scan_lengths = (
        None
        if discord_lengths is None
        else tuple(sorted({int(length) for length in discord_lengths}))
    )

    with obs.span("features.extract"):
        resolved = resolve_store(store)
        key = ""
        if resolved is not None:
            # Key the *raw* input: a float32 view of the same values is
            # a different query than the float64 original.
            key = feature_cache_key(
                np.asarray(series),
                {
                    "l_min": int(l_min),
                    "l_max": int(l_max),
                    "p": int(p),
                    "top_k": int(top_k),
                    "include": list(included),
                    "motif_set_k": int(motif_set_k),
                    "radius_factor": float(radius_factor),
                    "k_discords": int(k_discords),
                    "discord_lengths": (
                        None if scan_lengths is None else list(scan_lengths)
                    ),
                    "n_regimes": int(n_regimes),
                    "engine": engine,
                },
            )
            payload = resolved.get(key)
            if payload is not None:
                try:
                    cached = features_from_dict(payload)
                except InvalidParameterError:
                    obs.add("features.cache.corrupt")
                else:
                    obs.add("features.cache.hits")
                    return cached
            obs.add("features.cache.misses")
        features = _compute(
            t, l_min, l_max, p, top_k, included, motif_set_k, radius_factor,
            k_discords, scan_lengths, n_regimes, engine, n_jobs, stats_cache,
        )
        if resolved is not None:
            resolved.put(key, features_to_dict(features))
        return features


def _compute(
    t: np.ndarray,
    l_min: int,
    l_max: int,
    p: int,
    top_k: int,
    included: Tuple[str, ...],
    motif_set_k: int,
    radius_factor: float,
    k_discords: int,
    scan_lengths: Optional[Tuple[int, ...]],
    n_regimes: int,
    engine: str,
    n_jobs: Optional[int],
    stats_cache: bool,
) -> SeriesFeatures:
    context = SeriesContext(t) if stats_cache else None
    track = motif_set_k if "motif_sets" in included else 0
    with obs.span("features.valmod"):
        run = Valmod(
            t, l_min, l_max, p=p, track_top_k=track, n_jobs=n_jobs,
            stats_cache=stats_cache, context=context,
        ).run()
    motif_pairs = tuple(
        run.motif_pairs[length] for length in sorted(run.motif_pairs)
    )
    top_motifs = tuple(top_motifs_across_lengths(run.motif_pairs, top_k))

    motif_sets: Tuple[MotifSet, ...] = ()
    if "motif_sets" in included:
        with obs.span("features.motif_sets"):
            motif_sets = tuple(
                compute_motif_sets(t, run.best_k_pairs(), radius_factor)
            )

    discords: Tuple[Discord, ...] = ()
    if "discords" in included:
        with obs.span("features.discords"):
            discords = tuple(
                find_discords(
                    t, l_min, l_max, k=k_discords, engine=engine,
                    lengths=scan_lengths, context=context,
                )
            )

    discords_variable: Tuple[Discord, ...] = ()
    if "discords_variable" in included:
        with obs.span("features.discords_variable"):
            discords_variable = tuple(
                find_discords_pruned(
                    t, l_min, l_max, k=k_discords, engine=engine,
                    n_jobs=n_jobs, lengths=scan_lengths, context=context,
                    p=p,
                )
            )

    chain: Optional[Chain] = None
    if "chains" in included:
        with obs.span("features.chains"):
            try:
                chain = unanchored_chain(t, l_min)
            except InvalidParameterError:
                chain = None  # degenerate series: no chain exists

    boundaries = regime_cac = cac_min = None
    if "segmentation" in included:
        with obs.span("features.segmentation"):
            cac = fluss(t, l_min)
            positions = boundaries_from_cac(cac, l_min, n_regimes)
            boundaries = tuple(int(pos) for pos in positions)
            regime_cac = tuple(float(cac[pos]) for pos in positions)
            cac_min = float(cac.min())

    annotation: Optional[AnnotationSummary] = None
    if "annotation" in included:
        with obs.span("features.annotation"):
            av = variance_annotation(t, l_min)
            annotation = AnnotationSummary(
                length=int(l_min),
                mean=float(av.mean()),
                flat_fraction=float(np.mean(av < 0.1)),
            )

    return SeriesFeatures(
        n_points=int(t.size),
        l_min=int(l_min),
        l_max=int(l_max),
        p=int(p),
        engine=engine,
        include=included,
        motif_pairs=motif_pairs,
        top_motifs=top_motifs,
        motif_sets=motif_sets,
        discords=discords,
        discords_variable=discords_variable,
        chain=chain,
        regime_boundaries=boundaries,
        regime_cac=regime_cac,
        cac_min=cac_min,
        annotation=annotation,
    )


def extract_features_batch(
    series_list: Sequence[SeriesLike],
    l_min: int,
    l_max: int,
    *,
    store: StoreLike = None,
    **kwargs,
) -> List[SeriesFeatures]:
    """:func:`extract_features` over many series, sharing one store.

    The store argument is resolved once, so every series of the batch
    reads and writes the same cache directory; all other keyword
    arguments are forwarded unchanged.  Returns one
    :class:`SeriesFeatures` per input series, in order.
    """
    resolved = resolve_store(store)
    shared: StoreLike = resolved if resolved is not None else False
    return [
        extract_features(series, l_min, l_max, store=shared, **kwargs)
        for series in series_list
    ]
