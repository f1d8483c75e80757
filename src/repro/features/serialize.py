"""Exact JSON round-trip for :class:`~repro.features.result.SeriesFeatures`.

JSON floats serialize via ``repr`` and parse back to the identical
double, so a features object survives ``features_to_dict`` →
``json.dumps`` → ``json.loads`` → ``features_from_dict`` *bitwise*
unchanged — the property the store's warm path is tested against.
Derived fields (``normalized_distance``) are serialized rather than
recomputed on load, so fidelity never depends on how a value was
originally produced.

``features_from_dict`` validates shape defensively and raises
:class:`~repro.exceptions.InvalidParameterError` on malformed payloads;
the store treats that as a cache miss, never a crash.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional

from repro.core.chains import Chain
from repro.core.discords import Discord
from repro.exceptions import InvalidParameterError
from repro.features.result import AnnotationSummary, SeriesFeatures
from repro.types import MotifPair, MotifSet

__all__ = ["features_from_dict", "features_to_dict", "save_features_json"]


def _pair_to_dict(pair: MotifPair) -> Dict[str, Any]:
    return {
        "a": pair.a,
        "b": pair.b,
        "length": pair.length,
        "distance": pair.distance,
        "normalized_distance": pair.normalized_distance,
    }


def _pair_from_dict(data: Mapping[str, Any]) -> MotifPair:
    return MotifPair(
        normalized_distance=float(data["normalized_distance"]),
        distance=float(data["distance"]),
        length=int(data["length"]),
        a=int(data["a"]),
        b=int(data["b"]),
    )


def features_to_dict(features: SeriesFeatures) -> Dict[str, Any]:
    """Flatten a features object into a JSON-serializable dict."""
    return {
        "n_points": features.n_points,
        "l_min": features.l_min,
        "l_max": features.l_max,
        "p": features.p,
        "engine": features.engine,
        "include": list(features.include),
        # Keyed by stringified length: the shape ``repro.io`` exports and
        # the CLI's ``--export`` consumers already parse.
        "motif_pairs": {
            str(pair.length): _pair_to_dict(pair)
            for pair in features.motif_pairs
        },
        "top_motifs": [_pair_to_dict(pair) for pair in features.top_motifs],
        "motif_sets": [
            {
                "pair": _pair_to_dict(motif_set.pair),
                "radius": motif_set.radius,
                "members": list(motif_set.members),
            }
            for motif_set in features.motif_sets
        ],
        "discords": [
            {
                "start": discord.start,
                "length": discord.length,
                "distance": discord.distance,
                "normalized_distance": discord.normalized_distance,
            }
            for discord in features.discords
        ],
        "discords_variable": [
            {
                "start": discord.start,
                "length": discord.length,
                "distance": discord.distance,
                "normalized_distance": discord.normalized_distance,
            }
            for discord in features.discords_variable
        ],
        "chain": (
            None
            if features.chain is None
            else {
                "members": list(features.chain.members),
                "length": features.chain.length,
                "total_link_distance": features.chain.total_link_distance,
            }
        ),
        "regime_boundaries": (
            None
            if features.regime_boundaries is None
            else list(features.regime_boundaries)
        ),
        "regime_cac": (
            None if features.regime_cac is None else list(features.regime_cac)
        ),
        "cac_min": features.cac_min,
        "annotation": (
            None
            if features.annotation is None
            else {
                "length": features.annotation.length,
                "mean": features.annotation.mean,
                "flat_fraction": features.annotation.flat_fraction,
            }
        ),
    }


def features_from_dict(data: Mapping[str, Any]) -> SeriesFeatures:
    """Rebuild a features object; raises on malformed payloads."""
    try:
        chain_data = data["chain"]
        chain: Optional[Chain] = None
        if chain_data is not None:
            chain = Chain(
                members=tuple(int(m) for m in chain_data["members"]),
                length=int(chain_data["length"]),
                total_link_distance=float(chain_data["total_link_distance"]),
            )
        annotation_data = data["annotation"]
        annotation: Optional[AnnotationSummary] = None
        if annotation_data is not None:
            annotation = AnnotationSummary(
                length=int(annotation_data["length"]),
                mean=float(annotation_data["mean"]),
                flat_fraction=float(annotation_data["flat_fraction"]),
            )
        boundaries = data["regime_boundaries"]
        regime_cac = data["regime_cac"]
        return SeriesFeatures(
            n_points=int(data["n_points"]),
            l_min=int(data["l_min"]),
            l_max=int(data["l_max"]),
            p=int(data["p"]),
            engine=str(data["engine"]),
            include=tuple(str(name) for name in data["include"]),
            motif_pairs=tuple(
                _pair_from_dict(data["motif_pairs"][key])
                for key in sorted(data["motif_pairs"], key=int)
            ),
            top_motifs=tuple(
                _pair_from_dict(item) for item in data["top_motifs"]
            ),
            motif_sets=tuple(
                MotifSet(
                    pair=_pair_from_dict(item["pair"]),
                    radius=float(item["radius"]),
                    members=tuple(int(m) for m in item["members"]),
                )
                for item in data["motif_sets"]
            ),
            discords=tuple(
                Discord(
                    normalized_distance=float(item["normalized_distance"]),
                    distance=float(item["distance"]),
                    length=int(item["length"]),
                    start=int(item["start"]),
                )
                for item in data["discords"]
            ),
            # Absent in pre-v2 payloads (user-exported JSON): default to
            # the empty tuple rather than rejecting the whole payload.
            discords_variable=tuple(
                Discord(
                    normalized_distance=float(item["normalized_distance"]),
                    distance=float(item["distance"]),
                    length=int(item["length"]),
                    start=int(item["start"]),
                )
                for item in data.get("discords_variable", ())
            ),
            chain=chain,
            regime_boundaries=(
                None
                if boundaries is None
                else tuple(int(b) for b in boundaries)
            ),
            regime_cac=(
                None
                if regime_cac is None
                else tuple(float(value) for value in regime_cac)
            ),
            cac_min=None if data["cac_min"] is None else float(data["cac_min"]),
            annotation=annotation,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"malformed features payload: {exc!r}"
        ) from exc


def save_features_json(path: str, features: SeriesFeatures) -> None:
    """Write a features object to ``path`` as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(features_to_dict(features), handle, indent=2, sort_keys=True)
        handle.write("\n")
