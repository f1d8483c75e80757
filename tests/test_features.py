"""The repro.features façade: one entry point, same bits as the parts.

The façade must be a pure composition: every family it returns has to
match what the underlying module produces when called directly with the
same parameters — bit for bit, since the content-addressed store relies
on determinism.  Plus parameter validation, batch semantics, and the
exact JSON round-trip.
"""

import json

import numpy as np
import pytest

import repro
from repro.core.discords import find_discords
from repro.core.motif_sets import find_motif_sets
from repro.core.ranking import top_motifs_across_lengths
from repro.core.segmentation import fluss, regime_boundaries
from repro.core.valmod import Valmod
from repro.exceptions import InvalidParameterError
from repro.features import (
    AnnotationSummary,
    SeriesFeatures,
    extract_features,
    extract_features_batch,
    features_from_dict,
    features_to_dict,
)

ALL_FAMILIES = (
    "motif_sets",
    "discords",
    "discords_variable",
    "chains",
    "segmentation",
    "annotation",
)


def pair_bits(pair):
    return (pair.a, pair.b, pair.length, pair.distance, pair.normalized_distance)


class TestFacadeMatchesParts:
    def test_motif_pairs_match_valmod_exactly(self, noise_series):
        features = extract_features(
            noise_series, 16, 20, p=10, include=(), store=False
        )
        run = Valmod(noise_series, 16, 20, p=10).run()
        assert [pair_bits(p) for p in features.motif_pairs] == [
            pair_bits(run.motif_pairs[length]) for length in range(16, 21)
        ]
        assert features.pairs_by_length().keys() == run.motif_pairs.keys()

    def test_top_motifs_match_ranking_helper(self, noise_series):
        features = extract_features(
            noise_series, 16, 20, p=10, top_k=3, include=(), store=False
        )
        run = Valmod(noise_series, 16, 20, p=10).run()
        expected = top_motifs_across_lengths(run.motif_pairs, 3)
        assert [pair_bits(p) for p in features.top_motifs] == [
            pair_bits(p) for p in expected
        ]
        assert pair_bits(features.best_motif) == pair_bits(expected[0])
        assert (
            features.primary_motif_distance == expected[0].normalized_distance
        )

    def test_discords_match_direct_call(self, noise_series):
        features = extract_features(
            noise_series, 16, 18, p=10, include=("discords",),
            k_discords=2, store=False,
        )
        expected = find_discords(noise_series, 16, 18, k=2)
        assert [
            (d.start, d.length, d.distance, d.normalized_distance)
            for d in features.discords
        ] == [
            (d.start, d.length, d.distance, d.normalized_distance)
            for d in expected
        ]
        assert features.discord_distance == expected[0].normalized_distance

    def test_discords_variable_matches_both_drivers(self, noise_series):
        pruned = extract_features(
            noise_series, 16, 18, p=10, include=("discords_variable",),
            k_discords=2, store=False,
        )
        full = extract_features(
            noise_series, 16, 18, p=10, include=("discords",),
            k_discords=2, store=False,
        )
        assert pruned.discords == ()
        assert full.discords_variable == ()
        # Same anomalies through either family, and through the direct
        # oracle call.
        assert pruned.discords_variable == full.discords
        assert pruned.discords_variable == tuple(
            find_discords(noise_series, 16, 18, k=2)
        )
        assert pruned.discord_distance == full.discord_distance

    def test_discord_lengths_restrict_the_scan(self, noise_series):
        features = extract_features(
            noise_series, 16, 20, p=10, include=("discords",),
            discord_lengths=(17,), store=False,
        )
        assert features.discords
        assert {d.length for d in features.discords} == {17}
        expected = find_discords(noise_series, 16, 20, lengths=(17,))
        assert [d.start for d in features.discords] == [
            d.start for d in expected
        ]

    def test_motif_sets_match_direct_pipeline(self, noise_series):
        features = extract_features(
            noise_series, 16, 18, p=10, include=("motif_sets",),
            motif_set_k=4, radius_factor=3.0, store=False,
        )
        expected = find_motif_sets(
            noise_series, 16, 18, k=4, radius_factor=3.0, p=10
        )
        assert [
            (pair_bits(s.pair), s.radius, s.members) for s in features.motif_sets
        ] == [
            (pair_bits(s.pair), s.radius, s.members) for s in expected
        ]
        assert features.motif_set_counts == tuple(
            s.frequency for s in expected
        )

    def test_segmentation_matches_fluss(self, structured_series):
        features = extract_features(
            structured_series, 16, 16, include=("segmentation",),
            n_regimes=2, store=False,
        )
        cac = fluss(structured_series, 16)
        assert features.cac_min == float(cac.min())
        assert features.regime_boundaries == tuple(
            regime_boundaries(structured_series, 16, n_regimes=2)
        )
        assert features.regime_cac == tuple(
            float(cac[b]) for b in features.regime_boundaries
        )

    def test_chains_and_annotation_populate(self, structured_series):
        features = extract_features(
            structured_series, 16, 16, include=("chains", "annotation"),
            store=False,
        )
        # A chain may legitimately be absent on some inputs; when present
        # it must be time-ordered.
        if features.chain is not None:
            members = features.chain.members
            assert list(members) == sorted(members)
            assert features.chain.length == 16
        assert isinstance(features.annotation, AnnotationSummary)
        assert features.annotation.length == 16
        assert 0.0 <= features.annotation.mean <= 1.0
        assert 0.0 <= features.annotation.flat_fraction <= 1.0

    def test_planted_motif_is_found(self, planted):
        length = planted.length
        features = extract_features(
            planted.series, length - 2, length + 2, p=10, include=(),
            store=False,
        )
        best = features.best_motif
        starts = sorted(planted.positions)
        assert abs(best.a - starts[0]) <= length // 2
        assert abs(best.b - starts[1]) <= length // 2

    def test_include_order_is_canonical(self, noise_series):
        features = extract_features(
            noise_series, 16, 17, p=10,
            include=("discords", "motif_sets"), store=False,
        )
        assert features.include == ("motif_sets", "discords")


class TestValidation:
    def test_inverted_range_raises(self, noise_series):
        with pytest.raises(InvalidParameterError):
            extract_features(noise_series, 20, 16, store=False)

    def test_unknown_engine_raises(self, noise_series):
        with pytest.raises(InvalidParameterError):
            extract_features(noise_series, 16, 18, engine="nope", store=False)

    def test_unknown_include_raises(self, noise_series):
        with pytest.raises(InvalidParameterError):
            extract_features(
                noise_series, 16, 18, include=("motifs_sets",), store=False
            )

    def test_bad_top_k_raises(self, noise_series):
        with pytest.raises(InvalidParameterError):
            extract_features(noise_series, 16, 18, top_k=0, store=False)

    def test_discord_length_outside_range_raises(self, noise_series):
        with pytest.raises(InvalidParameterError):
            extract_features(
                noise_series, 16, 18, include=("discords",),
                discord_lengths=(40,), store=False,
            )

    def test_bad_store_type_raises(self, noise_series):
        with pytest.raises(InvalidParameterError):
            extract_features(noise_series, 16, 18, store=3.14)

    def test_short_series_raises(self):
        with pytest.raises(Exception):
            extract_features(np.zeros(4), 2, 3, store=False)


class TestBatch:
    def test_batch_matches_individual_calls(self):
        rng = np.random.default_rng(11)
        many = [rng.standard_normal(300) for _ in range(3)]
        batch = extract_features_batch(
            many, 16, 17, p=10, include=("discords",), store=False
        )
        assert len(batch) == 3
        for series, features in zip(many, batch):
            single = extract_features(
                series, 16, 17, p=10, include=("discords",), store=False
            )
            assert features_to_dict(features) == features_to_dict(single)

    def test_batch_shares_one_store(self, tmp_path):
        rng = np.random.default_rng(12)
        series = rng.standard_normal(300)
        store = tmp_path / "cache"
        with repro.obs.tracing(True):
            repro.obs.reset()
            batch = extract_features_batch(
                [series, series], 16, 17, p=10, include=(), store=str(store)
            )
            counters = repro.obs.get_tracer().counters()
        assert counters.get("features.cache.misses", 0) == 1
        assert counters.get("features.cache.hits", 0) == 1
        assert features_to_dict(batch[0]) == features_to_dict(batch[1])


class TestSerialization:
    def test_round_trip_is_exact(self, structured_series):
        features = extract_features(
            structured_series, 16, 18, p=10, include=ALL_FAMILIES, store=False
        )
        payload = features_to_dict(features)
        wire = json.loads(json.dumps(payload))
        rebuilt = features_from_dict(wire)
        assert isinstance(rebuilt, SeriesFeatures)
        assert features_to_dict(rebuilt) == payload
        assert rebuilt == features  # frozen dataclasses: field equality

    def test_export_shape_matches_io_contract(self, noise_series):
        # The CLI --export consumers key motif_pairs by str(length).
        features = extract_features(
            noise_series, 16, 18, p=10, include=(), store=False
        )
        payload = features_to_dict(features)
        assert set(payload["motif_pairs"]) == {"16", "17", "18"}
        assert payload["l_min"] == 16

    def test_malformed_payload_raises_invalid_parameter(self):
        with pytest.raises(InvalidParameterError):
            features_from_dict({"n_points": 10})
        with pytest.raises(InvalidParameterError):
            features_from_dict(
                {
                    "n_points": "not-a-number-at-all",
                    "l_min": {},
                    "l_max": 2,
                    "p": 1,
                }
            )


class TestTraceToggle:
    def test_trace_true_records_and_restores(self, noise_series):
        was_enabled = repro.obs.enabled()
        features = extract_features(
            noise_series, 16, 16, p=10, include=(), store=False, trace=True
        )
        assert features.motif_pairs
        assert repro.obs.enabled() == was_enabled
