"""Integration tests for the VALMOD driver (Algorithm 1) — invariant 4:
VALMOD's per-length motif pairs equal the ground truth, always."""

import numpy as np
import pytest

from repro.baselines.stomp_range import stomp_range
from repro.core.valmod import Valmod, valmod
from repro.core.valmp import VALMP
from repro.exceptions import InvalidParameterError, InvalidSeriesError


def assert_same_motifs(mine, reference, atol=1e-6):
    assert set(mine) == set(reference)
    for length in reference:
        assert mine[length].distance == pytest.approx(
            reference[length].distance, abs=atol
        ), f"motif distance mismatch at length {length}"


class TestExactness:
    def test_noise(self, noise_series):
        run = Valmod(noise_series, 16, 28, p=8).run()
        assert_same_motifs(run.motif_pairs, stomp_range(noise_series, 16, 28))

    def test_structured(self, structured_series):
        run = Valmod(structured_series, 40, 60, p=20).run()
        assert_same_motifs(
            run.motif_pairs, stomp_range(structured_series, 40, 60)
        )

    def test_planted(self, planted):
        run = Valmod(planted.series, 32, 48, p=10).run()
        assert_same_motifs(run.motif_pairs, stomp_range(planted.series, 32, 48))
        best = run.best_motif_pair()
        assert planted.hit(best.a, tolerance=40)
        assert planted.hit(best.b, tolerance=40)

    def test_tiny_p(self, noise_series):
        """p=1 stresses every fallback path; results must stay exact."""
        run = Valmod(noise_series, 16, 22, p=1).run()
        assert_same_motifs(run.motif_pairs, stomp_range(noise_series, 16, 22))

    def test_huge_p(self, noise_series):
        """p >= candidate count: every profile fully stored, no fallbacks."""
        run = Valmod(noise_series, 16, 20, p=10_000).run()
        assert_same_motifs(run.motif_pairs, stomp_range(noise_series, 16, 20))
        assert run.stats.n_full_recomputes == 0

    def test_single_length_range(self, noise_series):
        run = Valmod(noise_series, 16, 16).run()
        assert list(run.motif_pairs) == [16]

    def test_constant_segments(self):
        t = np.random.default_rng(5).standard_normal(300)
        t[100:140] = 1.0
        run = Valmod(t, 12, 18, p=10).run()
        assert_same_motifs(run.motif_pairs, stomp_range(t, 12, 18))


class TestAblations:
    def test_no_lb_pruning_equals_pruned(self, structured_series):
        pruned = Valmod(structured_series, 40, 50, p=20).run()
        unpruned = Valmod(structured_series, 40, 50, lb_pruning=False).run()
        assert_same_motifs(pruned.motif_pairs, unpruned.motif_pairs)
        assert unpruned.stats.n_full_recomputes == 10  # every non-initial length

    def test_no_partial_recompute_still_exact(self, noise_series):
        run = Valmod(noise_series, 16, 24, p=4, recompute_fraction=0.0).run()
        assert_same_motifs(run.motif_pairs, stomp_range(noise_series, 16, 24))
        assert run.stats.n_partial_recomputes == 0


class TestValmpSemantics:
    def test_valmp_upper_bounds_exact_valmp(self, structured_series):
        """VALMOD's VALMP entries are >= the exhaustive VALMP entries
        (non-valid profiles may retain a coarser length's value), and the
        global minimum is exact."""
        run = Valmod(structured_series, 40, 52, p=20).run()
        exact = VALMP(structured_series.size - 40 + 1)
        stomp_range(structured_series, 40, 52, valmp=exact)
        mine = run.valmp
        mask = exact.updated & mine.updated
        assert mask.any()
        assert np.all(
            mine.norm_distances[mask] >= exact.norm_distances[mask] - 1e-9
        )
        assert mine.motif_pair().normalized_distance == pytest.approx(
            exact.motif_pair().normalized_distance, abs=1e-9
        )

    def test_valmp_lengths_in_range(self, noise_series):
        run = Valmod(noise_series, 16, 24, p=8).run()
        lengths = run.valmp.lengths[run.valmp.updated]
        assert lengths.min() >= 16
        assert lengths.max() <= 24


class TestStats:
    def test_every_length_recorded(self, noise_series):
        run = Valmod(noise_series, 16, 24, p=8).run()
        assert [s.length for s in run.stats.per_length] == list(range(16, 25))
        assert run.stats.per_length[0].mode == "initial"

    def test_modes_partition(self, noise_series):
        run = Valmod(noise_series, 16, 24, p=8).run()
        stats = run.stats
        assert (
            stats.n_fast_lengths
            + stats.n_partial_recomputes
            + stats.n_full_recomputes
            == len(stats.per_length) - 1
        )

    def test_valid_counts_match_pruning_margins(self, noise_series):
        """The first step's valid profiles are the ones Fig. 9's margins
        (``pruning_margins``) show as positive."""
        from repro.analysis.pruning import pruning_margins

        run = Valmod(noise_series, 16, 18, p=8).run()
        first = run.stats.per_length[1]
        assert first.length == 17 and first.mode.startswith("submp")
        margins = pruning_margins(noise_series, 16, 17, p=8)
        assert first.n_valid == int((margins > 0).sum())
        assert first.n_valid + first.n_invalid == first.n_profiles == margins.size

    def test_summary_mentions_counts(self, noise_series):
        run = Valmod(noise_series, 16, 18, p=8).run()
        assert "lengths" in run.stats.summary()


class TestValidation:
    def test_reversed_range(self, noise_series):
        with pytest.raises(InvalidParameterError):
            Valmod(noise_series, 24, 16)

    def test_length_too_large(self, noise_series):
        with pytest.raises(InvalidParameterError):
            Valmod(noise_series, 16, noise_series.size)

    def test_bad_p(self, noise_series):
        with pytest.raises(InvalidParameterError):
            Valmod(noise_series, 16, 20, p=0)

    def test_bad_series(self):
        with pytest.raises(InvalidSeriesError):
            Valmod([1.0, np.nan, 2.0] * 20, 4, 6)

    def test_functional_wrapper(self, noise_series):
        result = valmod(noise_series, 16, 18, p=8)
        assert set(result.motif_pairs) == {16, 17, 18}


class TestRankedOutput:
    def test_ranked_pairs_sorted(self, structured_series):
        run = Valmod(structured_series, 40, 50, p=20).run()
        ranked = run.ranked_motif_pairs()
        norms = [p.normalized_distance for p in ranked]
        assert norms == sorted(norms)
        assert run.best_motif_pair() == ranked[0]
