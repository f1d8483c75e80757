"""Edge-branch tests for paths the main suites don't reach."""

import numpy as np
import pytest

from repro.core.valmod import Valmod
from repro.datasets import generate_epg, load_dataset
from repro.datasets.registry import dataset_spec
from repro.exceptions import InvalidParameterError
from repro.io import load_series, save_series


class TestDatasetKwargsPassThrough:
    def test_registry_forwards_generator_kwargs(self):
        fast = load_dataset("ECG", 2000, seed=0, beat_length=20)
        slow = load_dataset("ECG", 2000, seed=0, beat_length=100)
        assert not np.array_equal(fast, slow)

    def test_epg_lengths_respected(self):
        series, truth = generate_epg(
            4000, seed=1, probing_length=64, ingestion_length=96, occurrences=2
        )
        assert truth.probing_length == 64
        assert truth.ingestion_length == 96
        assert len(truth.probing_positions) == 2

    def test_spec_metadata_complete(self):
        for name in ("ECG", "GAP", "ASTRO", "EMG", "EEG"):
            spec = dataset_spec(name)
            assert spec.paper_points > 0
            assert spec.description


class TestIoEdges:
    def test_npy_2d_is_raveled(self, tmp_path, rng):
        path = tmp_path / "grid.npy"
        np.save(path, rng.standard_normal((10, 5)))
        out = load_series(path)
        assert out.shape == (50,)

    def test_save_series_rejects_nan(self, tmp_path):
        from repro.exceptions import InvalidSeriesError

        with pytest.raises(InvalidSeriesError):
            save_series(tmp_path / "bad.txt", np.array([1.0, np.nan]))

    def test_delimiter_handling(self, tmp_path, rng):
        path = tmp_path / "semi.csv"
        data = rng.standard_normal((20, 2))
        np.savetxt(path, data, delimiter=";")
        out = load_series(path, column=0, delimiter=";")
        np.testing.assert_allclose(out, data[:, 0], atol=1e-9)


class TestValmodCornerCases:
    def test_track_top_k_snapshots_present(self, structured_series):
        run = Valmod(structured_series, 40, 44, p=10, track_top_k=3).run()
        pairs = run.best_k_pairs()
        assert 1 <= len(pairs) <= 3
        for record in pairs:
            assert record.profile_a is not None
            assert record.profile_a.length == record.length

    def test_recompute_fraction_one_avoids_full_recomputes(self, noise_series):
        run = Valmod(noise_series, 16, 22, p=2, recompute_fraction=1.0).run()
        assert run.stats.n_full_recomputes == 0


class TestSparkBucketing:
    def test_bucket_means_preserve_monotonicity(self):
        from repro.viz import sparkline

        out = sparkline(np.linspace(0, 1, 1000), width=40)
        assert len(out) == 40
        assert list(out) == sorted(out)


class TestStreamingErrorPaths:
    def test_not_computed_guard(self, noise_series):
        from repro.exceptions import NotComputedError
        from repro.matrixprofile import StreamingMatrixProfile

        smp = StreamingMatrixProfile(noise_series[:200], length=16)
        smp._profile = None  # simulate a half-initialized instance
        with pytest.raises(NotComputedError):
            smp.matrix_profile()

    @pytest.mark.parametrize("length", [0, 1, -4, 101, 10_000])
    def test_invalid_lengths_rejected(self, noise_series, length):
        from repro.matrixprofile import StreamingMatrixProfile

        with pytest.raises(InvalidParameterError):
            StreamingMatrixProfile(noise_series[:200], length=length)

    def test_non_finite_seed_series_rejected(self):
        from repro.exceptions import InvalidSeriesError
        from repro.matrixprofile import StreamingMatrixProfile

        bad = np.ones(100)
        bad[40] = np.nan
        with pytest.raises(InvalidSeriesError):
            StreamingMatrixProfile(bad, length=10)
