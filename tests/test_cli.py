"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_motifs_defaults(self):
        args = build_parser().parse_args(["motifs"])
        assert args.dataset == "ECG"
        assert args.l_min == 64

    def test_bench_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])

    def test_n_jobs_only_where_algorithm3_runs(self, capsys):
        """``--n-jobs`` splits Algorithm 3's row blocks; ``profile`` runs
        a serial engine, so it does not take the flag."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--n-jobs", "2"])
        capsys.readouterr()
        assert build_parser().parse_args(["motifs", "--n-jobs", "2"]).n_jobs == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["motifs", "--help"])
        assert "row blocks" in capsys.readouterr().out


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("ECG", "GAP", "ASTRO", "EMG", "EEG"):
            assert name in out

    def test_motifs_synthetic(self, capsys):
        code = main(
            [
                "motifs",
                "--dataset", "ECG",
                "--points", "1500",
                "--l-min", "32",
                "--l-max", "36",
                "--p", "10",
                "--top", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "length" in out
        assert "processed 5 lengths" in out

    def test_sets_synthetic(self, capsys):
        code = main(
            [
                "sets",
                "--dataset", "EEG",
                "--points", "1500",
                "--l-min", "32",
                "--l-max", "36",
                "--k", "3",
                "--p", "10",
            ]
        )
        assert code == 0
        assert "motif sets" in capsys.readouterr().out

    def test_motifs_from_csv(self, tmp_path, capsys):
        path = tmp_path / "series.txt"
        rng = np.random.default_rng(0)
        np.savetxt(path, rng.standard_normal(600))
        code = main(
            ["motifs", "--csv", str(path), "--l-min", "16", "--l-max", "18", "--p", "5"]
        )
        assert code == 0

    def test_discords_synthetic(self, capsys):
        code = main(
            [
                "discords",
                "--dataset", "EEG",
                "--points", "1200",
                "--l-min", "20",
                "--l-max", "24",
                "--top", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "start" in out

    def test_motifs_export(self, tmp_path, capsys):
        import json

        target = tmp_path / "run.json"
        code = main(
            [
                "motifs",
                "--dataset", "ECG",
                "--points", "1200",
                "--l-min", "24",
                "--l-max", "26",
                "--p", "10",
                "--export", str(target),
            ]
        )
        assert code == 0
        data = json.loads(target.read_text())
        assert data["l_min"] == 24
        assert set(data["motif_pairs"]) == {"24", "25", "26"}

    def test_segment_synthetic(self, capsys):
        code = main(
            [
                "segment",
                "--dataset", "GAP",
                "--points", "1600",
                "--l-min", "24",
                "--regimes", "2",
            ]
        )
        assert code == 0
        assert "boundary" in capsys.readouterr().out

    def test_snippets_synthetic(self, capsys):
        code = main(
            [
                "snippets",
                "--dataset", "ECG",
                "--points", "1600",
                "--l-min", "32",
                "--k", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "coverage" in out

    def test_stream_synthetic(self, capsys):
        code = main(
            [
                "stream",
                "--dataset", "ECG",
                "--points", "800",
                "--l-min", "24",
                "--l-max", "28",
                "--init", "200",
                "--chunk", "100",
                "--max-points", "400",
                "--snapshot-every", "200",
                "--k-discords", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# streaming 600 points" in out
        assert "window-evicted" in out
        assert "# snapshot @" in out
        assert "# final window [400, 800)" in out
        assert "normalized" in out  # motif + discord tables printed

    def test_stream_from_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        rng = np.random.default_rng(0)
        series = np.cumsum(rng.standard_normal(500))
        text = "\n".join(f"{v:.9f}" for v in series)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main(
            ["stream", "--csv", "-", "--l-min", "16", "--l-max", "20",
             "--init", "100", "--chunk", "200"]
        )
        assert code == 0
        assert "# final window [0, 500)" in capsys.readouterr().out

    def test_stream_rejects_short_feed(self, capsys):
        code = main(
            ["stream", "--dataset", "ECG", "--points", "150",
             "--l-min", "24", "--l-max", "28", "--init", "200"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_error_reported_cleanly(self, capsys):
        code = main(
            ["motifs", "--dataset", "ECG", "--points", "100",
             "--l-min", "64", "--l-max", "96"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTrace:
    def test_trace_flag_available_on_every_subcommand(self):
        parser = build_parser()
        for command in (
            "motifs", "profile", "discords", "sets",
            "segment", "snippets", "datasets", "bench",
        ):
            extra = ["fig8"] if command == "bench" else []
            args = parser.parse_args([command, *extra, "--trace"])
            assert args.trace is True
            assert args.trace_format == "json"
            assert args.trace_out is None

    def test_trace_emits_json_after_output(self, capsys):
        import json

        from repro import obs

        was_enabled = obs.enabled()
        code = main(
            [
                "profile",
                "--dataset", "ECG",
                "--points", "1000",
                "--length", "32",
                "--trace",
            ]
        )
        assert code == 0
        # --trace must restore whatever the ambient state was
        assert obs.enabled() == was_enabled
        out = capsys.readouterr().out
        report = json.loads(out[out.index("\n{"):])
        assert report["counters"]["engine.rows"] == 1000 - 32 + 1
        assert "engine.blocked_stomp" in report["spans"]

    def test_trace_out_writes_clean_json(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "trace.json"
        code = main(
            [
                "motifs",
                "--dataset", "ECG",
                "--points", "1000",
                "--l-min", "24",
                "--l-max", "26",
                "--p", "10",
                "--trace",
                "--trace-out", str(out_file),
            ]
        )
        assert code == 0
        assert f"trace report written to {out_file}" in capsys.readouterr().out
        report = json.loads(out_file.read_text())
        assert 0.0 <= report["derived"]["pruning_power"] <= 1.0
        assert report["enabled"] is True

    def test_trace_pretty_format(self, capsys):
        code = main(
            [
                "profile",
                "--dataset", "ECG",
                "--points", "900",
                "--length", "24",
                "--trace",
                "--trace-format", "pretty",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "counters" in out
        assert "engine.rows" in out

    def test_trace_emitted_even_on_failure(self, capsys):
        code = main(
            [
                "motifs",
                "--dataset", "ECG",
                "--points", "100",
                "--l-min", "64",
                "--l-max", "96",
                "--trace",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        # a (possibly empty) trace report still lands on stdout
        assert '"counters"' in captured.out
