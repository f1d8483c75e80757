"""Tests for the repro.lint static analyzer.

Each rule has a bad/good fixture pair under ``tests/lint_fixtures/``;
kernel-scoped rules live in a ``matrixprofile/`` subdirectory so the
path-based module classification kicks in.  The suite also self-checks
that the shipped source tree lints clean — the same gate CI runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import InvalidParameterError
from repro.lint import all_rules, lint_paths, lint_source
from repro.lint.cli import format_rule_table, main

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC = Path(__file__).parent.parent / "src" / "repro"

RULE_IDS = (
    "R002",
    "R007",
    "R008",
    "R009",
    "R010",
    "R011",
)

# rule id -> fixture path relative to FIXTURES, expected violation count
BAD_FIXTURES = {
    "R002": ("matrixprofile/r002_bad.py", 1),
    "R007": ("obs/r007_bad.py", 2),
    "R008": ("r008_bad.py", 2),
    "R009": ("r009_bad.py", 2),
    "R010": ("r010_bad.py", 2),
    "R011": ("r011_bad.py", 2),
}
GOOD_FIXTURES = {
    "R002": "matrixprofile/r002_good.py",
    "R007": "obs/r007_good.py",
    "R008": "r008_good.py",
    "R009": "r009_good.py",
    "R010": "r010_good.py",
    "R011": "matrixprofile/r011_good.py",
}


def rule_ids(diagnostics):
    return [diag.rule_id for diag in diagnostics]


class TestRuleRegistry:
    def test_all_rules_registered(self):
        assert tuple(rule.rule_id for rule in all_rules()) == RULE_IDS

    def test_rules_carry_documentation(self):
        for rule in all_rules():
            assert rule.name, rule.rule_id
            assert rule.summary, rule.rule_id
            assert rule.rationale, rule.rule_id


class TestBadFixtures:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_bad_fixture_flags_expected_rule(self, rule_id):
        rel, expected = BAD_FIXTURES[rule_id]
        diagnostics = lint_paths([FIXTURES / rel])
        assert rule_ids(diagnostics) == [rule_id] * expected

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_diagnostic_format_has_location_and_id(self, rule_id):
        rel, _ = BAD_FIXTURES[rule_id]
        diag = lint_paths([FIXTURES / rel])[0]
        rendered = diag.format()
        assert rule_id in rendered
        assert Path(rel).name in rendered
        # path:line:col: prefix
        assert f":{diag.line}:{diag.col}:" in rendered


class TestGoodFixtures:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_good_fixture_is_clean(self, rule_id):
        diagnostics = lint_paths([FIXTURES / GOOD_FIXTURES[rule_id]])
        assert diagnostics == []

    def test_whole_fixture_tree_flags_only_bad_files(self):
        diagnostics = lint_paths([FIXTURES])
        assert all("_bad" in diag.path for diag in diagnostics)
        assert sorted(set(rule_ids(diagnostics))) == sorted(RULE_IDS)


class TestSelfCheck:
    def test_shipped_source_tree_is_clean(self):
        # The repo-wide gate: the analyzer must pass on its own codebase.
        assert lint_paths([SRC]) == []


class TestSelection:
    def test_select_restricts_rules(self):
        rel, _ = BAD_FIXTURES["R009"]
        assert rule_ids(lint_paths([FIXTURES / rel], select=["R009"])) == [
            "R009",
            "R009",
        ]
        assert lint_paths([FIXTURES / rel], select=["R002"]) == []

    def test_unknown_rule_id_raises(self):
        with pytest.raises(InvalidParameterError):
            lint_paths([FIXTURES], select=["R999"])


class TestPragmas:
    def test_line_pragma_suppresses_one_rule(self):
        source = (
            "def scale(qt, sigma):\n"
            "    return qt / sigma  # repro-lint: ignore[R002]\n"
        )
        assert lint_source(source, path="matrixprofile/fake.py") == []

    def test_line_pragma_is_rule_specific(self):
        source = (
            "def scale(qt, sigma):\n"
            "    return qt / sigma  # repro-lint: ignore[R007]\n"
        )
        # The R002 diagnostic still fires (the pragma names a different
        # rule), and the R007 pragma — having suppressed nothing — is
        # itself reported stale by R011.
        assert sorted(rule_ids(lint_source(source, path="matrixprofile/fake.py"))) == [
            "R002",
            "R011",
        ]

    def test_skip_file_pragma(self):
        source = (
            "# repro-lint: skip-file\n"
            "def scale(qt, sigma):\n"
            "    return qt / sigma\n"
        )
        assert lint_source(source, path="matrixprofile/fake.py") == []


class TestObsLayering:
    def test_foundation_module_may_not_import_obs(self):
        source = "from repro.obs import tracer\n"
        assert rule_ids(lint_source(source, path="src/repro/types.py")) == [
            "R007"
        ]

    def test_from_repro_import_obs_alias_is_seen(self):
        # the alias form must not hide the layering violation
        source = "from repro import obs\n"
        assert rule_ids(lint_source(source, path="src/repro/exceptions.py")) == [
            "R007"
        ]

    def test_foundation_rule_ignores_other_imports(self):
        source = "import numpy as np\nfrom repro.exceptions import ReproError\n"
        assert lint_source(source, path="src/repro/types.py") == []

    def test_non_foundation_non_obs_module_is_out_of_scope(self):
        # kernels importing obs is the intended direction
        source = "from repro import obs\nfrom repro.matrixprofile import stomp\n"
        assert lint_source(source, path="src/repro/core/whatever.py") == []


class TestFeaturesLayering:
    def test_store_import_outside_facade_is_flagged(self):
        source = "from repro.features.store import FeatureStore\n"
        assert rule_ids(lint_source(source, path="src/repro/cli.py")) == [
            "R009"
        ]

    def test_store_import_inside_facade_is_allowed(self):
        source = "from repro.features.store import FeatureStore\n"
        assert (
            lint_source(source, path="src/repro/features/facade.py") == []
        )

    def test_two_workload_families_flagged_once_per_extra_family(self):
        source = (
            "from repro.core.valmod import Valmod\n"
            "from repro.core.discords import find_discords\n"
            "from repro.core.segmentation import fluss\n"
        )
        assert rule_ids(lint_source(source, path="src/repro/tool.py")) == [
            "R009",
            "R009",
        ]

    def test_one_family_spread_over_modules_is_allowed(self):
        # valmod + motif_sets + ranking are one family (motifs): staged
        # timing of VALMP build vs set extraction is legitimate.
        source = (
            "from repro.core.valmod import Valmod\n"
            "from repro.core.motif_sets import compute_motif_sets\n"
            "from repro.core.ranking import top_motifs_across_lengths\n"
        )
        assert lint_source(source, path="src/repro/harness/tool.py") == []

    def test_init_modules_may_reexport_everything(self):
        source = (
            "from repro.core.valmod import Valmod\n"
            "from repro.core.discords import find_discords\n"
            "from repro.multiseries import find_snippets\n"
        )
        assert lint_source(source, path="src/repro/__init__.py") == []

    def test_facade_composes_freely(self):
        source = (
            "from repro.core.valmod import Valmod\n"
            "from repro.core.discords import find_discords\n"
            "from repro.core.chains import unanchored_chain\n"
        )
        assert (
            lint_source(source, path="src/repro/features/facade.py") == []
        )

    def test_aliased_from_import_is_seen(self):
        # ``from repro.core import X`` prefix-matches the core package.
        source = (
            "from repro.core import Valmod\n"
            "from repro.multiseries import find_snippets\n"
        )
        assert rule_ids(lint_source(source, path="src/repro/tool.py")) == [
            "R009"
        ]


class TestScoping:
    def test_kernel_rules_ignore_non_kernel_paths(self):
        source = "def scale(qt, sigma):\n    return qt / sigma\n"
        # Same code outside a kernel package: R002 does not apply.
        assert lint_source(source, path="analysis/fake.py") == []

    def test_syntax_error_becomes_diagnostic(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        diagnostics = lint_paths([broken])
        assert rule_ids(diagnostics) == ["E000"]


class TestCli:
    def test_main_exit_zero_on_clean_path(self, capsys):
        assert main([str(FIXTURES / GOOD_FIXTURES["R002"])]) == 0

    def test_main_exit_one_with_diagnostics(self, capsys):
        rel, _ = BAD_FIXTURES["R002"]
        assert main([str(FIXTURES / rel)]) == 1
        out = capsys.readouterr().out
        assert "R002" in out
        assert "r002_bad.py" in out

    def test_main_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out
        assert "R012" not in out  # retired with the float32 scoring path

    def test_main_usage_error_on_unknown_rule(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--select", "R999", str(FIXTURES)])
        assert excinfo.value.code == 2

    def test_format_rule_table_has_header(self):
        table = format_rule_table()
        assert table.splitlines()[0].startswith("ID")

    def test_module_entry_point(self):
        # the exact invocation CI uses: python -m repro.lint <path>
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(FIXTURES / "r009_bad.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "R009" in proc.stdout
        assert "violation(s) found" in proc.stderr


class TestJsonFormat:
    def test_json_envelope_on_bad_fixture(self, capsys):
        rel, expected = BAD_FIXTURES["R009"]
        assert main(["--format", "json", str(FIXTURES / rel)]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["version"] == 1
        assert payload["count"] == expected == len(payload["diagnostics"])
        assert payload["rules"] == list(RULE_IDS)
        diag = payload["diagnostics"][0]
        assert set(diag) == {"path", "line", "col", "rule_id", "message"}
        assert diag["rule_id"] == "R009"
        # json mode keeps stderr silent: the envelope is the whole report
        assert captured.err == ""

    def test_json_envelope_on_clean_path(self, capsys):
        path = str(FIXTURES / GOOD_FIXTURES["R002"])
        assert main(["--format", "json", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0
        assert payload["diagnostics"] == []

    def test_json_rules_reflect_selection(self, capsys):
        rel, _ = BAD_FIXTURES["R009"]
        args = ["--format", "json", "--select", "R010,R009", str(FIXTURES / rel)]
        assert main(args) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == ["R009", "R010"]


class TestRunnerEdgeCases:
    def test_unreadable_file_becomes_diagnostic(self, tmp_path):
        bogus = tmp_path / "bogus.py"
        bogus.write_bytes(b"\xff\xfe not utf-8 \xff\n")
        assert rule_ids(lint_paths([bogus])) == ["E001"]

    def test_pycache_and_non_python_files_skipped(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "mod.py").write_text("def oops(:\n")
        (tmp_path / "notes.txt").write_text("not python (\n")
        (tmp_path / "data.json").write_text("{]\n")
        assert lint_paths([tmp_path]) == []

    def test_pragma_on_last_line_of_multiline_statement(self):
        source = (
            "def scale(qt, sigma):\n"
            "    return (\n"
            "        qt / sigma\n"
            "    )  # repro-lint: ignore[R002]\n"
        )
        assert lint_source(source, path="matrixprofile/fake.py") == []

    def test_skip_file_pragma_below_line_one(self):
        source = (
            '"""Docstring first, pragma second."""\n'
            "# repro-lint: skip-file\n"
            "def scale(qt, sigma):\n"
            "    return qt / sigma\n"
        )
        assert lint_source(source, path="matrixprofile/fake.py") == []

    def test_ordering_is_deterministic(self):
        paths = [
            FIXTURES / BAD_FIXTURES["R010"][0],
            FIXTURES / BAD_FIXTURES["R009"][0],
        ]
        forward = lint_paths(paths)
        assert forward == lint_paths(list(reversed(paths)))
        assert forward == sorted(
            forward,
            key=lambda d: (d.path, d.line, d.col, d.rule_id, d.message),
        )

    def test_empty_select_entry_raises(self):
        with pytest.raises(InvalidParameterError):
            lint_paths([FIXTURES], select=[""])

    def test_cli_empty_select_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--select", "", str(FIXTURES)])
        assert excinfo.value.code == 2


class TestObsRegistryCanary:
    def test_seeded_typo_fails_both_directions(self, tmp_path):
        # The CI canary contract: misspell one literal emission site in a
        # copy of the shipped tree and R010 must report the unknown name
        # at the emission site AND the now-orphaned registry declaration.
        copy = tmp_path / "repro"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / "core" / "compute_submp.py"
        text = target.read_text()
        assert 'obs.add("submp.profiles.total"' in text
        target.write_text(
            text.replace(
                'obs.add("submp.profiles.total"',
                'obs.add("submp.profiles.totall"',
                1,
            )
        )
        diagnostics = lint_paths([copy], select=["R010"])
        assert diagnostics and {d.rule_id for d in diagnostics} == {"R010"}
        messages = [d.message for d in diagnostics]
        assert any("submp.profiles.totall" in m for m in messages)
        assert any("never emitted" in m for m in messages)

    def test_unseeded_copy_is_clean(self, tmp_path):
        copy = tmp_path / "repro"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        assert lint_paths([copy], select=["R010"]) == []


class TestStalePragma:
    def test_stale_pragma_is_flagged(self):
        source = "x = 1  # repro-lint: ignore[R002]\n"
        diags = lint_source(source, path="matrixprofile/fake.py")
        assert rule_ids(diags) == ["R011"]
        assert "stale" in diags[0].message

    def test_unknown_rule_id_in_pragma_is_flagged(self):
        source = "x = 1  # repro-lint: ignore[R999]\n"
        diags = lint_source(source, path="matrixprofile/fake.py")
        assert rule_ids(diags) == ["R011"]
        assert "R999" in diags[0].message

    def test_used_pragma_is_not_stale(self):
        source = (
            "def scale(qt, sigma):\n"
            "    return qt / sigma  # repro-lint: ignore[R002]\n"
        )
        assert lint_source(source, path="matrixprofile/fake.py") == []

    def test_pragma_for_inactive_rule_is_not_stale(self):
        # When R002 is not in the active set it never had the chance to
        # fire, so its pragma cannot be proven stale.
        active = [r for r in all_rules() if r.rule_id == "R011"]
        source = "x = 1  # repro-lint: ignore[R002]\n"
        assert lint_source(source, path="matrixprofile/fake.py", rules=active) == []

