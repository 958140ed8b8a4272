"""``python -m repro analyze`` contract: exit codes, baseline, formats.

Exit codes: 0 clean, 1 findings (or stale baseline), 2 usage error.
Each test runs the real CLI entry point against a fixture tree, chdir'd
so default paths and the baseline resolve inside ``tmp_path``.
"""

import json
import textwrap

import pytest

from repro.cli import main

CLEAN = """
    def solve(temperature_k: float):
        return temperature_k
"""

DIRTY = """
    def check(x):
        return x == 1.5
"""


@pytest.fixture
def project(tmp_path, monkeypatch):
    def build(src=CLEAN, tests="x = 1\n"):
        (tmp_path / "src").mkdir(exist_ok=True)
        (tmp_path / "tests").mkdir(exist_ok=True)
        (tmp_path / "src" / "mod.py").write_text(
            textwrap.dedent(src), encoding="utf-8"
        )
        (tmp_path / "tests" / "test_mod.py").write_text(
            textwrap.dedent(tests), encoding="utf-8"
        )
        monkeypatch.chdir(tmp_path)
        return tmp_path

    return build


class TestExitCodes:
    def test_clean_tree_exits_zero(self, project, capsys):
        project()
        assert main(["analyze"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, project, capsys):
        project(src=DIRTY)
        assert main(["analyze"]) == 1
        assert "RPR004" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, project, capsys):
        project()
        assert main(["analyze", "no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_rule_id_is_usage_error(self, project, capsys):
        project()
        assert main(["analyze", "--select", "RPR999"]) == 2
        assert "RPR999" in capsys.readouterr().err

    def test_unknown_flag_raises_systemexit_two(self, project):
        project()
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--bogus"])
        assert exc.value.code == 2


class TestBaselineFlow:
    def test_update_then_clean_then_ratchet(self, project, capsys):
        root = project(src=DIRTY)

        # Click the ratchet: record current debt, then the run is clean.
        assert main(["analyze", "--update-baseline"]) == 0
        assert (root / "analysis-baseline.json").is_file()
        capsys.readouterr()
        assert main(["analyze"]) == 0
        assert "1 baselined" in capsys.readouterr().out

        # New debt on top of the baseline still fails.
        (root / "src" / "mod.py").write_text(
            textwrap.dedent(DIRTY) + "Y = 0.9\n", encoding="utf-8"
        )
        assert main(["analyze"]) == 1

    def test_fixed_debt_makes_baseline_stale(self, project, capsys):
        root = project(src=DIRTY)
        assert main(["analyze", "--update-baseline"]) == 0

        (root / "src" / "mod.py").write_text(
            textwrap.dedent(CLEAN), encoding="utf-8"
        )
        capsys.readouterr()
        assert main(["analyze"]) == 1
        assert "stale" in capsys.readouterr().out

        # --update-baseline clicks the ratchet down again.
        assert main(["analyze", "--update-baseline"]) == 0
        assert main(["analyze"]) == 0
        payload = json.loads(
            (root / "analysis-baseline.json").read_text(encoding="utf-8")
        )
        assert payload["findings"] == {}

    def test_no_baseline_flag_shows_all_findings(self, project):
        project(src=DIRTY)
        assert main(["analyze", "--update-baseline"]) == 0
        assert main(["analyze", "--no-baseline"]) == 1

    def test_malformed_baseline_is_usage_error(self, project, capsys):
        root = project()
        (root / "analysis-baseline.json").write_text("{", encoding="utf-8")
        assert main(["analyze"]) == 2
        assert "baseline" in capsys.readouterr().err


class TestOutputs:
    def test_json_format_is_parseable(self, project, capsys):
        project(src=DIRTY)
        assert main(["analyze", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["findings"] == 1

    def test_sarif_written_to_output_file(self, project, tmp_path):
        project(src=DIRTY)
        out = tmp_path / "report.sarif"
        assert main(["analyze", "--format", "sarif", "--output", str(out)]) == 1
        sarif = json.loads(out.read_text(encoding="utf-8"))
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["results"][0]["ruleId"] == "RPR004"

    def test_list_rules(self, project, capsys):
        project()
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006"):
            assert rule_id in out

    def test_select_limits_rules(self, project):
        project(src=DIRTY)
        assert main(["analyze", "--select", "RPR001"]) == 0
        assert main(["analyze", "--select", "RPR004"]) == 1

    def test_pyproject_config_paths(self, project):
        root = project(src=CLEAN)
        (root / "extra").mkdir()
        (root / "extra" / "mod.py").write_text(
            textwrap.dedent(DIRTY), encoding="utf-8"
        )
        (root / "pyproject.toml").write_text(
            '[tool.repro.analysis]\npaths = ["extra"]\n', encoding="utf-8"
        )
        assert main(["analyze"]) == 1


def _git(root, *args):
    import subprocess

    subprocess.run(
        ["git", "-c", "user.email=t@example.com", "-c", "user.name=t",
         *args],
        cwd=root, check=True, capture_output=True,
    )


class TestChangedMode:
    def test_reports_only_changed_files(self, project, capsys):
        root = project(src=DIRTY)
        (root / "src" / "other.py").write_text(
            textwrap.dedent(CLEAN), encoding="utf-8"
        )
        _git(root, "init", "-q")
        _git(root, "add", "-A")
        _git(root, "commit", "-qm", "seed")
        # The committed finding in mod.py is not reported; a fresh
        # finding in the edited file is.
        (root / "src" / "other.py").write_text(
            textwrap.dedent(DIRTY), encoding="utf-8"
        )
        assert main(["analyze", "--changed", "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "other.py" in out
        assert "mod.py" not in out

    def test_no_changes_short_circuits_clean(self, project, capsys):
        root = project(src=DIRTY)
        _git(root, "init", "-q")
        _git(root, "add", "-A")
        _git(root, "commit", "-qm", "seed")
        assert main(["analyze", "--changed", "--no-baseline"]) == 0
        assert "no changed python files" in capsys.readouterr().err

    def test_untracked_files_count_as_changed(self, project, capsys):
        root = project(src=CLEAN)
        _git(root, "init", "-q")
        _git(root, "add", "-A")
        _git(root, "commit", "-qm", "seed")
        (root / "src" / "fresh.py").write_text(
            textwrap.dedent(DIRTY), encoding="utf-8"
        )
        assert main(["analyze", "--changed", "--no-baseline"]) == 1
        assert "fresh.py" in capsys.readouterr().out

    def test_outside_git_falls_back_to_full_run(self, project, capsys):
        project(src=DIRTY)
        assert main(["analyze", "--changed", "--no-baseline"]) == 1
        assert "running on everything" in capsys.readouterr().err


class TestStatsJson:
    def test_stats_json_written(self, project, tmp_path):
        project()
        out = tmp_path / "stats.json"
        assert main(["analyze", "--stats-json", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["files"] == payload["analyzed"] == 2
        assert payload["duration_s"] >= 0.0
        assert payload["files_per_s"] > 0.0
        assert payload["callgraph_rules"] > 0
        assert payload["range_rules"] == 1
        assert payload["callgraph_pass_s"] >= 0.0
        assert payload["range_pass_s"] >= 0.0
        # A file-only rule selection skips both project passes.
        assert main(["analyze", "--select", "RPR101",
                     "--stats-json", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["callgraph_rules"] == payload["range_rules"] == 0
        assert not payload["callgraph_pass_s"]
        assert not payload["range_pass_s"]
