"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

FAST = ["--instructions", "2500", "--warmup", "500", "--dvs-steps", "5"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reliability", "povray"])

    def test_all_commands_present(self):
        parser = build_parser()
        for cmd in ("suite", "table2", "reliability", "drm", "dtm", "sweep"):
            args = parser.parse_args(
                [cmd] + ([] if cmd == "suite" else ["twolf"])
                if cmd in ("reliability", "drm", "dtm", "sweep")
                else [cmd]
            )
            assert args.command == cmd


class TestCommands:
    def test_suite_lists_nine_apps(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        for name in ("MPGdec", "twolf", "art"):
            assert name in out

    def test_reliability_report(self, capsys):
        code = main(["reliability", "twolf", "--tqual", "400"] + FAST)
        out = capsys.readouterr().out
        assert code == 0
        assert "total FIT" in out
        assert "MTTF" in out
        for mech in ("EM", "SM", "TDDB", "TC"):
            assert mech in out

    def test_drm_decision(self, capsys):
        code = main(["drm", "twolf", "--tqual", "400", "--mode", "dvs"] + FAST)
        out = capsys.readouterr().out
        assert code == 0  # feasible at worst-case qualification
        assert "frequency" in out
        assert "performance" in out

    def test_drm_exit_code_on_infeasible(self, capsys):
        code = main(["drm", "MPGdec", "--tqual", "325", "--mode", "dvs"] + FAST)
        assert code == 2  # unreachable target signalled to scripts

    def test_dtm_decision(self, capsys):
        code = main(["dtm", "twolf", "--tlimit", "390"] + FAST)
        out = capsys.readouterr().out
        assert code == 0
        assert "peak T" in out

    def test_sweep(self, capsys):
        code = main(["sweep", "twolf", "--tquals", "345,400"] + FAST)
        out = capsys.readouterr().out
        assert code == 0
        assert "345" in out and "400" in out
        assert "performance" in out

    def test_sweep_same_with_and_without_store(self, tmp_path, capsys):
        args = ["sweep", "twolf", "--tquals", "345,400", "--mode", "dvs"] + FAST
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("cmd", [["sweep", "twolf"], ["engine"]])
    def test_resume_needs_cache_dir(self, cmd, capsys):
        assert main(cmd + ["--resume"]) == 2
        assert "--resume needs --cache-dir" in capsys.readouterr().err

    def test_map_renders(self, capsys):
        code = main(["map", "MPGdec"] + FAST)
        out = capsys.readouterr().out
        assert code == 0
        assert "hottest:" in out
        assert "scale" in out

    def test_cache_dir_used(self, tmp_path, capsys):
        code = main(
            ["reliability", "art", "--tqual", "400", "--cache-dir", str(tmp_path)]
            + FAST
        )
        assert code == 0
        assert list(tmp_path.glob("objects/*/*.json"))
