"""CLI surface of the observability work: --trace/--stats, profile, --version."""

import json

import pytest

from repro.cli import repro_main
from repro.obs.schema import validate_report

SERVICE = "SPEC a1; exit >> b2; exit ENDSPEC"


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "service.lotos"
    path.write_text(SERVICE)
    return str(path)


class TestDeriveObservability:
    def test_trace_goes_to_stderr(self, spec_path, capsys):
        assert repro_main(["derive", spec_path, "--trace"]) == 0
        captured = capsys.readouterr()
        assert "Protocol entity for place 1" in captured.out
        assert "derive" in captured.err
        assert "derive.parse" in captured.err
        assert "ms" in captured.err

    def test_stats_text_goes_to_stderr(self, spec_path, capsys):
        assert repro_main(["derive", spec_path, "--stats"]) == 0
        captured = capsys.readouterr()
        assert "derive.places 2" in captured.err

    def test_stats_json_is_a_valid_snapshot(self, spec_path, capsys):
        assert repro_main(["derive", spec_path, "--stats=json"]) == 0
        captured = capsys.readouterr()
        document = json.loads(captured.err)
        assert document["schema"] == "repro.obs.metrics/v1"

    def test_stdout_identical_with_and_without_observability(
        self, spec_path, capsys
    ):
        assert repro_main(["derive", spec_path]) == 0
        plain = capsys.readouterr().out
        assert repro_main(["derive", spec_path, "--trace", "--stats"]) == 0
        observed = capsys.readouterr().out
        assert observed == plain

    def test_quiet_silences_lint_warnings(self, tmp_path, capsys):
        # ||| with an event left of the bar that R-checks clean but lints:
        # reuse a spec that produces a lint info/warning via disable.
        path = tmp_path / "disable.lotos"
        path.write_text("SPEC (a1; b2; c3; exit) [> (d3; exit) ENDSPEC")
        assert repro_main(["derive", str(path)]) == 0
        loud = capsys.readouterr().err
        assert repro_main(["derive", str(path), "--quiet"]) == 0
        quiet = capsys.readouterr().err
        assert quiet == ""
        assert len(loud) >= len(quiet)


class TestProfileCommand:
    def test_emits_a_valid_report_on_stdout(self, spec_path, capsys):
        assert (
            repro_main(
                ["profile", spec_path, "--runs", "2", "--seed", "3"]
            )
            == 0
        )
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert validate_report(report) == []
        # spec-relative, never the absolute temp path: reports must be
        # machine-independent (see repro.obs.spec_display_name)
        assert report["source"] == "service.lotos"
        assert [row["seed"] for row in report["runs"]] == [3, 4]
        # the digest rides on stderr
        assert "profile of" in captured.err

    def test_quiet_suppresses_the_digest(self, spec_path, capsys):
        assert repro_main(["profile", spec_path, "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        json.loads(captured.out)

    def test_indent_zero_is_compact(self, spec_path, capsys):
        assert (
            repro_main(["profile", spec_path, "--quiet", "--indent", "0"])
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("\n") == 1  # one line + trailing newline

    def test_no_verify_flag(self, spec_path, capsys):
        assert repro_main(["profile", spec_path, "--quiet", "--no-verify"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verification"] is None

    def test_missing_file_exits_2(self, capsys):
        assert repro_main(["profile", "/nonexistent.lotos"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_spec_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.lotos"
        path.write_text("SPEC a1; b1; a1; exit ENDSPEC [")
        assert repro_main(["profile", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestVersionAndUsage:
    def test_repro_version(self, capsys):
        assert repro_main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.strip().split()[-1][0].isdigit()

    def test_subcommand_version_action(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["derive", "--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("repro derive ")

    def test_usage_lists_profile(self, capsys):
        assert repro_main(["--help"]) == 0
        assert "profile" in capsys.readouterr().out


class TestLintQuiet:
    def test_quiet_keeps_the_exit_code_but_prints_nothing(
        self, tmp_path, capsys
    ):
        path = tmp_path / "clean.lotos"
        path.write_text(SERVICE)
        assert repro_main(["lint", str(path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        bad = tmp_path / "bad.lotos"
        bad.write_text("SPEC a1; a2; exit [] a1; b2; exit ENDSPEC")
        code_loud = repro_main(["lint", str(bad)])
        loud = capsys.readouterr().out
        code_quiet = repro_main(["lint", str(bad), "--quiet"])
        quiet = capsys.readouterr().out
        assert code_quiet == code_loud
        assert quiet == "" and loud != ""
