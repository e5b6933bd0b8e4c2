"""CLI tests for ``repro`` (subcommand dispatch) and ``repro lint``."""

import io
import json
import os

import pytest

from repro.cli import main, repro_main

CLEAN = """SPEC S [> interrupt3; exit WHERE
  PROC S = (read1; push2; S >> pop2; write3; exit)
        [] (eof1; make3; exit) END
ENDSPEC
"""

#: One warning (L001), no errors.
WARNING_ONLY = """SPEC a1; b2; exit WHERE
  PROC Helper = c2; exit END
ENDSPEC
"""

#: R1 error plus the L009 warning.
MIXED = "SPEC a1; c3; exit [] b2; c3; exit ENDSPEC\n"


@pytest.fixture()
def spec_file(tmp_path):
    def write(text, name="service.lotos"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestLintCommand:
    def test_clean_spec_exits_zero(self, spec_file, capsys):
        path = spec_file(CLEAN)
        assert repro_main(["lint", path]) == 0
        out = capsys.readouterr().out
        assert out.strip() == f"{path}: 0 error(s), 0 warning(s), 0 info(s)"

    def test_warnings_exit_zero_by_default(self, spec_file, capsys):
        assert repro_main(["lint", spec_file(WARNING_ONLY)]) == 0
        out = capsys.readouterr().out
        assert "[L001]" in out and "1 warning(s)" in out

    def test_strict_turns_warnings_into_failure(self, spec_file):
        assert repro_main(["lint", spec_file(WARNING_ONLY), "--strict"]) == 1

    def test_errors_exit_one(self, spec_file, capsys):
        assert repro_main(["lint", spec_file(MIXED)]) == 1
        out = capsys.readouterr().out
        assert "[R1]" in out and "[L009]" in out

    def test_mixed_choice_mode(self, spec_file, capsys):
        assert repro_main(["lint", spec_file(MIXED), "--mixed-choice"]) == 0
        out = capsys.readouterr().out
        assert "[R1]" not in out and "[L009]" not in out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert repro_main(["lint", str(tmp_path / "nope.lotos")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stdin_dash(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(WARNING_ONLY))
        assert repro_main(["lint", "-"]) == 0
        assert "<stdin>:2:8:" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert repro_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("L001", "L011"):
            assert rule_id in out
        assert "unused-process" in out

    def test_json_output_parses(self, spec_file, capsys):
        path = spec_file(WARNING_ONLY)
        assert repro_main(["lint", path, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["source"] == path
        assert document["summary"]["warnings"] == 1
        [entry] = document["diagnostics"]
        assert entry["rule"] == "L001"
        assert (entry["line"], entry["column"]) == (2, 8)

    def test_json_multi_file_document(self, spec_file, capsys):
        paths = [spec_file(CLEAN, "a.lotos"), spec_file(MIXED, "b.lotos")]
        assert repro_main(["lint", *paths, "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert [r["source"] for r in document["results"]] == paths

    def test_multiple_files_worst_exit_wins(self, spec_file):
        paths = [spec_file(CLEAN, "a.lotos"), spec_file(MIXED, "b.lotos")]
        assert repro_main(["lint", *paths]) == 1


class TestReproDispatch:
    def test_no_arguments_prints_usage(self, capsys):
        assert repro_main([]) == 2
        assert "usage: repro" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert repro_main(["--help"]) == 0
        assert "lint" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert repro_main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_derive_dispatches_to_main(self, spec_file, capsys):
        assert repro_main(["derive", spec_file(CLEAN)]) == 0
        assert "Protocol entity for place 1" in capsys.readouterr().out

    def test_lotos_pg_is_repro_derive(self, spec_file, capsys):
        path = spec_file(WARNING_ONLY)
        assert main([path, "--complexity"]) == 0
        alias = capsys.readouterr()
        assert repro_main(["derive", path, "--complexity"]) == 0
        assert capsys.readouterr() == alias

    @pytest.mark.parametrize(
        "argv",
        [
            ["derive", "{spec}", "--run", "-1"],
            ["profile", "{spec}", "--runs", "-2"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[2]}={argv[3]}",
    )
    def test_bad_numeric_flags_are_usage_errors(self, argv, spec_file, capsys):
        spec = spec_file(CLEAN)
        argv = [
            arg.format(spec=spec, dir=os.path.dirname(spec)) for arg in argv
        ]
        with pytest.raises(SystemExit) as excinfo:
            repro_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"usage: repro {argv[0]}" in err and argv[2] in err

    @pytest.mark.parametrize("command", ["lint", "derive", "profile"])
    def test_stdin_is_labelled_the_same_everywhere(
        self, command, monkeypatch, capsys
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(WARNING_ONLY))
        extra = ["--no-verify", "--runs", "0"] if command == "profile" else []
        assert repro_main([command, "-", *extra]) == 0
        captured = capsys.readouterr()
        assert "<stdin>" in captured.out + captured.err
        assert "-:2:8" not in captured.err


class TestDeriveSurfacesLint:
    def test_warnings_on_stderr_before_derivation(self, spec_file, capsys):
        assert main([spec_file(WARNING_ONLY)]) == 0
        captured = capsys.readouterr()
        assert "lint:" in captured.err and "[L001]" in captured.err
        assert "Protocol entity" in captured.out

    def test_clean_spec_stays_silent(self, spec_file, capsys):
        assert main([spec_file(CLEAN)]) == 0
        assert "lint:" not in capsys.readouterr().err

    def test_mixed_choice_derivation_not_nagged(self, spec_file, capsys):
        assert main([spec_file(MIXED), "--mixed-choice"]) == 0
        assert "[L009]" not in capsys.readouterr().err
