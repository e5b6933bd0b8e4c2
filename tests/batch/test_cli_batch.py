"""CLI surface of ``repro batch``."""

import json
import pathlib

import pytest

from repro.cli import repro_main
from repro.obs.schema import validate_batch

GOLDEN_DIR = str(pathlib.Path(__file__).resolve().parents[1] / "goldens")


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


class TestBatchCommand:
    def test_emits_a_valid_summary_on_stdout(self, cache_dir, capsys):
        assert (
            repro_main(["batch", GOLDEN_DIR, "--cache-dir", cache_dir]) == 0
        )
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert validate_batch(summary) == []
        assert summary["totals"]["ok"] == summary["totals"]["specs"]
        # the digest rides on stderr
        assert "batch:" in captured.err

    def test_second_run_is_all_cache_hits(self, cache_dir, capsys):
        repro_main(["batch", GOLDEN_DIR, "--cache-dir", cache_dir, "--quiet"])
        capsys.readouterr()
        assert (
            repro_main(
                ["batch", GOLDEN_DIR, "--cache-dir", cache_dir, "--quiet"]
            )
            == 0
        )
        summary = json.loads(capsys.readouterr().out)
        assert summary["totals"]["derivations"] == 0
        assert summary["totals"]["cache_hits"] == summary["totals"]["specs"]

    def test_no_cache_bypasses_the_store(self, cache_dir, capsys):
        args = [
            "batch", GOLDEN_DIR, "--cache-dir", cache_dir, "--no-cache",
            "--quiet",
        ]
        assert repro_main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert repro_main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["cache"] is None
        assert second["totals"]["cache_hits"] == 0
        assert second["totals"]["derivations"] == second["totals"]["specs"]

    def test_quiet_suppresses_the_digest(self, cache_dir, capsys):
        assert (
            repro_main(
                ["batch", GOLDEN_DIR, "--cache-dir", cache_dir, "--quiet"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert captured.err == ""
        json.loads(captured.out)

    def test_failing_spec_sets_exit_code_without_aborting(
        self, tmp_path, capsys
    ):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "good.lotos").write_text("SPEC a1; exit >> b2; exit ENDSPEC")
        (corpus / "bad.lotos").write_text("SPEC utterly broken (")
        assert (
            repro_main(
                ["batch", str(corpus), "--no-cache", "--quiet"]
            )
            == 1
        )
        summary = json.loads(capsys.readouterr().out)
        by_name = {row["name"]: row for row in summary["specs"]}
        assert by_name["good"]["status"] == "ok"
        assert by_name["bad"]["status"] == "failed"

    def test_missing_corpus_is_a_usage_error(self, tmp_path, capsys):
        assert (
            repro_main(["batch", str(tmp_path / "nowhere"), "--quiet"]) == 2
        )
        assert "error:" in capsys.readouterr().err

    def test_out_writes_entity_files(self, cache_dir, tmp_path, capsys):
        out_dir = tmp_path / "derived"
        assert (
            repro_main(
                [
                    "batch", GOLDEN_DIR, "--cache-dir", cache_dir,
                    "--out", str(out_dir), "--quiet",
                ]
            )
            == 0
        )
        capsys.readouterr()
        written = sorted(p.name for p in out_dir.glob("*.entities.txt"))
        assert "example4_sequence.entities.txt" in written
        text = (out_dir / "example4_sequence.entities.txt").read_text()
        assert "Protocol entity for place 1" in text

    def test_indent_zero_is_compact(self, cache_dir, capsys):
        assert (
            repro_main(
                [
                    "batch", GOLDEN_DIR, "--cache-dir", cache_dir,
                    "--quiet", "--indent", "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("\n") == 1
