"""Scheduler behaviour: identity with direct derivation, the cache
round trip, and failure containment.

The load-bearing assertion, here and in the acceptance criteria: the
derived entity texts are **byte-identical** whether a spec is derived
by ``run_batch`` or served from the cache.
"""

import json
import pathlib

import pytest

from repro.batch import (
    EntityCache,
    corpus_from_texts,
    load_corpus,
    run_batch,
)
from repro.batch.scheduler import error_document
from repro.core.generator import ProtocolGenerator
from repro.obs.schema import validate_batch

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "goldens"


@pytest.fixture(scope="module")
def goldens():
    return load_corpus(GOLDEN_DIR)


@pytest.fixture(scope="module")
def fresh_entities(goldens):
    """Ground truth: every golden derived directly, no batch machinery."""
    truth = {}
    for case in goldens:
        result = ProtocolGenerator(**dict(case.options)).derive(case.text)
        truth[case.name] = {
            place: result.entity_text(place) for place in result.places
        }
    return truth


class TestSerialRuns:
    def test_summary_validates_and_matches_fresh_derivation(
        self, goldens, fresh_entities
    ):
        outcome = run_batch(goldens)
        assert validate_batch(outcome.summary) == []
        assert outcome.ok
        assert outcome.entities == fresh_entities

    def test_cache_round_trip_is_byte_identical_across_goldens(
        self, goldens, fresh_entities, tmp_path
    ):
        cache = EntityCache(tmp_path / "cache")
        cold = run_batch(goldens, cache=cache)
        warm = run_batch(goldens, cache=cache)
        assert cold.entities == fresh_entities
        assert warm.entities == fresh_entities

    def test_warm_run_does_zero_derivations(self, goldens, tmp_path):
        cache = EntityCache(tmp_path / "cache")
        run_batch(goldens, cache=cache)
        warm = run_batch(goldens, cache=cache)
        totals = warm.summary["totals"]
        assert totals["derivations"] == 0
        assert totals["cache_hits"] == len(goldens)
        # the counters back the row-level verdicts
        hits = [
            metric
            for metric in warm.summary["metrics"]["metrics"]
            if metric["name"] == "batch.cache.hits"
        ]
        assert hits and hits[0]["series"][0]["value"] == len(goldens)

    def test_a_v1_cache_entry_reads_as_a_miss_and_is_rewritten_as_v2(
        self, goldens, fresh_entities, tmp_path
    ):
        cache = EntityCache(tmp_path / "cache")
        case = goldens[0]
        key = cache.key(case.text, case.options)
        path = cache.put(key, case.name, case.options, {"1": "stale"})
        entry = json.loads(path.read_text())
        entry["schema"] = "repro.batch.entry/v1"
        entry["stats"] = None
        path.write_text(json.dumps(entry))

        outcome = run_batch([case], cache=cache)
        row = outcome.summary["specs"][0]
        assert (row["status"], row["cache"]) == ("ok", "miss")
        assert outcome.summary["totals"]["derivations"] == 1
        assert outcome.entities[case.name] == fresh_entities[case.name]
        healed = json.loads(path.read_text())
        assert healed["schema"] == "repro.batch.entry/v2"
        assert "stats" not in healed
        warm = run_batch([case], cache=cache)
        assert warm.summary["specs"][0]["cache"] == "hit"

    def test_derivation_counters_land_in_the_summary_metrics(self, goldens):
        outcome = run_batch(goldens)
        names = {
            metric["name"] for metric in outcome.summary["metrics"]["metrics"]
        }
        assert {"batch.derivations", "derive.places"} <= names


class TestFailureContainment:
    CORPUS = [
        ("good_one", "SPEC a1; exit >> b2; exit ENDSPEC"),
        ("broken", "SPEC a1; this is not LOTOS ENDSPEC"),
        ("good_two", "SPEC x1; y2; exit ENDSPEC"),
    ]

    def test_one_failing_spec_does_not_abort_the_corpus(self):
        outcome = run_batch(corpus_from_texts(self.CORPUS))
        assert not outcome.ok
        by_name = {row["name"]: row for row in outcome.summary["specs"]}
        assert by_name["good_one"]["status"] == "ok"
        assert by_name["good_two"]["status"] == "ok"
        failed = by_name["broken"]
        assert failed["status"] == "failed"
        assert failed["error"]["type"]
        assert "broken" not in outcome.entities
        assert validate_batch(outcome.summary) == []

    def test_failed_rows_carry_a_traceback(self):
        outcome = run_batch(corpus_from_texts(self.CORPUS))
        failed = [
            row
            for row in outcome.summary["specs"]
            if row["status"] == "failed"
        ]
        assert failed and "Traceback" in failed[0]["error"]["traceback"]

    def test_strict_violations_fail_the_member_not_the_run(self):
        # R1 violation (mixed choice) under strict mode: recorded, not fatal.
        outcome = run_batch(
            corpus_from_texts(
                [("r1", "SPEC (a1; b2; exit) [] (c2; d1; exit) ENDSPEC")]
            )
        )
        row = outcome.summary["specs"][0]
        assert row["status"] == "failed"
        assert "R1" in row["error"]["message"]


class TestSummaryShape:
    def test_rows_keep_corpus_order(self, goldens):
        outcome = run_batch(goldens)
        assert [row["name"] for row in outcome.summary["specs"]] == [
            case.name for case in goldens
        ]

    def test_cache_off_rows_say_off(self, goldens):
        outcome = run_batch(goldens[:2])
        assert {row["cache"] for row in outcome.summary["specs"]} == {"off"}
        assert outcome.summary["cache"] is None


class TestDocuments:
    def test_error_document_shape(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            document = error_document(exc)
        assert document["type"] == "ValueError"
        assert document["message"] == "boom"
        assert "ValueError: boom" in document["traceback"]
