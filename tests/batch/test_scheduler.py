"""Scheduler behaviour: identity across execution modes, containment,
timeouts, and graceful degradation.

The load-bearing assertion, here and in the acceptance criteria: the
derived entity texts are **byte-identical** whether a spec is derived
serially, on a worker pool, place-by-place, or served from the cache.
"""

import pathlib
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.batch import (
    EntityCache,
    corpus_from_texts,
    load_corpus,
    run_batch,
)
from repro.batch.scheduler import (
    error_document,
    stats_document,
    timeout_document,
)
from repro.core.generator import ProtocolGenerator, derive_task
from repro.obs.schema import validate_batch, validate_report

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
        outcome = run_batch(goldens, workers=0)
        assert validate_batch(outcome.summary) == []
        assert outcome.ok
        assert outcome.entities == fresh_entities

    def test_cache_round_trip_is_byte_identical_across_goldens(
        self, goldens, fresh_entities, tmp_path
    ):
        cache = EntityCache(tmp_path / "cache")
        cold = run_batch(goldens, workers=0, cache=cache)
        warm = run_batch(goldens, workers=0, cache=cache)
        assert cold.entities == fresh_entities
        assert warm.entities == fresh_entities

    def test_warm_run_does_zero_derivations(self, goldens, tmp_path):
        cache = EntityCache(tmp_path / "cache")
        run_batch(goldens, workers=0, cache=cache)
        warm = run_batch(goldens, workers=0, cache=cache)
        totals = warm.summary["totals"]
        assert totals["derivations"] == 0
        assert totals["tasks"] == 0
        assert totals["cache_hits"] == len(goldens)
        # the counters back the row-level verdicts
        hits = [
            metric
            for metric in warm.summary["metrics"]["metrics"]
            if metric["name"] == "batch.cache.hits"
        ]
        assert hits and hits[0]["series"][0]["value"] == len(goldens)

    def test_cached_stats_documents_are_valid_profiles(
        self, goldens, tmp_path
    ):
        cache = EntityCache(tmp_path / "cache")
        run_batch(goldens, workers=0, cache=cache)
        for case in goldens:
            entry = cache.get(cache.key(case.text, case.options))
            assert entry is not None
            assert validate_report(entry["stats"]) == []
            assert entry["stats"]["source"] == case.name


class TestPoolRuns:
    def test_parallel_output_is_byte_identical_to_serial(
        self, goldens, fresh_entities
    ):
        outcome = run_batch(goldens, workers=2)
        assert outcome.ok, [
            row["error"]
            for row in outcome.summary["specs"]
            if row["status"] != "ok"
        ]
        assert outcome.entities == fresh_entities
        # One worker task per derived specification.
        assert outcome.summary["totals"]["tasks"] == len(goldens)

    def test_parallel_run_populates_the_cache_for_serial_readers(
        self, goldens, tmp_path
    ):
        cache = EntityCache(tmp_path / "cache")
        run_batch(goldens, workers=2, cache=cache)
        warm = run_batch(goldens, workers=0, cache=cache)
        assert warm.summary["totals"]["derivations"] == 0


class TestFailureContainment:
    CORPUS = [
        ("good_one", "SPEC a1; exit >> b2; exit ENDSPEC"),
        ("broken", "SPEC a1; this is not LOTOS ENDSPEC"),
        ("good_two", "SPEC x1; y2; exit ENDSPEC"),
    ]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_failing_spec_does_not_abort_the_corpus(self, workers):
        outcome = run_batch(corpus_from_texts(self.CORPUS), workers=workers)
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
        outcome = run_batch(corpus_from_texts(self.CORPUS), workers=0)
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
            ),
            workers=0,
        )
        row = outcome.summary["specs"][0]
        assert row["status"] == "failed"
        assert "R1" in row["error"]["message"]


class _StuckPool:
    """A pool whose futures never complete — exercises the timeout path."""

    def __init__(self, workers):
        pass

    def submit(self, fn, *args, **kwargs):
        return Future()

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _DeadPool:
    """A pool that is broken from the first submit."""

    def __init__(self, workers):
        pass

    def submit(self, fn, *args, **kwargs):
        raise BrokenProcessPool("the pool died")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestDegradation:
    def test_timeout_turns_stuck_tasks_into_failure_rows(self):
        corpus = corpus_from_texts(
            [("slow", "SPEC a1; exit >> b2; exit ENDSPEC")]
        )
        outcome = run_batch(
            corpus, workers=1, timeout=0.05, executor_factory=_StuckPool
        )
        row = outcome.summary["specs"][0]
        assert row["status"] == "failed"
        assert row["error"]["type"] == "TimeoutError"
        assert validate_batch(outcome.summary) == []

    def test_broken_pool_degrades_to_serial_and_still_derives(
        self, goldens, fresh_entities
    ):
        outcome = run_batch(goldens, workers=2, executor_factory=_DeadPool)
        assert outcome.summary["degraded"] is True
        assert outcome.ok
        assert outcome.entities == fresh_entities

    def test_negative_workers_are_rejected(self, goldens):
        with pytest.raises(ValueError, match="workers"):
            run_batch(goldens, workers=-1)


class TestSummaryShape:
    def test_rows_keep_corpus_order(self, goldens):
        outcome = run_batch(goldens, workers=0)
        assert [row["name"] for row in outcome.summary["specs"]] == [
            case.name for case in goldens
        ]

    def test_cache_off_rows_say_off(self, goldens):
        outcome = run_batch(goldens[:2], workers=0)
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

    def test_timeout_document_shape(self):
        document = timeout_document(2.5)
        assert document["type"] == "TimeoutError"
        assert "2.5" in document["message"]

    def test_stats_document_matches_the_profile_schema(self):
        payload = derive_task("SPEC a1; exit >> b2; exit ENDSPEC")
        document = stats_document("example", payload)
        assert validate_report(document) == []
        assert document["derivation"]["sync_fragments"] == (
            payload["sync_fragments"]
        )
