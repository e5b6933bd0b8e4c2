"""Negative cases for every ``repro.obs.schema`` validator.

Each case starts from a small valid document, breaks one thing, and
pins the exact problem strings the validator reports: a missing field,
a field of the wrong type, a list item that is not an object, an
unknown schema tag, an unknown enum value and a failed batch row
without an error.
"""

import copy

import pytest

from repro.obs.schema import (
    BATCH_SCHEMA,
    PROFILE_SCHEMA,
    validate_batch,
    validate_metrics,
    validate_report,
    validate_trace,
)

SPAN = {
    "name": "derive",
    "start_s": 0.0,
    "duration_s": 0.5,
    "attrs": {},
    "children": [],
}
TRACE = {"schema": "repro.obs.trace/v1", "enabled": True, "spans": [SPAN]}
METRICS = {
    "schema": "repro.obs.metrics/v1",
    "metrics": [
        {"name": "derive.places", "type": "counter",
         "series": [{"labels": {}, "value": 2}]},
        {"name": "lts.ms", "type": "histogram",
         "series": [{"labels": {}, "count": 1, "sum": 0.5, "buckets": []}]},
    ],
}
REPORT = {
    "schema": PROFILE_SCHEMA,
    "source": "sequence",
    "places": [1, 2],
    "derivation": {"places": 2, "sync_fragments": 1, "violations": 0},
    "verification": {"method": "weak-bisimulation", "equivalent": True},
    "runs": [
        {"seed": 0, "steps": 4, "messages_sent": 1, "status": "completed",
         "queue_high_water": {}},
    ],
    "medium": {"queue_high_water": {}},
    "trace": TRACE,
    "metrics": METRICS,
}
BATCH = {
    "schema": BATCH_SCHEMA,
    "specs": [
        {"name": "good", "status": "ok", "cache": "miss", "places": [1, 2],
         "duration_s": 0.01, "error": None},
        {"name": "bad", "status": "failed", "cache": "miss", "places": [],
         "duration_s": 0.01,
         "error": {"type": "ParseError", "message": "m", "traceback": ""}},
    ],
    "totals": {"specs": 2, "ok": 1, "failed": 1, "cache_hits": 0,
               "cache_misses": 2, "derivations": 1, "duration_s": 0.02},
    "cache": {"dir": ".repro-cache", "hits": 0, "misses": 2, "entries": 1},
    "metrics": {"schema": "repro.obs.metrics/v1", "metrics": []},
}


def broken(document, edit):
    """A deep copy of ``document`` with ``edit`` applied to it."""
    document = copy.deepcopy(document)
    edit(document)
    return document


@pytest.mark.parametrize(
    "validate,document",
    [
        (validate_trace, TRACE),
        (validate_metrics, METRICS),
        (validate_report, REPORT),
        (validate_batch, BATCH),
    ],
    ids=["trace", "metrics", "report", "batch"],
)
def test_the_base_documents_are_valid(validate, document):
    assert validate(document) == []


TRACE_CASES = {
    "not-an-object": ([], ["trace: not an object"]),
    "missing-field": (
        broken(TRACE, lambda d: d.pop("enabled")),
        ["trace: missing required field 'enabled'"],
    ),
    "wrong-type": (
        broken(TRACE, lambda d: d.update(enabled="yes")),
        ["trace.enabled: expected bool, got str"],
    ),
    "number-field-wrong-type": (
        broken(TRACE, lambda d: d["spans"][0].update(start_s="0")),
        ["trace.spans[0].start_s: expected int/float, got str"],
    ),
    "item-not-an-object": (
        broken(TRACE, lambda d: d["spans"].append(7)),
        ["trace.spans[1]: not an object"],
    ),
    "nested-child": (
        broken(
            TRACE,
            lambda d: d["spans"][0]["children"].append(
                {"name": 1, "start_s": 0, "duration_s": 0, "attrs": {}}
            ),
        ),
        [
            "trace.spans[0].children[0].name: expected str, got int",
            "trace.spans[0].children[0]: missing required field 'children'",
        ],
    ),
    "unknown-schema": (
        broken(TRACE, lambda d: d.update(schema="repro.obs.trace/v0")),
        ["trace.schema: unknown schema 'repro.obs.trace/v0'"],
    ),
    "schema-of-wrong-type": (
        broken(TRACE, lambda d: d.update(schema=1)),
        [
            "trace.schema: expected str, got int",
            "trace.schema: unknown schema 1",
        ],
    ),
    "missing-schema-is-only-missing": (
        broken(TRACE, lambda d: d.pop("schema")),
        ["trace: missing required field 'schema'"],
    ),
}


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_validate_trace_problems(case):
    document, expected = TRACE_CASES[case]
    assert validate_trace(document) == expected


def test_validate_trace_prefixes_a_custom_path():
    assert validate_trace({}, "report.trace") == [
        "report.trace: missing required field 'schema'",
        "report.trace: missing required field 'enabled'",
        "report.trace: missing required field 'spans'",
    ]


METRICS_CASES = {
    "not-an-object": ("metrics", ["metrics: not an object"]),
    "missing-field": (
        broken(METRICS, lambda d: d.pop("metrics")),
        ["metrics: missing required field 'metrics'"],
    ),
    "wrong-type": (
        broken(METRICS, lambda d: d["metrics"][0].update(name=3)),
        ["metrics.metrics[0].name: expected str, got int"],
    ),
    "item-not-an-object": (
        broken(METRICS, lambda d: d["metrics"].insert(0, "counter")),
        ["metrics.metrics[0]: not an object"],
    ),
    "series-not-an-object": (
        broken(METRICS, lambda d: d["metrics"][0]["series"].append(None)),
        ["metrics.metrics[0].series[1]: not an object"],
    ),
    "unknown-schema": (
        broken(METRICS, lambda d: d.update(schema="repro.obs.metrics/v9")),
        ["metrics.schema: unknown schema 'repro.obs.metrics/v9'"],
    ),
    "unknown-type": (
        broken(METRICS, lambda d: d["metrics"][0].update(type="summary")),
        ["metrics.metrics[0].type: unknown type 'summary'"],
    ),
    "type-of-wrong-type": (
        broken(METRICS, lambda d: d["metrics"][0].update(type=[])),
        [
            "metrics.metrics[0].type: expected str, got list",
            "metrics.metrics[0].type: unknown type []",
        ],
    ),
    "missing-type": (
        broken(METRICS, lambda d: d["metrics"][0].pop("type")),
        [
            "metrics.metrics[0]: missing required field 'type'",
            "metrics.metrics[0].type: unknown type None",
        ],
    ),
    "series-without-labels": (
        broken(METRICS, lambda d: d["metrics"][0]["series"][0].pop("labels")),
        ["metrics.metrics[0].series[0].labels: missing or not an object"],
    ),
    "series-labels-not-an-object": (
        broken(
            METRICS,
            lambda d: d["metrics"][1]["series"][0].update(labels=[]),
        ),
        ["metrics.metrics[1].series[0].labels: missing or not an object"],
    ),
    "series-without-value": (
        broken(METRICS, lambda d: d["metrics"][0]["series"][0].pop("value")),
        ["metrics.metrics[0].series[0]: missing required field 'value'"],
    ),
    "histogram-series": (
        broken(
            METRICS,
            lambda d: d["metrics"][1]["series"][0].update(
                count=1.5, buckets={}
            ),
        ),
        [
            "metrics.metrics[1].series[0].count: expected int, got float",
            "metrics.metrics[1].series[0].buckets: expected list, got dict",
        ],
    ),
    "histogram-series-missing-sum": (
        broken(
            METRICS,
            lambda d: d["metrics"][1]["series"][0].pop("sum"),
        ),
        ["metrics.metrics[1].series[0]: missing required field 'sum'"],
    ),
}


@pytest.mark.parametrize("case", sorted(METRICS_CASES))
def test_validate_metrics_problems(case):
    document, expected = METRICS_CASES[case]
    assert validate_metrics(document) == expected


REPORT_CASES = {
    "not-an-object": (None, ["report: not an object"]),
    "missing-field": (
        broken(REPORT, lambda d: d.pop("source")),
        ["report: missing required field 'source'"],
    ),
    "missing-section": (
        broken(REPORT, lambda d: d.pop("derivation")),
        [
            "report: missing required field 'derivation'",
            "report.derivation: missing required field 'places'",
            "report.derivation: missing required field 'sync_fragments'",
            "report.derivation: missing required field 'violations'",
        ],
    ),
    "wrong-type": (
        broken(REPORT, lambda d: d.update(places="1,2")),
        ["report.places: expected list, got str"],
    ),
    "section-of-wrong-type": (
        broken(REPORT, lambda d: d.update(medium=[])),
        ["report.medium: expected dict, got list"],
    ),
    "nested-wrong-type": (
        broken(REPORT, lambda d: d["verification"].update(equivalent=1)),
        ["report.verification.equivalent: expected bool, got int"],
    ),
    "verification-may-be-null": (
        broken(REPORT, lambda d: d.update(verification=None)),
        [],
    ),
    "run-not-an-object": (
        broken(REPORT, lambda d: d["runs"].append([])),
        ["report.runs[1]: not an object"],
    ),
    "run-missing-field": (
        broken(REPORT, lambda d: d["runs"][0].pop("status")),
        ["report.runs[0]: missing required field 'status'"],
    ),
    "unknown-schema": (
        broken(REPORT, lambda d: d.update(schema="repro.obs.profile/v0")),
        ["report.schema: expected 'repro.obs.profile/v1'"],
    ),
    "missing-schema": (
        broken(REPORT, lambda d: d.pop("schema")),
        [
            "report: missing required field 'schema'",
            "report.schema: expected 'repro.obs.profile/v1'",
        ],
    ),
    "embedded-trace": (
        broken(REPORT, lambda d: d["trace"]["spans"].append("span")),
        ["report.trace.spans[1]: not an object"],
    ),
    "embedded-trace-not-an-object": (
        broken(REPORT, lambda d: d.update(trace=[])),
        [
            "report.trace: expected dict, got list",
            "report.trace: not an object",
        ],
    ),
    "embedded-metrics": (
        broken(REPORT, lambda d: d["metrics"]["metrics"][0].update(type="x")),
        ["report.metrics.metrics[0].type: unknown type 'x'"],
    ),
}


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_validate_report_problems(case):
    document, expected = REPORT_CASES[case]
    assert validate_report(document) == expected


BATCH_CASES = {
    "not-an-object": ("summary", ["batch: not an object"]),
    "missing-field": (
        broken(BATCH, lambda d: d.pop("specs")),
        ["batch: missing required field 'specs'"],
    ),
    "wrong-type": (
        broken(BATCH, lambda d: d["specs"][0].update(places="1")),
        ["batch.specs[0].places: expected list, got str"],
    ),
    "row-not-an-object": (
        broken(BATCH, lambda d: d["specs"].append("row")),
        ["batch.specs[2]: not an object"],
    ),
    "unknown-schema": (
        broken(BATCH, lambda d: d.update(schema="repro.obs.batch/v0")),
        [f"batch.schema: expected {BATCH_SCHEMA!r}"],
    ),
    "v1-summary": (
        broken(BATCH, lambda d: d.update(schema="repro.obs.batch/v1")),
        ["batch.schema: expected 'repro.obs.batch/v2'"],
    ),
    "unknown-status": (
        broken(BATCH, lambda d: d["specs"][0].update(status="skipped")),
        ["batch.specs[0].status: unknown 'skipped'"],
    ),
    "unknown-cache-verdict": (
        broken(BATCH, lambda d: d["specs"][0].update(cache="stale")),
        ["batch.specs[0].cache: unknown 'stale'"],
    ),
    "failed-row-without-error": (
        broken(BATCH, lambda d: d["specs"][1].update(error=None)),
        ["batch.specs[1].error: failed row needs an error"],
    ),
    "failed-row-error-without-type": (
        broken(BATCH, lambda d: d["specs"][1]["error"].pop("type")),
        ["batch.specs[1].error: failed row needs an error"],
    ),
    "totals-missing-field": (
        broken(BATCH, lambda d: d["totals"].pop("derivations")),
        ["batch.totals: missing required field 'derivations'"],
    ),
    "cache-may-be-null": (
        broken(BATCH, lambda d: d.update(cache=None)),
        [],
    ),
    "cache-not-an-object": (
        broken(BATCH, lambda d: d.update(cache="on")),
        ["batch.cache: not an object or null"],
    ),
    "cache-wrong-type": (
        broken(BATCH, lambda d: d["cache"].update(hits="0")),
        ["batch.cache.hits: expected int, got str"],
    ),
    "embedded-metrics": (
        broken(BATCH, lambda d: d["metrics"].pop("metrics")),
        ["batch.metrics: missing required field 'metrics'"],
    ),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_validate_batch_problems(case):
    document, expected = BATCH_CASES[case]
    assert validate_batch(document) == expected


@pytest.mark.parametrize(
    "validate,document,expected",
    [
        (
            validate_trace,
            broken(TRACE, lambda d: d.update(spans=None)),
            ["trace.spans: expected list, got NoneType"],
        ),
        (
            validate_metrics,
            broken(METRICS, lambda d: d["metrics"][0].update(series="ab")),
            ["metrics.metrics[0].series: expected list, got str"],
        ),
        (
            validate_batch,
            broken(BATCH, lambda d: d.update(specs={"good": {}})),
            ["batch.specs: expected list, got dict"],
        ),
    ],
    ids=["null-spans", "string-series", "dict-specs"],
)
def test_a_list_field_of_another_type_is_one_problem(
    validate, document, expected
):
    # Only lists are walked item by item: a null list field is reported,
    # not a TypeError, and a string or an object is not walked per
    # character or per key.
    assert validate(document) == expected
