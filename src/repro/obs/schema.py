"""Dependency-free structural validation of the ``repro.obs`` documents.

Seven JSON documents are validated here: the span tree
(``repro.obs.trace/v1``), the metrics snapshot
(``repro.obs.metrics/v1``), the consolidated profile report
(``repro.obs.profile/v1``), the corpus batch summary
(``repro.obs.batch/v1``, produced by :mod:`repro.batch`), the
derivation-server wire envelopes (``repro.serve.request/v1`` /
``repro.serve.response/v1``, spoken by :mod:`repro.serve`) and the
load-generator report (``repro.obs.loadgen/v3`` — v3 dropped v2's
retry outcome counts ``recovered`` / ``exhausted`` / ``retries``, so
it has v1's shape again).  CI's smoke and gate jobs validate against
these shapes before trusting a report, and tests pin them so the
schemas only change deliberately.

The validator is a tiny structural checker (no jsonschema dependency):
each check returns a list of human-readable problem strings, empty when
the document conforms.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.metrics import METRICS_SCHEMA
from repro.obs.spans import TRACE_SCHEMA

PROFILE_SCHEMA = "repro.obs.profile/v1"
BENCH_SCHEMA = "repro.obs.bench/v1"
BATCH_SCHEMA = "repro.obs.batch/v1"
SERVE_REQUEST_SCHEMA = "repro.serve.request/v1"
SERVE_RESPONSE_SCHEMA = "repro.serve.response/v1"
LOADGEN_SCHEMA = "repro.obs.loadgen/v3"

#: Operations the derivation server can run (``POST /v1/<op>``).
SERVE_OPS = ("derive", "lint", "profile")


def _require(
    document: Dict[str, Any],
    path: str,
    fields: Dict[str, Any],
    problems: List[str],
) -> None:
    for name, expected in fields.items():
        if name not in document:
            problems.append(f"{path}: missing required field {name!r}")
        elif not isinstance(document[name], expected):
            wanted = (
                "/".join(e.__name__ for e in expected)
                if isinstance(expected, tuple)
                else expected.__name__
            )
            problems.append(
                f"{path}.{name}: expected {wanted}, "
                f"got {type(document[name]).__name__}"
            )


def validate_trace(document: Any, path: str = "trace") -> List[str]:
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"{path}: not an object"]
    _require(document, path, {"schema": str, "enabled": bool, "spans": list}, problems)
    if document.get("schema") not in (None, TRACE_SCHEMA):
        problems.append(f"{path}.schema: unknown schema {document['schema']!r}")
    for index, span in enumerate(document.get("spans", [])):
        problems.extend(_validate_span(span, f"{path}.spans[{index}]"))
    return problems


def _validate_span(span: Any, path: str) -> List[str]:
    problems: List[str] = []
    if not isinstance(span, dict):
        return [f"{path}: not an object"]
    _require(
        span,
        path,
        {"name": str, "start_s": (int, float), "duration_s": (int, float),
         "attrs": dict, "children": list},
        problems,
    )
    for index, child in enumerate(span.get("children", [])):
        problems.extend(_validate_span(child, f"{path}.children[{index}]"))
    return problems


def validate_metrics(document: Any, path: str = "metrics") -> List[str]:
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"{path}: not an object"]
    _require(document, path, {"schema": str, "metrics": list}, problems)
    if document.get("schema") not in (None, METRICS_SCHEMA):
        problems.append(f"{path}.schema: unknown schema {document['schema']!r}")
    for index, metric in enumerate(document.get("metrics", [])):
        mpath = f"{path}.metrics[{index}]"
        if not isinstance(metric, dict):
            problems.append(f"{mpath}: not an object")
            continue
        _require(metric, mpath, {"name": str, "type": str, "series": list}, problems)
        if metric.get("type") not in ("counter", "gauge", "histogram"):
            problems.append(f"{mpath}.type: unknown type {metric.get('type')!r}")
        for sindex, series in enumerate(metric.get("series", [])):
            spath = f"{mpath}.series[{sindex}]"
            if not isinstance(series, dict):
                problems.append(f"{spath}: not an object")
                continue
            if "labels" not in series or not isinstance(series["labels"], dict):
                problems.append(f"{spath}.labels: missing or not an object")
            if metric.get("type") == "histogram":
                _require(
                    series, spath,
                    {"count": int, "sum": (int, float), "buckets": list},
                    problems,
                )
            elif "value" not in series:
                problems.append(f"{spath}: missing required field 'value'")
    return problems


def validate_report(document: Any) -> List[str]:
    """Validate a consolidated ``repro profile`` report (profile/v1)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["report: not an object"]
    _require(
        document,
        "report",
        {
            "schema": str,
            "source": str,
            "places": list,
            "derivation": dict,
            "runs": list,
            "medium": dict,
            "trace": dict,
            "metrics": dict,
        },
        problems,
    )
    if document.get("schema") != PROFILE_SCHEMA:
        problems.append(f"report.schema: expected {PROFILE_SCHEMA!r}")
    derivation = document.get("derivation", {})
    if isinstance(derivation, dict):
        _require(
            derivation,
            "report.derivation",
            {"places": int, "sync_fragments": int, "violations": int},
            problems,
        )
    verification = document.get("verification")
    if verification is not None and isinstance(verification, dict):
        _require(
            verification,
            "report.verification",
            {"method": str, "equivalent": bool},
            problems,
        )
    for index, run in enumerate(document.get("runs", [])):
        rpath = f"report.runs[{index}]"
        if not isinstance(run, dict):
            problems.append(f"{rpath}: not an object")
            continue
        _require(
            run,
            rpath,
            {
                "seed": int,
                "steps": int,
                "messages_sent": int,
                "status": str,
                "queue_high_water": dict,
            },
            problems,
        )
    medium = document.get("medium", {})
    if isinstance(medium, dict):
        _require(
            medium, "report.medium", {"queue_high_water": dict}, problems
        )
    problems.extend(validate_trace(document.get("trace", {}), "report.trace"))
    problems.extend(validate_metrics(document.get("metrics", {}), "report.metrics"))
    return problems


def validate_bench(document: Any) -> List[str]:
    """Validate a ``--bench-json`` dump (bench/v1)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["bench: not an object"]
    _require(
        document, "bench", {"schema": str, "benchmarks": list, "metrics": dict},
        problems,
    )
    if document.get("schema") != BENCH_SCHEMA:
        problems.append(f"bench.schema: expected {BENCH_SCHEMA!r}")
    for index, entry in enumerate(document.get("benchmarks", [])):
        bpath = f"bench.benchmarks[{index}]"
        if not isinstance(entry, dict):
            problems.append(f"{bpath}: not an object")
            continue
        _require(
            entry, bpath,
            {"nodeid": str, "wall_time_s": (int, float), "outcome": str},
            problems,
        )
    problems.extend(validate_metrics(document.get("metrics", {}), "bench.metrics"))
    return problems


def validate_batch(document: Any) -> List[str]:
    """Validate a ``repro batch`` corpus summary (batch/v1)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["batch: not an object"]
    _require(
        document,
        "batch",
        {
            "schema": str,
            "workers": int,
            "degraded": bool,
            "specs": list,
            "totals": dict,
            "metrics": dict,
        },
        problems,
    )
    if document.get("schema") != BATCH_SCHEMA:
        problems.append(f"batch.schema: expected {BATCH_SCHEMA!r}")
    for index, row in enumerate(document.get("specs", [])):
        rpath = f"batch.specs[{index}]"
        if not isinstance(row, dict):
            problems.append(f"{rpath}: not an object")
            continue
        _require(
            row,
            rpath,
            {
                "name": str,
                "status": str,
                "cache": str,
                "places": list,
                "tasks": int,
                "duration_s": (int, float),
            },
            problems,
        )
        if row.get("status") not in ("ok", "failed"):
            problems.append(f"{rpath}.status: unknown {row.get('status')!r}")
        if row.get("cache") not in ("hit", "miss", "off"):
            problems.append(f"{rpath}.cache: unknown {row.get('cache')!r}")
        if row.get("status") == "failed":
            error = row.get("error")
            if not isinstance(error, dict) or "type" not in error:
                problems.append(f"{rpath}.error: failed row needs an error")
    totals = document.get("totals", {})
    if isinstance(totals, dict):
        _require(
            totals,
            "batch.totals",
            {
                "specs": int,
                "ok": int,
                "failed": int,
                "cache_hits": int,
                "cache_misses": int,
                "derivations": int,
                "tasks": int,
                "duration_s": (int, float),
            },
            problems,
        )
    cache = document.get("cache")
    if cache is not None:
        if not isinstance(cache, dict):
            problems.append("batch.cache: not an object or null")
        else:
            _require(
                cache,
                "batch.cache",
                {"dir": str, "hits": int, "misses": int,
                 "evictions": int, "entries": int},
                problems,
            )
    problems.extend(validate_metrics(document.get("metrics", {}), "batch.metrics"))
    return problems


def validate_serve_request(document: Any) -> List[str]:
    """Validate one ``POST /v1/<op>`` body (serve.request/v1).

    The operation itself is carried by the URL, not the body; the body
    is the spec text plus its options, so one shape serves all three
    endpoints.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["request: not an object"]
    _require(document, "request", {"schema": str, "spec": str}, problems)
    if document.get("schema") != SERVE_REQUEST_SCHEMA:
        problems.append(f"request.schema: expected {SERVE_REQUEST_SCHEMA!r}")
    options = document.get("options")
    if options is not None and not isinstance(options, dict):
        problems.append("request.options: not an object or null")
    unknown = sorted(set(document) - {"schema", "spec", "options"})
    if unknown:
        problems.append(f"request: unknown field(s) {unknown}")
    return problems


def validate_serve_response(document: Any) -> List[str]:
    """Validate one derivation-server response envelope (serve.response/v1)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["response: not an object"]
    _require(
        document,
        "response",
        {
            "schema": str,
            "op": str,
            "ok": bool,
            "status": int,
            "cache": str,
            "duration_s": (int, float),
            "request_id": str,
        },
        problems,
    )
    if document.get("schema") != SERVE_RESPONSE_SCHEMA:
        problems.append(f"response.schema: expected {SERVE_RESPONSE_SCHEMA!r}")
    if document.get("cache") not in ("hit", "miss", "off"):
        problems.append(f"response.cache: unknown {document.get('cache')!r}")
    if document.get("ok"):
        if not isinstance(document.get("result"), dict):
            problems.append("response.result: ok response needs a result object")
    else:
        error = document.get("error")
        if not isinstance(error, dict) or "type" not in error:
            problems.append("response.error: failed response needs an error")
    return problems


def validate_loadgen(document: Any) -> List[str]:
    """Validate a ``repro loadgen`` report (loadgen/v3)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["loadgen: not an object"]
    _require(
        document,
        "loadgen",
        {
            "schema": str,
            "op": str,
            "target": str,
            "connections": int,
            "requests": int,
            "completed": int,
            "ok": int,
            "shed": int,
            "failed": int,
            "statuses": dict,
            "cache": dict,
            "duration_s": (int, float),
            "throughput_rps": (int, float),
            "latency_ms": dict,
        },
        problems,
    )
    if document.get("schema") != LOADGEN_SCHEMA:
        problems.append(f"loadgen.schema: expected {LOADGEN_SCHEMA!r}")
    if document.get("op") not in SERVE_OPS:
        problems.append(f"loadgen.op: unknown {document.get('op')!r}")
    latency = document.get("latency_ms", {})
    if isinstance(latency, dict):
        _require(
            latency,
            "loadgen.latency_ms",
            {
                "mean": (int, float),
                "p50": (int, float),
                "p95": (int, float),
                "p99": (int, float),
                "max": (int, float),
            },
            problems,
        )
    cache = document.get("cache", {})
    if isinstance(cache, dict):
        _require(
            cache,
            "loadgen.cache",
            {"hit": int, "miss": int, "off": int},
            problems,
        )
    return problems
