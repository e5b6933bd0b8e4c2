"""Dependency-free structural validation of the ``repro.obs`` documents.

Four JSON documents are validated here: the span tree
(``repro.obs.trace/v1``), the metrics snapshot
(``repro.obs.metrics/v1``), the consolidated profile report
(``repro.obs.profile/v1``) and the corpus batch summary
(``repro.obs.batch/v1``, produced by :mod:`repro.batch`).  CI's smoke
jobs validate against these shapes before trusting a report, and tests
pin them so the schemas only change deliberately.

The validator is a tiny structural checker (no jsonschema dependency):
each check returns a list of human-readable problem strings, empty when
the document conforms.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.metrics import METRICS_SCHEMA
from repro.obs.spans import TRACE_SCHEMA

PROFILE_SCHEMA = "repro.obs.profile/v1"
BATCH_SCHEMA = "repro.obs.batch/v1"


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
