"""Dependency-free structural validation of the ``repro.obs`` documents.

Four JSON documents are validated here: the span tree
(``repro.obs.trace/v1``), the metrics snapshot
(``repro.obs.metrics/v1``), the consolidated profile report
(``repro.obs.profile/v1``) and the corpus batch summary
(``repro.obs.batch/v2``, produced by :mod:`repro.batch`).  CI validates
against these shapes before trusting a report, and tests pin them so
the schemas only change deliberately.

Each document is one nested shape in the table below, and one walker
checks a document against its shape (no jsonschema dependency): each
validator returns a list of human-readable problem strings, empty when
the document conforms.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.obs.metrics import METRICS_SCHEMA
from repro.obs.spans import TRACE_SCHEMA

PROFILE_SCHEMA = "repro.obs.profile/v1"
BATCH_SCHEMA = "repro.obs.batch/v2"

NUMBER = (int, float)


class Field(NamedTuple):
    """How one field of an object is checked, in three passes.

    * ``types``: the field is required and must be an instance of
      ``types``; ``None`` makes it optional.
    * ``problem``: reported (after ``<path>.<field>: ``) instead of the
      standard missing / wrong-type messages; for an optional object,
      reported when the value is neither an object nor null.
    * ``check``: ``(test, message)``; when ``test(value, parent)`` is
      false, ``message`` is reported, formatted with the value.
    * ``shape``: the value is walked as an object of this shape, or,
      given as ``[shape]``, each item of the list is.
    """

    types: Any = None
    problem: Optional[str] = None
    check: Optional[Tuple[Callable[[Any, Mapping], bool], str]] = None
    shape: Any = None


class Select(NamedTuple):
    """A list item shape chosen by a field of the list's parent object:
    ``then`` when that field equals ``value``, else ``otherwise``."""

    field: str
    value: Any
    then: Mapping[str, Field]
    otherwise: Mapping[str, Field]


def _one_of(*allowed: Any) -> Callable[[Any, Mapping], bool]:
    return lambda value, _parent: value in allowed


def _error_if_failed(error: Any, row: Mapping) -> bool:
    return row.get("status") != "failed" or (
        isinstance(error, dict) and "type" in error
    )


# ----------------------------------------------------------------------
# The shape table.
# ----------------------------------------------------------------------
SPAN: Dict[str, Field] = {
    "name": Field(str),
    "start_s": Field(NUMBER),
    "duration_s": Field(NUMBER),
    "attrs": Field(dict),
}
SPAN["children"] = Field(list, shape=[SPAN])

TRACE = {
    "schema": Field(str, check=(_one_of(None, TRACE_SCHEMA), "unknown schema {!r}")),
    "enabled": Field(bool),
    "spans": Field(list, shape=[SPAN]),
}

SERIES_LABELS = Field(dict, problem="missing or not an object")
METRICS = {
    "schema": Field(str, check=(_one_of(None, METRICS_SCHEMA), "unknown schema {!r}")),
    "metrics": Field(list, shape=[{
        "name": Field(str),
        "type": Field(str, check=(
            _one_of("counter", "gauge", "histogram"), "unknown type {!r}"
        )),
        "series": Field(list, shape=[Select(
            "type",
            "histogram",
            {
                "labels": SERIES_LABELS,
                "count": Field(int),
                "sum": Field(NUMBER),
                "buckets": Field(list),
            },
            {"labels": SERIES_LABELS, "value": Field(object)},
        )]),
    }]),
}

REPORT = {
    "schema": Field(str, check=(_one_of(PROFILE_SCHEMA), f"expected {PROFILE_SCHEMA!r}")),
    "source": Field(str),
    "places": Field(list),
    "derivation": Field(dict, shape={
        "places": Field(int),
        "sync_fragments": Field(int),
        "violations": Field(int),
    }),
    "verification": Field(shape={"method": Field(str), "equivalent": Field(bool)}),
    "runs": Field(list, shape=[{
        "seed": Field(int),
        "steps": Field(int),
        "messages_sent": Field(int),
        "status": Field(str),
        "queue_high_water": Field(dict),
    }]),
    "medium": Field(dict, shape={"queue_high_water": Field(dict)}),
    "trace": Field(dict, shape=TRACE),
    "metrics": Field(dict, shape=METRICS),
}

BATCH = {
    "schema": Field(str, check=(_one_of(BATCH_SCHEMA), f"expected {BATCH_SCHEMA!r}")),
    "specs": Field(list, shape=[{
        "name": Field(str),
        "status": Field(str, check=(_one_of("ok", "failed"), "unknown {!r}")),
        "cache": Field(str, check=(_one_of("hit", "miss", "off"), "unknown {!r}")),
        "places": Field(list),
        "duration_s": Field(NUMBER),
        "error": Field(check=(_error_if_failed, "failed row needs an error")),
    }]),
    "totals": Field(dict, shape={
        "specs": Field(int),
        "ok": Field(int),
        "failed": Field(int),
        "cache_hits": Field(int),
        "cache_misses": Field(int),
        "derivations": Field(int),
        "duration_s": Field(NUMBER),
    }),
    "cache": Field(problem="not an object or null", shape={
        "dir": Field(str),
        "hits": Field(int),
        "misses": Field(int),
        "entries": Field(int),
    }),
    "metrics": Field(dict, shape=METRICS),
}


# ----------------------------------------------------------------------
# The walker.
# ----------------------------------------------------------------------
def _walk(document: Any, shape: Mapping[str, Field], path: str) -> List[str]:
    if not isinstance(document, dict):
        return [f"{path}: not an object"]
    problems: List[str] = []
    for name, field in shape.items():
        if field.types is None:
            continue
        if name in document and isinstance(document[name], field.types):
            continue
        if field.problem is not None:
            problems.append(f"{path}.{name}: {field.problem}")
        elif name not in document:
            problems.append(f"{path}: missing required field {name!r}")
        else:
            problems.append(
                f"{path}.{name}: expected {_type_names(field.types)}, "
                f"got {type(document[name]).__name__}"
            )
    for name, field in shape.items():
        if field.check is not None:
            test, message = field.check
            value = document.get(name)
            if not test(value, document):
                problems.append(f"{path}.{name}: {message.format(value)}")
    for name, field in shape.items():
        if field.shape is not None:
            problems.extend(_walk_field(document, name, field, f"{path}.{name}"))
    return problems


def _walk_field(
    document: Mapping, name: str, field: Field, path: str
) -> List[str]:
    if isinstance(field.shape, list):
        items = document.get(name)
        if not isinstance(items, list):
            return []
        item_shape = field.shape[0]
        if isinstance(item_shape, Select):
            matches = document.get(item_shape.field) == item_shape.value
            item_shape = item_shape.then if matches else item_shape.otherwise
        problems: List[str] = []
        for index, item in enumerate(items):
            problems.extend(_walk(item, item_shape, f"{path}[{index}]"))
        return problems
    if field.types is None:  # optional object: absent or null is fine
        value = document.get(name)
        if isinstance(value, dict):
            return _walk(value, field.shape, path)
        if value is not None and field.problem is not None:
            return [f"{path}: {field.problem}"]
        return []
    # A missing section is walked as empty, listing what it lacks.  An
    # embedded document (a shape with a schema tag) is walked even when
    # it is not an object, and says so.
    value = document.get(name, {})
    if isinstance(value, dict) or "schema" in field.shape:
        return _walk(value, field.shape, path)
    return []


def _type_names(types: Any) -> str:
    if isinstance(types, tuple):
        return "/".join(t.__name__ for t in types)
    return types.__name__


def validate_trace(document: Any, path: str = "trace") -> List[str]:
    return _walk(document, TRACE, path)


def validate_metrics(document: Any, path: str = "metrics") -> List[str]:
    return _walk(document, METRICS, path)


def validate_report(document: Any) -> List[str]:
    """Validate a consolidated ``repro profile`` report (profile/v1)."""
    return _walk(document, REPORT, "report")


def validate_batch(document: Any) -> List[str]:
    """Validate a ``repro batch`` corpus summary (batch/v2)."""
    return _walk(document, BATCH, "batch")
