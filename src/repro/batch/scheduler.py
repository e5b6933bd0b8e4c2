"""The serial corpus runner behind ``repro batch``.

One corpus run derives every (spec, options) pair in turn, in-process.
Results that the cache has already seen are served from disk; every
miss is derived with :class:`repro.core.generator.ProtocolGenerator`
and written back.

Failure containment is the design center: one failing specification
records a row with its traceback and the corpus run continues (CI
wants the full failure surface, not the first crash).

The run's machine-readable outcome is one ``repro.obs.batch/v2``
summary document (see :func:`repro.obs.schema.validate_batch`), with
per-spec status, timings and cache verdicts, plus the metrics snapshot
carrying the ``batch.*`` counters and the derivation's own ``derive.*``
counters.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.batch.cache import EntityCache
from repro.batch.manifest import SpecCase
from repro.core.generator import ProtocolGenerator
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.schema import BATCH_SCHEMA


@dataclass
class BatchOutcome:
    """Everything one corpus run produced.

    ``summary`` is the ``repro.obs.batch/v2`` document; ``entities``
    maps spec name to ``{place: unparse'd entity text}`` for every
    specification that succeeded (derived or served from the cache).
    """

    summary: Dict[str, Any]
    entities: Dict[str, Dict[int, str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.summary["totals"]["failed"] == 0


def run_batch(
    corpus: Sequence[SpecCase],
    cache: Optional[EntityCache] = None,
) -> BatchOutcome:
    """Derive every specification of ``corpus``; never abort on one."""
    registry = MetricsRegistry()
    started = time.perf_counter()
    rows: List[Dict[str, Any]] = []
    entities: Dict[str, Dict[int, str]] = {}
    miss = "miss" if cache is not None else "off"
    with use_registry(registry):
        for case in corpus:
            case_started = time.perf_counter()
            entry = None
            if cache is not None:
                key = cache.key(case.text, case.options)
                entry = cache.get(key)
            if entry is not None:
                entities[case.name] = {
                    int(place): text
                    for place, text in entry["entities"].items()
                }
                rows.append(_row(case.name, "ok", "hit", entry["places"], 0.0))
                continue
            try:
                result = ProtocolGenerator(**case.options).derive(case.text)
            except Exception as exc:
                rows.append(
                    _row(
                        case.name, "failed", miss, [],
                        time.perf_counter() - case_started,
                        error_document(exc),
                    )
                )
                continue
            texts = {place: result.entity_text(place) for place in result.places}
            registry.counter(
                "batch.derivations", help="specs actually derived (cache misses)"
            ).inc()
            if cache is not None:
                cache.put(key, case.name, case.options, texts)
            entities[case.name] = texts
            rows.append(
                _row(
                    case.name, "ok", miss, result.places,
                    time.perf_counter() - case_started,
                )
            )

        for row in rows:
            registry.counter(
                "batch.specs", help="corpus members by outcome"
            ).inc(status=row["status"])
        summary = _summary(
            rows, cache, registry, time.perf_counter() - started
        )
    return BatchOutcome(summary=summary, entities=entities)


def error_document(exc: BaseException) -> Dict[str, str]:
    """The JSON shape a derivation failure takes in a summary row."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }


def _row(
    name: str,
    status: str,
    cache_verdict: str,
    places: Sequence[int],
    duration_s: float,
    error: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    return {
        "name": name,
        "status": status,
        "cache": cache_verdict,
        "places": [int(place) for place in places],
        "duration_s": round(duration_s, 6),
        "error": error,
    }


def _summary(
    rows: List[Dict[str, Any]],
    cache: Optional[EntityCache],
    registry: MetricsRegistry,
    duration_s: float,
) -> Dict[str, Any]:
    cache_section = None
    if cache is not None:
        cache_section = {
            "dir": str(cache.root),
            "hits": int(registry.counter("batch.cache.hits").value()),
            "misses": int(registry.counter("batch.cache.misses").value()),
            "entries": len(cache),
        }
    return {
        "schema": BATCH_SCHEMA,
        "specs": rows,
        "totals": {
            "specs": len(rows),
            "ok": sum(1 for row in rows if row["status"] == "ok"),
            "failed": sum(1 for row in rows if row["status"] == "failed"),
            "cache_hits": sum(1 for row in rows if row["cache"] == "hit"),
            "cache_misses": sum(1 for row in rows if row["cache"] == "miss"),
            "derivations": int(registry.counter("batch.derivations").value()),
            "duration_s": round(duration_s, 6),
        },
        "cache": cache_section,
        "metrics": registry.snapshot(),
    }
