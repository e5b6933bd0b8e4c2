"""The worker-pool scheduler behind ``repro batch``.

One corpus run fans out one task per (spec, options) pair across a
``ProcessPoolExecutor``.  Results that the cache has already seen are
served from disk without touching the pool at all.

Failure containment is the design center:

* one failing specification records a traceback row and the corpus run
  continues (CI wants the full failure surface, not the first crash);
* a per-task ``timeout`` turns a runaway derivation into a failure row
  instead of a hung run;
* ``workers=0`` — or a pool that dies mid-run (``BrokenProcessPool``)
  — degrades gracefully to serial in-process execution, flagged as
  ``degraded`` in the summary.

The run's machine-readable outcome is one ``repro.obs.batch/v1``
summary document (see :func:`repro.obs.schema.validate_batch`), with
per-spec status, timings and cache verdicts, plus the metrics snapshot
carrying the ``batch.cache.*`` and ``batch.*`` counters.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.batch.cache import EntityCache
from repro.batch.manifest import SpecCase
from repro.core.generator import derive_task
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.schema import BATCH_SCHEMA, PROFILE_SCHEMA


@dataclass
class BatchOutcome:
    """Everything one corpus run produced.

    ``summary`` is the ``repro.obs.batch/v1`` document; ``entities``
    maps spec name to ``{place: unparse'd entity text}`` for every
    specification that succeeded (from a worker or from the cache).
    """

    summary: Dict[str, Any]
    entities: Dict[str, Dict[int, str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.summary["totals"]["failed"] == 0


@dataclass
class _Pending:
    """Parent-side state of one not-yet-finished specification."""

    case: SpecCase
    key: Optional[str]
    started: float


def run_batch(
    corpus: Sequence[SpecCase],
    workers: int = 0,
    timeout: Optional[float] = None,
    cache: Optional[EntityCache] = None,
    executor_factory: Optional[Callable[[int], Any]] = None,
) -> BatchOutcome:
    """Derive every specification of ``corpus``; never abort on one.

    ``workers=0`` runs serially in-process (no pool, no timeout
    enforcement); ``workers>=1`` uses a ``ProcessPoolExecutor`` of that
    size.  ``timeout`` bounds each worker task's wall-clock, measured
    from submission.  ``executor_factory`` exists for tests that need
    to inject a broken or fake pool.
    """
    if workers < 0:
        raise ValueError("workers must be >= 0")
    registry = MetricsRegistry()
    started = time.perf_counter()
    rows: List[Dict[str, Any]] = []
    entities: Dict[str, Dict[int, str]] = {}
    degraded = False
    with use_registry(registry):
        registry.gauge("batch.workers", help="requested pool size").set(workers)
        misses: List[Tuple[SpecCase, Optional[str]]] = []
        for case in corpus:
            key = cache.key(case.text, case.options) if cache is not None else None
            entry = cache.get(key) if cache is not None else None
            if entry is not None:
                entities[case.name] = {
                    int(place): text
                    for place, text in entry["entities"].items()
                }
                rows.append(
                    _row(case.name, "ok", "hit", entry["places"], 0, 0.0)
                )
            else:
                misses.append((case, key))

        if misses:
            if workers == 0:
                _run_serial(misses, cache, rows, entities)
            else:
                try:
                    degraded = _run_pool(
                        misses,
                        workers,
                        timeout,
                        cache,
                        rows,
                        entities,
                        executor_factory,
                    )
                except BrokenProcessPool:
                    # The pool died before any result flowed: rerun the
                    # whole miss list serially.
                    degraded = True
                    done = {row["name"] for row in rows}
                    _run_serial(
                        [m for m in misses if m[0].name not in done],
                        cache,
                        rows,
                        entities,
                    )

        order = {case.name: index for index, case in enumerate(corpus)}
        rows.sort(key=lambda row: order[row["name"]])
        for row in rows:
            registry.counter(
                "batch.specs", help="corpus members by outcome"
            ).inc(status=row["status"])
        summary = _summary(
            rows, workers, degraded, cache, registry,
            time.perf_counter() - started,
        )
    return BatchOutcome(summary=summary, entities=entities)


# ----------------------------------------------------------------------
# Serial execution (workers=0, and the degradation path).
# ----------------------------------------------------------------------
def _run_serial(
    misses: Sequence[Tuple[SpecCase, Optional[str]]],
    cache: Optional[EntityCache],
    rows: List[Dict[str, Any]],
    entities: Dict[str, Dict[int, str]],
) -> None:
    for case, key in misses:
        started = time.perf_counter()
        try:
            payload = derive_task(case.text, dict(case.options))
        except Exception as exc:
            rows.append(
                _row(
                    case.name, "failed", "miss" if cache is not None else "off",
                    [], 1, time.perf_counter() - started, error_document(exc),
                )
            )
            continue
        _finish(case, key, payload, cache, rows, entities, started=started)


# ----------------------------------------------------------------------
# Pool execution.
# ----------------------------------------------------------------------
def _run_pool(
    misses: Sequence[Tuple[SpecCase, Optional[str]]],
    workers: int,
    timeout: Optional[float],
    cache: Optional[EntityCache],
    rows: List[Dict[str, Any]],
    entities: Dict[str, Dict[int, str]],
    executor_factory: Optional[Callable[[int], Any]],
) -> bool:
    """Run the cache misses on a pool; returns whether it degraded."""
    degraded = False
    pool = (executor_factory or ProcessPoolExecutor)(workers)
    try:
        pending: Dict[Future, _Pending] = {}
        for case, key in misses:
            state = _Pending(case=case, key=key, started=time.perf_counter())
            future = pool.submit(derive_task, case.text, dict(case.options))
            pending[future] = state

        while pending:
            wait_for = _next_deadline(pending, timeout)
            done, _ = wait(pending, timeout=wait_for,
                           return_when=FIRST_COMPLETED)
            for future in done:
                state = pending.pop(future)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    raise
                except Exception as exc:
                    _fail(state, cache, rows, error_document(exc))
                    continue
                _finish(
                    state.case, state.key, payload, cache, rows, entities,
                    started=state.started,
                )
            _expire(pending, timeout, cache, rows)
    finally:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            degraded = True
    return degraded


def _next_deadline(
    pending: Dict[Future, _Pending],
    timeout: Optional[float],
) -> Optional[float]:
    if timeout is None:
        return None
    now = time.perf_counter()
    soonest = min(state.started + timeout for state in pending.values())
    return max(soonest - now, 0.0)


def _expire(
    pending: Dict[Future, _Pending],
    timeout: Optional[float],
    cache: Optional[EntityCache],
    rows: List[Dict[str, Any]],
) -> None:
    """Fail every spec whose wall-clock budget ran out; drop its task."""
    if timeout is None:
        return
    now = time.perf_counter()
    for future, state in list(pending.items()):
        if now - state.started > timeout:
            future.cancel()
            del pending[future]
            _fail(state, cache, rows, timeout_document(timeout))


def _fail(
    state: _Pending,
    cache: Optional[EntityCache],
    rows: List[Dict[str, Any]],
    error: Dict[str, str],
) -> None:
    rows.append(
        _row(
            state.case.name, "failed", "miss" if cache is not None else "off",
            [], 1, time.perf_counter() - state.started, error,
        )
    )


# ----------------------------------------------------------------------
# Row, summary and cache-entry document assembly.
# ----------------------------------------------------------------------
def error_document(exc: BaseException) -> Dict[str, str]:
    """The JSON shape a task failure takes in a summary row."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }


def timeout_document(timeout: Optional[float]) -> Dict[str, str]:
    """The failure document of a task that outlived its budget."""
    return {
        "type": "TimeoutError",
        "message": f"task exceeded {timeout}s wall-clock budget",
        "traceback": "",
    }


def stats_document(name: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
    """A ``repro.obs.profile/v1`` stats document for one cache entry.

    The scheduler does not execute or verify, so the runs/medium
    sections are empty, but keeping the profile shape means one schema
    validates ``repro profile`` output and cached derivation stats
    alike.
    """
    return {
        "schema": PROFILE_SCHEMA,
        "source": name,
        "places": payload["places"],
        "derivation": {
            "places": len(payload["places"]),
            "sync_fragments": payload["sync_fragments"],
            "violations": payload["violations"],
        },
        "verification": None,
        "runs": [],
        "medium": {"queue_high_water": {}},
        "trace": payload.get("trace"),
        "metrics": payload.get("metrics"),
    }


def _finish(
    case: SpecCase,
    key: Optional[str],
    payload: Dict[str, Any],
    cache: Optional[EntityCache],
    rows: List[Dict[str, Any]],
    entities: Dict[str, Dict[int, str]],
    started: float,
) -> None:
    from repro.obs.metrics import get_registry

    entities[case.name] = {
        int(place): text for place, text in payload["entities"].items()
    }
    get_registry().counter(
        "batch.derivations", help="specs actually derived (cache misses)"
    ).inc()
    get_registry().counter(
        "batch.tasks", help="worker tasks executed"
    ).inc()
    if cache is not None and key is not None:
        cache.put(
            key, case.name, dict(case.options), payload["entities"],
            stats=stats_document(case.name, payload),
        )
    rows.append(
        _row(
            case.name, "ok", "miss" if cache is not None else "off",
            payload["places"], 1, time.perf_counter() - started,
        )
    )


def _row(
    name: str,
    status: str,
    cache_verdict: str,
    places: Sequence[int],
    tasks: int,
    duration_s: float,
    error: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    return {
        "name": name,
        "status": status,
        "cache": cache_verdict,
        "places": [int(place) for place in places],
        "tasks": tasks,
        "duration_s": round(duration_s, 6),
        "error": error,
    }


def _summary(
    rows: List[Dict[str, Any]],
    workers: int,
    degraded: bool,
    cache: Optional[EntityCache],
    registry: MetricsRegistry,
    duration_s: float,
) -> Dict[str, Any]:
    hits = int(registry.counter("batch.cache.hits").value())
    misses = int(registry.counter("batch.cache.misses").value())
    evictions = int(registry.counter("batch.cache.evictions").value())
    cache_section = None
    if cache is not None:
        cache_section = {
            "dir": str(cache.root),
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "entries": len(cache),
        }
    return {
        "schema": BATCH_SCHEMA,
        "workers": workers,
        "degraded": degraded,
        "specs": rows,
        "totals": {
            "specs": len(rows),
            "ok": sum(1 for row in rows if row["status"] == "ok"),
            "failed": sum(1 for row in rows if row["status"] == "failed"),
            "cache_hits": sum(1 for row in rows if row["cache"] == "hit"),
            "cache_misses": sum(1 for row in rows if row["cache"] == "miss"),
            "derivations": int(registry.counter("batch.derivations").value()),
            "tasks": int(registry.counter("batch.tasks").value()),
            "duration_s": round(duration_s, 6),
        },
        "cache": cache_section,
        "metrics": registry.snapshot(),
    }
