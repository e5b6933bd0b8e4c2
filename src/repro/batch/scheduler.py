"""The worker-pool scheduler behind ``repro batch``.

One corpus run fans out one task per (spec, options) pair across a
``ProcessPoolExecutor`` — or, for specifications whose canonical text
is at least ``split_bytes`` long, one task per place, since each
``T_p`` projection is independent (the paper applies ``T_p`` to the
root once per place).  Results that the cache has already seen are
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
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.batch.cache import EntityCache, canonicalize_spec_text
from repro.batch.manifest import SpecCase
from repro.batch.workers import (
    error_document,
    make_executor,
    stats_document,
    timeout_document,
)
from repro.core.generator import (
    derive_place_task,
    derive_task,
    list_places_task,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.schema import BATCH_SCHEMA
from repro.obs.spans import TRACE_SCHEMA

#: Specifications whose canonical text reaches this size fan out one
#: task per place instead of one task per spec.
DEFAULT_SPLIT_BYTES = 4096


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
    tasks: int = 0
    places: Optional[List[int]] = None
    parts: Dict[int, str] = field(default_factory=dict)
    sync_fragments: int = 0
    violations: int = 0


def run_batch(
    corpus: Sequence[SpecCase],
    workers: int = 0,
    timeout: Optional[float] = None,
    cache: Optional[EntityCache] = None,
    split_bytes: int = DEFAULT_SPLIT_BYTES,
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
                        split_bytes,
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
        _finish(case, key, payload, cache, rows, entities,
                tasks=1, started=started)


# ----------------------------------------------------------------------
# Pool execution.
# ----------------------------------------------------------------------
def _run_pool(
    misses: Sequence[Tuple[SpecCase, Optional[str]]],
    workers: int,
    timeout: Optional[float],
    split_bytes: int,
    cache: Optional[EntityCache],
    rows: List[Dict[str, Any]],
    entities: Dict[str, Dict[int, str]],
    executor_factory: Optional[Callable[[int], Any]],
) -> bool:
    """Run the cache misses on a pool; returns whether it degraded."""
    degraded = False
    pool = make_executor(workers, executor_factory)
    try:
        pending: Dict[Future, Tuple[_Pending, str, Optional[int]]] = {}
        states: Dict[str, _Pending] = {}
        for case, key in misses:
            state = _Pending(case=case, key=key, started=time.perf_counter())
            states[case.name] = state
            split = len(canonicalize_spec_text(case.text)) >= split_bytes
            options = dict(case.options)
            if split:
                future = pool.submit(list_places_task, case.text, options)
                pending[future] = (state, "plan", None)
            else:
                future = pool.submit(derive_task, case.text, options)
                pending[future] = (state, "whole", None)
            state.tasks += 1

        while pending:
            wait_for = _next_deadline(pending, timeout)
            done, _ = wait(pending, timeout=wait_for,
                           return_when=FIRST_COMPLETED)
            if not done:
                _expire(pending, states, timeout, cache, rows)
                continue
            for future in done:
                state, kind, place = pending.pop(future)
                if state.case.name not in states:
                    continue  # already failed (e.g. a sibling timed out)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    raise
                except Exception as exc:
                    _fail(state, states, cache, rows, error_document(exc))
                    continue
                if kind == "plan":
                    state.places = payload["places"]
                    state.violations = payload["violations"]
                    for entity_place in payload["places"]:
                        child = pool.submit(
                            derive_place_task, state.case.text,
                            entity_place, dict(state.case.options),
                        )
                        pending[child] = (state, "place", entity_place)
                        state.tasks += 1
                elif kind == "place":
                    state.parts[payload["place"]] = payload["text"]
                    state.sync_fragments += payload["sync_fragments"]
                    if set(state.parts) == set(state.places or []):
                        _finish(
                            state.case, state.key, _assemble(state),
                            cache, rows, entities,
                            tasks=state.tasks, started=state.started,
                        )
                        del states[state.case.name]
                else:  # whole-spec task
                    _finish(
                        state.case, state.key, payload, cache, rows,
                        entities, tasks=state.tasks, started=state.started,
                    )
                    del states[state.case.name]
            _expire(pending, states, timeout, cache, rows)
    finally:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            degraded = True
    return degraded


def _next_deadline(
    pending: Dict[Future, Tuple[_Pending, str, Optional[int]]],
    timeout: Optional[float],
) -> Optional[float]:
    if timeout is None:
        return None
    now = time.perf_counter()
    soonest = min(state.started + timeout for state, _, _ in pending.values())
    return max(soonest - now, 0.0)


def _expire(
    pending: Dict[Future, Tuple[_Pending, str, Optional[int]]],
    states: Dict[str, _Pending],
    timeout: Optional[float],
    cache: Optional[EntityCache],
    rows: List[Dict[str, Any]],
) -> None:
    """Fail every spec whose wall-clock budget ran out; drop its tasks."""
    if timeout is None:
        return
    now = time.perf_counter()
    for future, (state, _, _) in list(pending.items()):
        if state.case.name not in states:
            future.cancel()
            del pending[future]
        elif now - state.started > timeout:
            future.cancel()
            del pending[future]
            _fail(state, states, cache, rows, timeout_document(timeout))


def _fail(
    state: _Pending,
    states: Dict[str, _Pending],
    cache: Optional[EntityCache],
    rows: List[Dict[str, Any]],
    error: Dict[str, str],
) -> None:
    if state.case.name not in states:
        return
    del states[state.case.name]
    rows.append(
        _row(
            state.case.name, "failed", "miss" if cache is not None else "off",
            [], state.tasks, time.perf_counter() - state.started, error,
        )
    )


def _assemble(state: _Pending) -> Dict[str, Any]:
    """Fold per-place task payloads into the whole-spec payload shape."""
    return {
        "places": sorted(state.parts),
        "entities": {
            str(place): state.parts[place] for place in sorted(state.parts)
        },
        "violations": state.violations,
        "sync_fragments": state.sync_fragments,
        "trace": {"schema": TRACE_SCHEMA, "enabled": False, "spans": []},
        "metrics": {"schema": "repro.obs.metrics/v1", "metrics": []},
    }


# ----------------------------------------------------------------------
# Shared row/summary assembly.
# ----------------------------------------------------------------------
def _finish(
    case: SpecCase,
    key: Optional[str],
    payload: Dict[str, Any],
    cache: Optional[EntityCache],
    rows: List[Dict[str, Any]],
    entities: Dict[str, Dict[int, str]],
    tasks: int,
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
    ).inc(tasks)
    if cache is not None and key is not None:
        cache.put(
            key, case.name, dict(case.options), payload["entities"],
            stats=stats_document(case.name, payload),
        )
    rows.append(
        _row(
            case.name, "ok", "miss" if cache is not None else "off",
            payload["places"], tasks, time.perf_counter() - started,
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
