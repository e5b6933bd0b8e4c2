"""Worker-task plumbing shared by :mod:`repro.batch` and :mod:`repro.serve`.

Both subsystems push work through the same picklable task entry points
and the same failure-containment contract, factored here so the two
cannot drift:

* **the op registry** (:data:`TASKS`) — every operation a worker can
  run, keyed by name: ``derive`` (the batch scheduler's
  :func:`repro.core.generator.derive_task`), ``lint`` and ``profile``.
  Each entry point is a module-level function taking
  ``(text, options)`` and returning a plain JSON-able dict, so it
  crosses a ``ProcessPoolExecutor`` boundary without dragging along
  process-global state;
* **containment** (:func:`run_task`) — the in-worker wrapper that
  never raises: it settles every operation into an envelope
  ``{"ok": bool, "kind": ..., ...}`` so a crashing spec can never
  break result plumbing (or exception pickling) on the parent side;
* **error documents** (:func:`error_document`,
  :func:`timeout_document`) — the one shape a failure takes in batch
  summary rows and serve responses alike;
* **pool construction** (:func:`make_executor`) — the single place a
  ``ProcessPoolExecutor`` is spun up, with the test seam
  (``executor_factory``) both subsystems share.
"""

from __future__ import annotations

import traceback
from typing import Any, Callable, Dict, Mapping, Optional

from repro.core.generator import derive_task
from repro.errors import ReproError

#: Option keys :func:`profile_task` accepts (and their coercions);
#: everything else is rejected so a typo'd option can never be
#: silently ignored.
_PROFILE_OPTIONS: Dict[str, Callable[[Any], Any]] = {
    "runs": int,
    "seed": int,
    "max_steps": int,
    "verify": bool,
    "mixed_choice": bool,
    "trace_depth": int,
    "source": str,
}


def lint_task(text: str, options: Optional[Dict[str, Any]] = None) -> Dict:
    """Lint one specification text; returns the ``LintResult`` document.

    ``options`` understands ``mixed_choice`` (bool) and ``source``
    (display name); anything else raises ``ValueError`` (a client
    error under :func:`run_task`'s classification).
    """
    from repro.analysis.lint import lint_text

    opts = dict(options or {})
    mixed_choice = bool(opts.pop("mixed_choice", False))
    source = str(opts.pop("source", "<request>"))
    if opts:
        raise ValueError(
            f"unknown lint option(s) {sorted(opts)}; "
            f"known: ['mixed_choice', 'source']"
        )
    return lint_text(text, source=source, mixed_choice=mixed_choice).to_dict()


def profile_task(text: str, options: Optional[Dict[str, Any]] = None) -> Dict:
    """Profile one specification; returns a ``repro.obs.profile/v1`` doc."""
    from repro.obs.profile import profile_spec

    opts = dict(options or {})
    unknown = sorted(set(opts) - set(_PROFILE_OPTIONS))
    if unknown:
        raise ValueError(
            f"unknown profile option(s) {unknown}; "
            f"known: {sorted(_PROFILE_OPTIONS)}"
        )
    kwargs = {name: _PROFILE_OPTIONS[name](value) for name, value in opts.items()}
    return profile_spec(text, **kwargs)


#: Every operation a worker can run, by wire name.  ``repro.serve``
#: routes ``POST /v1/<op>`` straight through this mapping; the batch
#: scheduler submits :func:`derive_task` (and its per-place variants)
#: directly.
TASKS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "derive": derive_task,
    "lint": lint_task,
    "profile": profile_task,
}


def stats_document(name: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
    """A ``repro.obs.profile/v1`` stats document for one cache entry.

    Cache writers (the batch scheduler and the serve cache-miss path)
    do not execute or verify, so the runs/medium sections are empty —
    but keeping the profile shape means one schema validates ``repro
    profile`` output and cached derivation stats alike, and a cache
    entry reads back the same whether batch or serve wrote it.
    """
    from repro.obs.schema import PROFILE_SCHEMA

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


def error_document(exc: BaseException) -> Dict[str, str]:
    """The one JSON shape a task failure takes, everywhere."""
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


def run_task(
    op: str, text: str, options: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """Run one registered operation inside a worker; never raises.

    The returned envelope is always one of::

        {"ok": True,  "result": <the entry point's document>}
        {"ok": False, "kind": "client",   "error": <error document>}
        {"ok": False, "kind": "internal", "error": <error document>}

    ``kind`` classifies the failure for HTTP mapping: ``client`` means
    the request itself was bad (unparseable spec, admissibility
    violation, unknown option — a 4xx), ``internal`` means the worker
    broke (a 5xx).  Containing the exception *inside* the worker also
    sidesteps exception pickling across the process boundary.
    """
    try:
        entry_point = TASKS[op]
    except KeyError:
        return {
            "ok": False,
            "kind": "client",
            "error": {
                "type": "UnknownOperation",
                "message": f"unknown operation {op!r}; known: {sorted(TASKS)}",
                "traceback": "",
            },
        }
    try:
        result = entry_point(text, dict(options) if options else None)
    except (ReproError, ValueError) as exc:
        return {"ok": False, "kind": "client", "error": error_document(exc)}
    except Exception as exc:  # noqa: BLE001 - containment is the contract
        return {"ok": False, "kind": "internal", "error": error_document(exc)}
    return {"ok": True, "result": result}


def make_executor(
    workers: int,
    executor_factory: Optional[Callable[[int], Any]] = None,
) -> Any:
    """The worker pool both subsystems spin up (test seam included)."""
    if executor_factory is None:
        from concurrent.futures import ProcessPoolExecutor

        executor_factory = ProcessPoolExecutor
    return executor_factory(workers)
