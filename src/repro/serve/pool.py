"""The derivation server's warm worker pool.

One :class:`WorkerPool` lives for the whole life of the server: the
interpreter + parse startup cost that every one-shot CLI invocation
pays is paid once here, at boot, and every request after that only
ships ``(op, text, options)`` across the executor boundary.

The pool runs the same picklable task entry points as the batch
scheduler — :data:`repro.batch.workers.TASKS` via the containment
wrapper :func:`repro.batch.workers.run_task` — so serve and batch
cannot drift (one entry point registry, one failure-document shape,
one executor constructor).

Robustness contract:

* **per-request containment** — ``run_task`` settles every exception
  *inside* the worker; nothing a bad spec does can raise on this side;
* **per-request timeout** — :meth:`WorkerPool.run` abandons a task
  that outlives its budget and answers with the shared timeout
  document; the worker process is left to finish (or be recycled);
* **broken-pool respawn** — a worker pool that dies (OOM-killed
  child, interpreter crash) fails only the requests in flight; the
  pool is respawned and the next request runs normally.  A respawn
  that itself fails leaves the pool down: each request then tries to
  spawn it again and answers ``internal`` while that keeps failing.

``kind="thread"`` swaps the process pool for threads — no pickling,
no fork cost — which tests, benchmarks and ``repro serve --workers-kind
thread`` use; ``process`` is the production default.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from typing import Any, Callable, Dict, Mapping, Optional

from repro.batch.workers import (
    error_document,
    make_executor,
    run_task,
    timeout_document,
)


class WorkerPool:
    """A respawning executor bridge from asyncio to worker tasks."""

    def __init__(
        self,
        workers: int = 2,
        kind: str = "process",
        executor_factory: Optional[Callable[[int], Any]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("serve needs at least one worker")
        if kind not in ("process", "thread"):
            raise ValueError(f"unknown worker kind {kind!r}")
        self.workers = workers
        self.kind = kind
        self.respawns = 0
        self._executor_factory = executor_factory
        self._executor: Optional[Any] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._executor is None:
            self._executor = self._make()

    def _make(self) -> Any:
        if self.kind == "thread" and self._executor_factory is None:
            return ThreadPoolExecutor(self.workers)
        return make_executor(self.workers, self._executor_factory)

    def _respawn(self) -> None:
        with self._lock:
            dead, self._executor = self._executor, None
            if dead is not None:
                try:
                    dead.shutdown(wait=False, cancel_futures=True)
                except Exception:
                    pass
            try:
                self._executor = self._make()
            except Exception:
                # Stay down (spawn itself failed, e.g. out of file
                # descriptors); the next request's start() tries again
                # rather than wedging the server now.
                self._executor = None
            else:
                self.respawns += 1

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=not wait)

    # ------------------------------------------------------------------
    async def run(
        self,
        op: str,
        text: str,
        options: Optional[Mapping[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Run one operation on the pool; always returns an envelope.

        The result is a ``run_task`` envelope (``{"ok": True, "result":
        ...}`` or ``{"ok": False, "kind": ..., "error": ...}``), with
        two parent-side failure kinds added: ``timeout`` for a task
        that outlived ``timeout`` seconds, and ``internal`` with a
        respawn for a pool that broke underneath it.  A pool that is
        down and cannot be spawned answers ``internal`` too.
        """

        def _submit() -> Any:
            if self._executor is None:
                self.start()
            return self._executor.submit(run_task, op, text, options)

        try:
            future = _submit()
        except Exception:
            # The pool broke between requests, or is down and its spawn
            # failed: respawn and retry once.
            self._respawn()
            try:
                future = _submit()
            except Exception as exc:  # still down: give up on this request
                return {"ok": False, "kind": "internal",
                        "error": error_document(exc)}
        try:
            return await asyncio.wait_for(
                asyncio.wrap_future(future), timeout
            )
        except asyncio.TimeoutError:
            future.cancel()
            return {
                "ok": False,
                "kind": "timeout",
                "error": timeout_document(timeout),
            }
        except BrokenExecutor as exc:
            self._respawn()
            return {"ok": False, "kind": "internal", "error": error_document(exc)}
        except asyncio.CancelledError:
            future.cancel()
            raise
        except Exception as exc:  # cancelled future during shutdown, etc.
            return {"ok": False, "kind": "internal", "error": error_document(exc)}
