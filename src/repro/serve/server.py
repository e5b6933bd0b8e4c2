"""The asyncio derivation server behind ``repro serve``.

One long-lived process turns the whole pipeline into a service::

    POST /v1/derive    {"schema": "repro.serve.request/v1", "spec": ...}
    POST /v1/lint      same body shape; options are per-op
    POST /v1/profile   same body shape
    GET  /healthz      liveness + drain state
    GET  /metrics      the server's repro.obs metrics snapshot (JSON)

Design centers, in order:

* **admission control** — at most ``queue_limit`` requests are in the
  house (queued or running).  Request ``queue_limit + 1`` is shed with
  an *immediate* 503 + ``Retry-After`` — a full server stays
  responsive by refusing work fast, never by queueing unboundedly;
* **failure containment** — a request can fail four ways (bad frame →
  4xx, bad spec → 422, timeout → 504, broken worker → 500 + pool
  respawn) and none of them takes the server, or any other in-flight
  request, down with it;
* **content-addressed reuse** — derive responses are cached in the
  same :class:`repro.batch.cache.EntityCache` store the batch runner
  uses (same key: canonical spec text + canonical options + algorithm
  version), so a repeated spec is served from disk with **zero**
  derivations;
* **graceful drain** — shutdown stops accepting, lets in-flight
  requests finish (bounded by ``drain_timeout``), then retires the
  pool.  ``repro serve`` wires this to SIGTERM/SIGINT.

Every request is counted (``serve.requests`` by route and status,
``serve.shed``, ``serve.timeouts``, ``serve.cache.hits``, latency
histograms) in the server's own :class:`~repro.obs.metrics.MetricsRegistry`
— the document ``GET /metrics`` returns — and wrapped in a
``serve.request`` span on the active tracer (a no-op unless a tracer
is installed).
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.batch.cache import EntityCache
from repro.batch.workers import stats_document
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import (
    SERVE_OPS,
    SERVE_RESPONSE_SCHEMA,
    validate_serve_request,
)
from repro.obs.spans import get_tracer
from repro.serve.pool import WorkerPool
from repro.serve.protocol import (
    ProtocolError,
    Request,
    STREAM_LIMIT,
    read_request,
    render_json_response,
)

#: Latency buckets in milliseconds, tuned for "fast cache hit" through
#: "slow cold derivation".
LATENCY_BUCKETS_MS = (1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000)


@dataclass
class ServeConfig:
    """Everything ``repro serve`` lets an operator turn."""

    host: str = "127.0.0.1"
    port: int = 8437
    workers: int = 2
    worker_kind: str = "process"  # "thread" for tests/benchmarks
    queue_limit: int = 64
    request_timeout: float = 30.0
    max_body_bytes: int = 1_000_000
    drain_timeout: float = 10.0
    cache_dir: Optional[str] = ".repro-cache"  # None disables the cache
    max_cache_entries: Optional[int] = None
    access_log: bool = True


class DerivationServer:
    """The long-running service; one instance per listening socket."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        cache: Optional[EntityCache] = None,
        registry: Optional[MetricsRegistry] = None,
        executor_factory=None,
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        if cache is not None:
            self.cache: Optional[EntityCache] = cache
        elif self.config.cache_dir:
            self.cache = EntityCache(
                self.config.cache_dir,
                max_entries=self.config.max_cache_entries,
            )
        else:
            self.cache = None
        self.pool = WorkerPool(
            workers=self.config.workers,
            kind=self.config.worker_kind,
            executor_factory=executor_factory,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._active = 0  # admitted op requests in the house
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._started_at: Optional[float] = None
        self._request_seq = 0
        self.port: Optional[int] = None  # actual port once listening

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Warm the pool and start listening (``port=0`` picks a free one)."""
        self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=STREAM_LIMIT,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, retire."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.drain_timeout
            )
        except asyncio.TimeoutError:
            self._log(
                f"serve: drain timed out with {self._active} request(s) "
                "still in flight"
            )
        self.pool.shutdown(wait=False)

    @property
    def address(self) -> Tuple[str, int]:
        return (self.config.host, self.port or self.config.port)

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, self.config.max_body_bytes
                    )
                except ProtocolError as exc:
                    self._count_request("<frame>", exc.status)
                    writer.write(
                        render_json_response(
                            exc.status,
                            self._error_envelope(
                                "<frame>", exc.status, "ProtocolError",
                                exc.detail,
                            ),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if request is None:
                    break
                status, document, extra = await self._dispatch(request)
                keep_alive = request.keep_alive and not self._draining
                writer.write(
                    render_json_response(
                        status, document, keep_alive=keep_alive,
                        extra_headers=extra,
                    )
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------
    async def _dispatch(
        self, request: Request
    ) -> Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]:
        started = time.perf_counter()
        route, handler = self._route(request)
        if handler is None:
            known = request.target in ("/healthz", "/metrics") or (
                request.target.startswith("/v1/")
                and request.target[4:] in SERVE_OPS
            )
            status = 405 if known else 404
            detail = (
                f"{request.method} not allowed on {request.target}"
                if status == 405
                else f"no route {request.target!r}"
            )
            document = self._error_envelope(route, status, "NoRoute", detail)
            self._count_request(route, status)
            return status, document, None
        status, document, extra = await handler(request)
        elapsed_ms = (time.perf_counter() - started) * 1000
        self._count_request(route, status)
        self.registry.histogram(
            "serve.latency_ms",
            help="request wall-clock by route",
            buckets=LATENCY_BUCKETS_MS,
        ).observe(elapsed_ms, route=route)
        self._access_log(request, status, elapsed_ms, document)
        return status, document, extra

    def _route(self, request: Request):
        if request.target == "/healthz" and request.method == "GET":
            return "healthz", self._handle_healthz
        if request.target == "/metrics" and request.method == "GET":
            return "metrics", self._handle_metrics
        if request.target.startswith("/v1/") and request.method == "POST":
            op = request.target[4:]
            if op in SERVE_OPS:
                return op, lambda req, op=op: self._handle_op(op, req)
        return request.target, None

    # ------------------------------------------------------------------
    # Endpoints.
    # ------------------------------------------------------------------
    async def _handle_healthz(self, request: Request):
        uptime = (
            time.monotonic() - self._started_at if self._started_at else 0.0
        )
        document = {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(uptime, 3),
            "inflight": self._active,
            "queue_limit": self.config.queue_limit,
            "workers": self.config.workers,
            "worker_kind": self.config.worker_kind,
            "cache": "on" if self.cache is not None else "off",
        }
        return 200, document, None

    async def _handle_metrics(self, request: Request):
        uptime = (
            time.monotonic() - self._started_at if self._started_at else 0.0
        )
        self.registry.gauge(
            "serve.uptime_s", help="seconds since start()"
        ).set(round(uptime, 3))
        self.registry.gauge(
            "serve.inflight", help="admitted requests right now"
        ).set(self._active)
        self.registry.gauge(
            "serve.pool.respawns", help="times the worker pool was respawned"
        ).set(self.pool.respawns)
        return 200, self.registry.snapshot(), None

    async def _handle_op(self, op: str, request: Request):
        started = time.perf_counter()
        request_id = self._next_request_id()

        # Frame-level validation happens before admission: a malformed
        # request costs nothing and never occupies a queue slot.
        try:
            document = request.json()
        except ProtocolError as exc:
            return (
                exc.status,
                self._error_envelope(
                    op, exc.status, "BadRequest", exc.detail,
                    request_id=request_id,
                ),
                None,
            )
        problems = validate_serve_request(document)
        if problems:
            return (
                400,
                self._error_envelope(
                    op, 400, "SchemaError", "; ".join(problems),
                    request_id=request_id,
                ),
                None,
            )

        # Admission control: full house -> immediate, cheap 503.
        if self._active >= self.config.queue_limit or self._draining:
            self.registry.counter(
                "serve.shed", help="requests refused by admission control"
            ).inc(route=op)
            return (
                503,
                self._error_envelope(
                    op, 503, "Overloaded",
                    f"admission queue is full "
                    f"({self._active}/{self.config.queue_limit})"
                    if not self._draining
                    else "server is draining",
                    request_id=request_id,
                ),
                {"Retry-After": "1"},
            )

        spec = document["spec"]
        options = document.get("options") or {}
        self._admit()
        try:
            with get_tracer().span(
                "serve.request", op=op, request_id=request_id
            ):
                return await self._run_op(
                    op, spec, options, request_id, started
                )
        finally:
            self._release()

    async def _run_op(
        self,
        op: str,
        spec: str,
        options: Mapping[str, Any],
        request_id: str,
        started: float,
    ):
        cache_verdict = "off"
        key: Optional[str] = None
        if op == "derive" and self.cache is not None:
            try:
                key = self.cache.key(spec, options)
            except ValueError:
                key = None  # unknown option: let the worker 422 it
            entry = self.cache.get(key) if key is not None else None
            if entry is not None:
                self.registry.counter(
                    "serve.cache.hits", help="derives served from the cache"
                ).inc()
                stats = (entry.get("stats") or {}).get("derivation") or {}
                result = {
                    "places": entry["places"],
                    "entities": entry["entities"],
                    "violations": stats.get("violations", 0),
                    "sync_fragments": stats.get("sync_fragments", 0),
                }
                return (
                    200,
                    self._ok_envelope(
                        op, result, "hit", request_id, started
                    ),
                    None,
                )
            if key is not None:
                self.registry.counter(
                    "serve.cache.misses", help="derives that missed the cache"
                ).inc()
                cache_verdict = "miss"

        settled = await self.pool.run(
            op, spec, options, timeout=self.config.request_timeout
        )
        if settled.get("ok"):
            result = self._trim_result(op, settled["result"])
            if op == "derive":
                self.registry.counter(
                    "serve.derivations", help="derives actually computed"
                ).inc()
                if key is not None and self.cache is not None:
                    self.cache.put(
                        key, f"serve:{request_id}", dict(options),
                        settled["result"]["entities"],
                        stats=stats_document(
                            f"serve:{request_id}", settled["result"]
                        ),
                    )
            return (
                200,
                self._ok_envelope(
                    op, result, cache_verdict, request_id, started
                ),
                None,
            )

        kind = settled.get("kind", "internal")
        error = dict(settled.get("error") or {})
        if kind == "timeout":
            self.registry.counter(
                "serve.timeouts", help="requests that outlived their budget"
            ).inc(route=op)
            status = 504
        elif kind == "client":
            status = 422
        else:
            status = 500
        # The traceback stays in the server log, not on the wire.
        traceback_text = error.pop("traceback", "")
        if status == 500 and traceback_text:
            self._log(f"serve: worker failure on {op}:\n{traceback_text}")
        envelope = self._error_envelope(
            op, status, error.get("type", "WorkerError"),
            error.get("message", "worker failed"),
            request_id=request_id, started=started, cache=cache_verdict,
        )
        return status, envelope, None

    # ------------------------------------------------------------------
    # Envelopes, admission accounting, logging.
    # ------------------------------------------------------------------
    @staticmethod
    def _trim_result(op: str, result: Dict[str, Any]) -> Dict[str, Any]:
        """Strip worker-local observability payloads off the wire."""
        if op == "derive":
            return {
                key: value
                for key, value in result.items()
                if key not in ("trace", "metrics")
            }
        return result

    def _ok_envelope(self, op, result, cache_verdict, request_id, started):
        return {
            "schema": SERVE_RESPONSE_SCHEMA,
            "op": op,
            "ok": True,
            "status": 200,
            "cache": cache_verdict,
            "duration_s": round(time.perf_counter() - started, 6),
            "request_id": request_id,
            "result": result,
            "error": None,
        }

    def _error_envelope(
        self, op, status, error_type, message,
        request_id: str = "-", started: Optional[float] = None,
        cache: str = "off",
    ):
        return {
            "schema": SERVE_RESPONSE_SCHEMA,
            "op": op,
            "ok": False,
            "status": status,
            "cache": cache,
            "duration_s": (
                round(time.perf_counter() - started, 6) if started else 0.0
            ),
            "request_id": request_id,
            "result": None,
            "error": {"type": error_type, "message": message},
        }

    def _admit(self) -> None:
        self._active += 1
        self._idle.clear()
        self.registry.gauge(
            "serve.inflight_high_water", help="most requests ever in the house"
        ).set_max(self._active)

    def _release(self) -> None:
        self._active -= 1
        if self._active <= 0:
            self._idle.set()

    def _next_request_id(self) -> str:
        self._request_seq += 1
        return f"{self._request_seq:06d}"

    def _count_request(self, route: str, status: int) -> None:
        self.registry.counter(
            "serve.requests", help="requests by route and status"
        ).inc(route=route, status=str(status))

    def _access_log(
        self,
        request: Request,
        status: int,
        elapsed_ms: float,
        document: Dict[str, Any],
    ) -> None:
        if not self.config.access_log:
            return
        cache_verdict = (
            document.get("cache") if isinstance(document, dict) else None
        )
        request_id = (
            document.get("request_id") if isinstance(document, dict) else None
        )
        parts = [
            "serve:",
            f'"{request.method} {request.target}"',
            str(status),
            f"{elapsed_ms:.1f}ms",
        ]
        if cache_verdict and cache_verdict != "off":
            parts.append(f"cache={cache_verdict}")
        if request_id and request_id != "-":
            parts.append(f"id={request_id}")
        self._log(" ".join(parts))

    @staticmethod
    def _log(line: str) -> None:
        print(line, file=sys.stderr)

    # ------------------------------------------------------------------
    def digest(self) -> str:
        """A one-line wrap-up for the drain path of ``repro serve``."""
        requests = self.registry.counter("serve.requests")
        total = sum(series["value"] for series in requests.series())
        latency = self.registry.histogram(
            "serve.latency_ms", buckets=LATENCY_BUCKETS_MS
        )
        p50 = latency.percentile(50, route="derive")
        p95 = latency.percentile(95, route="derive")
        shed = sum(
            series["value"]
            for series in self.registry.counter("serve.shed").series()
        )
        hits = self.registry.counter("serve.cache.hits").value()
        line = f"serve: {int(total)} request(s)"
        if p50 is not None:
            line += f", derive p50<={p50:g}ms p95<={p95:g}ms"
        line += f", {int(shed)} shed, {int(hits)} cache hit(s)"
        if self.pool.respawns:
            line += f", {self.pool.respawns} pool respawn(s)"
        return line


async def run_server(config: ServeConfig) -> DerivationServer:
    """Start a server and return it (tests and embedders' entry point)."""
    server = DerivationServer(config)
    await server.start()
    return server
