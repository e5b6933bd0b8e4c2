"""Closed-loop load generator for the derivation server.

``N`` connections each run a closed loop — send one request, wait for
the response, immediately send the next — against a shared budget of
``requests`` total, which makes offered load self-limiting (each
connection has at most one request outstanding) and latency numbers
honest: there is no coordinated-omission window because the next
request is not scheduled until the previous one answers.

The outcome is one ``repro.obs.loadgen/v3`` JSON report: request
counts by verdict (``ok`` 2xx / ``shed`` 503 / ``failed`` everything
else including transport errors), status and cache-verdict
distributions, wall-clock throughput, and exact latency percentiles
computed from the raw per-request samples (not bucket estimates).
Every request is one attempt; a shed request is counted, not retried.

This is how the server's performance claims stay *measured*: the CI
``serve-smoke`` job runs two identical bursts and asserts zero failed
requests and a 100%-cache-hit second burst, and
``benchmarks/bench_serve.py`` tracks warm-cache throughput.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Mapping, Optional

from repro.obs.schema import LOADGEN_SCHEMA
from repro.serve.client import AsyncServeClient, ServeError


def percentile(samples: List[float], q: float) -> float:
    """Exact nearest-rank percentile of ``samples`` (which must be sorted)."""
    if not samples:
        return 0.0
    rank = max(1, -(-q * len(samples) // 100))  # ceil(q/100 * n)
    return samples[min(len(samples), int(rank)) - 1]


async def run_loadgen(
    host: str,
    port: int,
    spec: str,
    op: str = "derive",
    options: Optional[Mapping[str, Any]] = None,
    connections: int = 16,
    requests: int = 100,
    timeout: float = 60.0,
) -> Dict[str, Any]:
    """Drive ``requests`` total requests over ``connections`` loops.

    Returns the ``repro.obs.loadgen/v3`` report.  Never raises on
    per-request failures — they become ``failed`` rows (status ``0``
    for transport errors); the caller decides what failure means.
    """
    if connections < 1:
        raise ValueError("connections must be >= 1")
    if requests < 1:
        raise ValueError("requests must be >= 1")

    remaining = requests
    latencies_ms: List[float] = []
    statuses: Dict[str, int] = {}
    cache_verdicts = {"hit": 0, "miss": 0, "off": 0}
    ok = shed = failed = 0

    async def one_connection() -> None:
        nonlocal remaining, ok, shed, failed
        client = AsyncServeClient(host, port, timeout=timeout)
        try:
            while remaining > 0:
                remaining -= 1
                started = time.perf_counter()
                try:
                    status, envelope = await client.post_op(op, spec, options)
                except ServeError:
                    failed += 1
                    statuses["0"] = statuses.get("0", 0) + 1
                    continue
                latencies_ms.append((time.perf_counter() - started) * 1000)
                statuses[str(status)] = statuses.get(str(status), 0) + 1
                verdict = (
                    envelope.get("cache") if isinstance(envelope, dict) else None
                )
                if verdict in cache_verdicts:
                    cache_verdicts[verdict] += 1
                if 200 <= status < 300:
                    ok += 1
                elif status == 503:
                    shed += 1
                else:
                    failed += 1
        finally:
            await client.close()

    started = time.perf_counter()
    await asyncio.gather(
        *(one_connection() for _ in range(min(connections, requests)))
    )
    duration_s = time.perf_counter() - started

    latencies_ms.sort()
    completed = ok + shed + failed
    return {
        "schema": LOADGEN_SCHEMA,
        "op": op,
        "target": f"{host}:{port}",
        "connections": connections,
        "requests": requests,
        "completed": completed,
        "ok": ok,
        "shed": shed,
        "failed": failed,
        "statuses": statuses,
        "cache": cache_verdicts,
        "duration_s": round(duration_s, 6),
        "throughput_rps": round(completed / duration_s, 3)
        if duration_s > 0
        else 0.0,
        "latency_ms": {
            "mean": round(
                sum(latencies_ms) / len(latencies_ms), 3
            )
            if latencies_ms
            else 0.0,
            "p50": round(percentile(latencies_ms, 50), 3),
            "p95": round(percentile(latencies_ms, 95), 3),
            "p99": round(percentile(latencies_ms, 99), 3),
            "max": round(latencies_ms[-1], 3) if latencies_ms else 0.0,
        },
    }


def render_digest(report: Dict[str, Any]) -> str:
    """The stderr one-liner ``repro loadgen`` prints."""
    latency = report["latency_ms"]
    return (
        f"loadgen: {report['op']} x{report['completed']} over "
        f"{report['connections']} connection(s): "
        f"{report['ok']} ok, {report['shed']} shed, {report['failed']} failed; "
        f"{report['throughput_rps']:.1f} req/s; "
        f"p50={latency['p50']:.1f}ms p95={latency['p95']:.1f}ms "
        f"p99={latency['p99']:.1f}ms"
    )
