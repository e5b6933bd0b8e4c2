"""repro.serve — the derivation pipeline as a long-running service.

Every other entry point (``repro derive/lint/profile/batch``) is a
one-shot CLI that pays interpreter + parse startup per specification.
This package keeps the pipeline warm behind a dependency-free asyncio
HTTP/1.1 server, so heavy traffic pays that cost once:

* **protocol** (:mod:`repro.serve.protocol`) — the minimal HTTP/1.1
  framing (request/response parsing, body-size limits) shared by the
  server, the client and the load generator;
* **pool** (:mod:`repro.serve.pool`) — the warm worker pool running
  the same picklable task entry points as :mod:`repro.batch`, with
  per-request timeouts, in-worker failure containment and broken-pool
  respawn;
* **server** (:mod:`repro.serve.server`) — ``POST /v1/derive|lint|
  profile`` + ``GET /healthz|/metrics``, bounded admission with fast
  503 shedding, :class:`repro.batch.cache.EntityCache` reuse so a
  repeated spec never re-derives, graceful SIGTERM drain, and
  ``serve.*`` metrics;
* **client** (:mod:`repro.serve.client`) — the asyncio client
  speaking the ``repro.serve.request/v1`` /
  ``repro.serve.response/v1`` envelopes;
* **loadgen** (:mod:`repro.serve.loadgen`) — the closed-loop load
  generator behind ``repro loadgen`` (latency percentiles, throughput,
  ``repro.obs.loadgen/v3`` reports).

Typical embedded use::

    import asyncio
    from repro.serve import AsyncServeClient, DerivationServer, ServeConfig

    async def main():
        server = DerivationServer(ServeConfig(port=0, worker_kind="thread"))
        await server.start()
        client = AsyncServeClient(*server.address)
        status, envelope = await client.post_op("derive", spec_text)
        await client.close()
        await server.shutdown()

    asyncio.run(main())

See ``docs/serving.md`` for the wire schema, operational flags and
overload semantics.
"""

from repro.serve.client import AsyncServeClient, ServeError
from repro.serve.loadgen import render_digest, run_loadgen
from repro.serve.pool import WorkerPool
from repro.serve.protocol import ProtocolError, Request
from repro.serve.server import DerivationServer, ServeConfig, run_server

__all__ = [
    "AsyncServeClient",
    "DerivationServer",
    "ProtocolError",
    "Request",
    "ServeConfig",
    "ServeError",
    "WorkerPool",
    "render_digest",
    "run_loadgen",
    "run_server",
]
