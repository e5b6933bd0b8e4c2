#!/usr/bin/env python3
"""The derivation server end to end, in one process.

Starts :class:`repro.serve.DerivationServer` (thread workers,
ephemeral port, private cache) and drives it from the same event loop
the way operators do: :class:`AsyncServeClient` for single requests, a
``repro loadgen``-style closed-loop burst, and the ``/metrics``
document to prove the cache claim — a repeated spec costs zero
derivations.

Run:  python examples/serve_demo.py
Docs: docs/serving.md (wire schemas, overload semantics, ops flags)
"""

import asyncio
import tempfile

from repro.serve import AsyncServeClient, DerivationServer, ServeConfig
from repro.serve.loadgen import render_digest, run_loadgen

SERVICE = """
SPEC
  connect1; accept2; data1; data1; release2; exit
ENDSPEC
"""


async def demo(cache_dir: str) -> None:
    server = DerivationServer(
        ServeConfig(
            port=0,                   # pick a free port
            workers=2,
            worker_kind="thread",     # no fork cost for a demo
            cache_dir=cache_dir,
            access_log=False,
        )
    )
    await server.start()
    host, port = server.address
    print(f"server listening on http://{host}:{port}")

    client = AsyncServeClient(host, port)
    try:
        # ------------------------------------------------------------
        # 1. Liveness, then one derivation — and its free repeat.
        # ------------------------------------------------------------
        status, health = await client.request("GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        print(f"healthz: {health}")

        _, first = await client.post_op("derive", SERVICE)
        assert first["ok"] and first["cache"] == "miss"
        places = first["result"]["places"]
        print(f"derived entities for places {places} (cache miss)")
        for place in places:
            entity = first["result"]["entities"][str(place)]
            print(f"  T{place}: {entity.splitlines()[0]} ...")

        _, second = await client.post_op("derive", SERVICE)
        assert second["ok"] and second["cache"] == "hit"
        assert second["result"]["entities"] == first["result"]["entities"]
        print("repeated request: served from cache, zero derivations")

        # ------------------------------------------------------------
        # 2. Failure containment: a broken spec is a 422 envelope,
        #    not a dead server.
        # ------------------------------------------------------------
        broken_service = "SPEC connect1; ENDSPEC"  # no continuation
        status, broken = await client.post_op("derive", broken_service)
        assert status == 422 and not broken["ok"]
        print(
            f"broken spec answered {broken['status']} "
            f"{broken['error']['type']}: {broken['error']['message']}"
        )
        status, health = await client.request("GET", "/healthz")
        assert status == 200 and health["status"] == "ok"  # still alive

        # ------------------------------------------------------------
        # 3. A closed-loop burst, like `repro loadgen`.
        # ------------------------------------------------------------
        report = await run_loadgen(
            host, port, SERVICE, connections=4, requests=24
        )
        assert report["failed"] == 0 and report["shed"] == 0
        assert report["cache"]["hit"] == report["requests"]
        print(render_digest(report))

        # ------------------------------------------------------------
        # 4. /metrics corroborates: one derivation ever.
        # ------------------------------------------------------------
        _, snapshot = await client.request("GET", "/metrics")
        metrics = {metric["name"]: metric for metric in snapshot["metrics"]}
        derivations = sum(
            series["value"]
            for series in metrics["serve.derivations"]["series"]
        )
        hits = sum(
            series["value"]
            for series in metrics["serve.cache.hits"]["series"]
        )
        assert derivations == 1
        print(
            f"metrics: serve.derivations={derivations:g} "
            f"serve.cache.hits={hits:g}"
        )
    finally:
        await client.close()
        await server.shutdown()
    print(f"drained: {server.digest()}")


def main() -> None:
    with tempfile.TemporaryDirectory() as cache_dir:
        asyncio.run(demo(cache_dir))


if __name__ == "__main__":
    main()
