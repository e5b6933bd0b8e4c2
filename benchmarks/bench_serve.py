"""Serve-subsystem benchmarks: request latency and warm-cache throughput.

Two claims worth tracking:

* a warm server answers a derive request far cheaper than a cold CLI
  process (the pool and the parsed stdlib are already paid for), and
* a cache-warm server turns repeated specs into pure disk reads, so
  its throughput is bounded by the wire, not the derivation.

Thread workers keep these numbers about the server, not about fork
cost on the CI runner; the process pool's behavior is covered by
``tests/serve``.
"""

import asyncio
import subprocess
import sys

from repro.serve.loadgen import run_loadgen
from repro.serve.server import DerivationServer, ServeConfig

SPEC = "SPEC a1; exit >> b2; exit ENDSPEC"


def _serve_config(tmp_path, **overrides):
    defaults = dict(
        port=0,
        workers=2,
        worker_kind="thread",
        cache_dir=str(tmp_path / "cache"),
        access_log=False,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _one_warm_request(tmp_path):
    """One derive request against an already-started, already-warm server."""

    async def main():
        server = DerivationServer(_serve_config(tmp_path))
        await server.start()
        try:
            from repro.serve.client import AsyncServeClient

            client = AsyncServeClient(*server.address)
            await client.post_op("derive", SPEC)  # prime pool + cache
            status, envelope = await client.post_op("derive", SPEC)
            await client.close()
            return status, envelope
        finally:
            await server.shutdown()

    return asyncio.run(main())


def test_serve_warm_request_roundtrip(benchmark, tmp_path):
    status, envelope = benchmark.pedantic(
        _one_warm_request, args=(tmp_path,), rounds=3, iterations=1
    )
    assert status == 200 and envelope["cache"] == "hit"


def test_cold_cli_derive_for_comparison(benchmark, tmp_path):
    """The cost a server amortizes: one whole `repro derive` process."""
    spec_path = tmp_path / "example.lotos"
    spec_path.write_text(SPEC + "\n")

    def cold_cli():
        return subprocess.run(
            [sys.executable, "-m", "repro", "derive", str(spec_path)],
            capture_output=True,
            text=True,
            timeout=120,
        )

    proc = benchmark.pedantic(cold_cli, rounds=3, iterations=1)
    assert proc.returncode == 0, proc.stderr


def test_serve_warm_cache_throughput(benchmark, tmp_path):
    """A 64-request loadgen burst against a cache-warm server."""

    async def prime_and_burst():
        server = DerivationServer(_serve_config(tmp_path))
        await server.start()
        try:
            host, port = server.address
            await run_loadgen(host, port, SPEC, connections=1, requests=1)
            return await run_loadgen(
                host, port, SPEC, connections=8, requests=64
            )
        finally:
            await server.shutdown()

    report = benchmark.pedantic(
        lambda: asyncio.run(prime_and_burst()), rounds=1, iterations=1
    )
    assert report["failed"] == 0
    assert report["cache"]["miss"] == 0  # warm means zero derivations
