"""The closed-loop load generator and its report schema."""

import asyncio

import pytest

from repro.obs.schema import validate_loadgen
from repro.serve.loadgen import percentile, render_digest, run_loadgen
from tests.serve.conftest import EXAMPLE_SPEC, running_server


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_single_sample_is_every_percentile(self):
        assert percentile([7.0], 1) == 7.0
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_nearest_rank_on_a_known_ladder(self):
        samples = [float(n) for n in range(1, 101)]  # 1..100 sorted
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0

    def test_small_sample_rounds_up(self):
        # nearest-rank: p50 of 3 samples is rank ceil(1.5) = 2
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0
        assert percentile([1.0, 2.0, 3.0], 99) == 3.0


class TestRunLoadgen:
    def test_burst_against_in_process_server(self, tmp_path):
        async def main():
            async with running_server(cache_dir=str(tmp_path)) as server:
                host, port = server.address
                return await run_loadgen(
                    host, port, EXAMPLE_SPEC,
                    connections=4, requests=20, timeout=30.0,
                )

        report = asyncio.run(main())
        assert validate_loadgen(report) == []
        assert not {"recovered", "exhausted", "retries"} & set(report)
        assert report["completed"] == 20
        assert report["ok"] == 20
        assert report["failed"] == 0
        assert report["shed"] == 0
        assert report["statuses"] == {"200": 20}
        # exactly one derivation: everything after the first miss hits
        assert report["cache"]["miss"] >= 1
        assert report["cache"]["hit"] + report["cache"]["miss"] == 20
        assert report["throughput_rps"] > 0
        latency = report["latency_ms"]
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert latency["p99"] <= latency["max"]

    def test_second_identical_burst_is_all_hits(self, tmp_path):
        async def main():
            async with running_server(cache_dir=str(tmp_path)) as server:
                host, port = server.address
                first = await run_loadgen(
                    host, port, EXAMPLE_SPEC, connections=2, requests=6
                )
                # concurrent first-touch requests may race the first put,
                # so "cold" costs at most one derivation per connection
                cold = server.registry.counter("serve.derivations").value()
                second = await run_loadgen(
                    host, port, EXAMPLE_SPEC, connections=2, requests=6
                )
                warm = server.registry.counter("serve.derivations").value()
                return first, second, cold, warm

        first, second, cold, warm = asyncio.run(main())
        assert first["failed"] == second["failed"] == 0
        assert 1 <= cold <= 2
        assert second["cache"] == {"hit": 6, "miss": 0, "off": 0}
        assert warm == cold  # the warm burst derived nothing

    def test_unreachable_server_reports_transport_failures(self):
        async def main():
            # a port nothing listens on: bind-then-close to reserve one
            server = await asyncio.start_server(
                lambda r, w: None, host="127.0.0.1", port=0
            )
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            return await run_loadgen(
                "127.0.0.1", port, EXAMPLE_SPEC, connections=2, requests=4
            )

        report = asyncio.run(main())
        assert report["failed"] == 4
        assert report["ok"] == 0
        assert report["statuses"] == {"0": 4}

    def test_bad_arguments_are_rejected(self):
        with pytest.raises(ValueError):
            asyncio.run(run_loadgen("h", 1, "s", connections=0))
        with pytest.raises(ValueError):
            asyncio.run(run_loadgen("h", 1, "s", requests=0))


class TestRenderDigest:
    def test_digest_mentions_the_headline_numbers(self, tmp_path):
        async def main():
            async with running_server(cache_dir=str(tmp_path)) as server:
                host, port = server.address
                return await run_loadgen(
                    host, port, EXAMPLE_SPEC, connections=2, requests=5
                )

        digest = render_digest(asyncio.run(main()))
        assert digest.startswith("loadgen: derive x5")
        assert "5 ok, 0 shed, 0 failed" in digest
        assert "p50=" in digest and "p99=" in digest
