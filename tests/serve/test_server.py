"""The derivation server: routing, robustness, overload, drain, cache."""

import asyncio
import json
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.batch.workers as workers
from repro.batch.cache import EntityCache
from repro.core.generator import derive_protocol
from repro.obs.schema import validate_metrics, validate_serve_response
from repro.serve.client import AsyncServeClient, request_document
from tests.serve.conftest import EXAMPLE_SPEC, running_server


def sleepy_derive_task(text, options=None, _duration=0.5):
    time.sleep(_duration)
    return workers.derive_task(text, options)


class TestRouting:
    def test_healthz_metrics_and_derive(self):
        async def main():
            async with running_server() as server:
                client = AsyncServeClient(*server.address)
                status, health = await client.request("GET", "/healthz")
                assert status == 200
                assert health["status"] == "ok"
                assert health["worker_kind"] == "thread"

                status, envelope = await client.post_op("derive", EXAMPLE_SPEC)
                assert status == 200
                assert validate_serve_response(envelope) == []
                expected = derive_protocol(EXAMPLE_SPEC)
                assert envelope["result"]["places"] == expected.places
                for place in expected.places:
                    assert (
                        envelope["result"]["entities"][str(place)]
                        == expected.entity_text(place)
                    )
                # worker-local observability payloads stay off the wire
                assert "trace" not in envelope["result"]

                status, snapshot = await client.request("GET", "/metrics")
                assert status == 200
                assert validate_metrics(snapshot) == []
                names = {metric["name"] for metric in snapshot["metrics"]}
                assert "serve.requests" in names
                assert "serve.latency_ms" in names
                await client.close()

        asyncio.run(main())

    def test_lint_and_profile_endpoints(self):
        async def main():
            async with running_server() as server:
                client = AsyncServeClient(*server.address)
                status, envelope = await client.post_op("lint", EXAMPLE_SPEC)
                assert status == 200 and envelope["ok"]
                assert envelope["result"]["summary"]["errors"] == 0

                status, envelope = await client.post_op(
                    "profile", EXAMPLE_SPEC, {"runs": 1}
                )
                assert status == 200 and envelope["ok"]
                assert envelope["result"]["schema"] == "repro.obs.profile/v1"
                await client.close()

        asyncio.run(main())

    def test_unknown_route_404_and_wrong_method_405(self):
        async def main():
            async with running_server() as server:
                client = AsyncServeClient(*server.address)
                status, envelope = await client.request("GET", "/nope")
                assert status == 404 and not envelope["ok"]
                status, envelope = await client.request("GET", "/v1/derive")
                assert status == 405
                status, envelope = await client.request("POST", "/healthz")
                assert status == 405
                await client.close()

        asyncio.run(main())


class TestBadRequests:
    def test_malformed_json_is_400(self):
        async def main():
            async with running_server() as server:
                reader, writer = await asyncio.open_connection(*server.address)
                body = b"{definitely not json"
                writer.write(
                    (
                        f"POST /v1/derive HTTP/1.1\r\n"
                        f"Content-Length: {len(body)}\r\n\r\n"
                    ).encode()
                    + body
                )
                await writer.drain()
                from repro.serve.protocol import read_response

                status, _, payload = await read_response(reader)
                assert status == 400
                assert not json.loads(payload)["ok"]
                writer.close()

        asyncio.run(main())

    def test_schema_violation_is_400(self):
        async def main():
            async with running_server() as server:
                client = AsyncServeClient(*server.address)
                status, envelope = await client.request(
                    "POST", "/v1/derive", {"schema": "wrong/v9", "spec": "x"}
                )
                assert status == 400
                assert envelope["error"]["type"] == "SchemaError"
                status, envelope = await client.request(
                    "POST", "/v1/derive",
                    {"schema": "repro.serve.request/v1", "spec": "x",
                     "extra": True},
                )
                assert status == 400
                await client.close()

        asyncio.run(main())

    def test_oversized_body_is_413_and_server_survives(self):
        async def main():
            async with running_server(max_body_bytes=64) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(
                    b"POST /v1/derive HTTP/1.1\r\nContent-Length: 99999\r\n\r\n"
                )
                await writer.drain()
                from repro.serve.protocol import read_response

                status, _, _ = await read_response(reader)
                assert status == 413
                writer.close()
                # the server is still fine afterwards
                client = AsyncServeClient(*server.address)
                status, health = await client.request("GET", "/healthz")
                assert status == 200 and health["status"] == "ok"
                await client.close()

        asyncio.run(main())

    def test_bad_spec_is_422_client_error(self):
        async def main():
            async with running_server() as server:
                client = AsyncServeClient(*server.address)
                status, envelope = await client.post_op("derive", "NOT LOTOS")
                assert status == 422
                assert envelope["error"]["type"] == "ParseError"
                assert "traceback" not in envelope["error"]
                await client.close()

        asyncio.run(main())

    def test_unknown_option_is_422(self):
        async def main():
            async with running_server() as server:
                client = AsyncServeClient(*server.address)
                status, envelope = await client.post_op(
                    "derive", EXAMPLE_SPEC, {"frobnicate": True}
                )
                assert status == 422
                assert envelope["error"]["type"] == "ValueError"
                await client.close()

        asyncio.run(main())


class TestConcurrency:
    def test_concurrent_distinct_requests_all_answer_correctly(self):
        from repro import workloads
        from repro.lotos.unparse import unparse

        specs = [
            unparse(workloads.pipeline(places))
            for places in (2, 3, 4, 5)
        ] * 2

        async def main():
            async with running_server(workers=4) as server:
                async def one(spec):
                    client = AsyncServeClient(*server.address)
                    try:
                        return spec, await client.post_op("derive", spec)
                    finally:
                        await client.close()

                results = await asyncio.gather(*(one(s) for s in specs))
                for spec, (status, envelope) in results:
                    assert status == 200
                    expected = derive_protocol(spec)
                    assert envelope["result"]["places"] == expected.places

        asyncio.run(main())


class TestOverload:
    def test_excess_load_is_shed_with_503_and_server_stays_responsive(
        self, monkeypatch
    ):
        monkeypatch.setitem(workers.TASKS, "derive", sleepy_derive_task)

        async def main():
            async with running_server(workers=1, queue_limit=1) as server:
                async def one():
                    client = AsyncServeClient(*server.address)
                    try:
                        return await client.post_op("derive", EXAMPLE_SPEC)
                    finally:
                        await client.close()

                burst = asyncio.gather(*(one() for _ in range(6)))
                # while the burst is stuck behind the sleeping worker,
                # the control plane still answers instantly
                await asyncio.sleep(0.1)
                probe = AsyncServeClient(*server.address)
                started = time.perf_counter()
                status, health = await probe.request("GET", "/healthz")
                assert status == 200
                assert time.perf_counter() - started < 0.5
                await probe.close()

                results = await burst
                statuses = sorted(status for status, _ in results)
                assert statuses.count(200) >= 1
                assert statuses.count(503) >= 1
                assert set(statuses) <= {200, 503}  # never a crash or hang
                shed_envelopes = [
                    envelope for status, envelope in results if status == 503
                ]
                for envelope in shed_envelopes:
                    assert envelope["error"]["type"] == "Overloaded"
                shed_count = server.registry.counter("serve.shed").value(
                    route="derive"
                )
                assert shed_count == statuses.count(503)

        asyncio.run(main())

    def test_shed_responses_are_fast(self, monkeypatch):
        monkeypatch.setitem(workers.TASKS, "derive", sleepy_derive_task)

        async def main():
            async with running_server(workers=1, queue_limit=1) as server:
                blocker = AsyncServeClient(*server.address)
                blocked = asyncio.ensure_future(
                    blocker.post_op("derive", EXAMPLE_SPEC)
                )
                await asyncio.sleep(0.1)  # let it occupy the queue slot
                client = AsyncServeClient(*server.address)
                started = time.perf_counter()
                status, _ = await client.post_op("derive", EXAMPLE_SPEC)
                elapsed = time.perf_counter() - started
                assert status == 503
                assert elapsed < 0.2  # shed immediately, not after the worker
                await client.close()
                await blocked
                await blocker.close()

        asyncio.run(main())


class TestTimeouts:
    def test_overdue_request_is_504_and_counted(self, monkeypatch):
        monkeypatch.setitem(workers.TASKS, "derive", sleepy_derive_task)

        async def main():
            async with running_server(
                workers=1, request_timeout=0.05
            ) as server:
                client = AsyncServeClient(*server.address)
                status, envelope = await client.post_op("derive", EXAMPLE_SPEC)
                assert status == 504
                assert envelope["error"]["type"] == "TimeoutError"
                assert server.registry.counter("serve.timeouts").value(
                    route="derive"
                ) == 1
                await client.close()

        asyncio.run(main())


class TestBrokenPool:
    def test_broken_pool_fails_one_request_then_respawns(self):
        # first executor breaks every submit; respawn gets a real one
        factory = _SpawnSequence(_BrokenExecutor)

        async def main():
            from repro.serve.server import DerivationServer, ServeConfig

            server = DerivationServer(
                ServeConfig(port=0, workers=1, worker_kind="process",
                            cache_dir=None, access_log=False),
                executor_factory=factory,
            )
            await server.start()
            try:
                client = AsyncServeClient(*server.address)
                status, envelope = await client.post_op("derive", EXAMPLE_SPEC)
                # the broken pool poisoned the first request, but the
                # respawned pool serves it (retry-once on submit failure)
                # or answers 500 — never a hang, never a dead server
                assert status in (200, 500)
                status, envelope = await client.post_op("derive", EXAMPLE_SPEC)
                assert status == 200
                assert server.pool.respawns >= 1
                await client.close()
            finally:
                await server.shutdown()

        asyncio.run(main())

    def test_worker_dying_mid_task_is_500_then_respawns(self):
        """The task is accepted, then its worker dies: the future fails
        with ``BrokenProcessPool``, the request answers 500 and the
        pool is respawned for the next one."""
        factory = _SpawnSequence(_DiesMidTaskExecutor)

        async def main():
            async with running_server(
                workers=1, executor_factory=factory
            ) as server:
                client = AsyncServeClient(*server.address)
                status, envelope = await client.post_op("derive", EXAMPLE_SPEC)
                assert status == 500
                assert envelope["error"]["type"] == "BrokenProcessPool"
                assert server.pool.respawns == 1
                status, envelope = await client.post_op("derive", EXAMPLE_SPEC)
                assert status == 200 and envelope["ok"]
                await client.close()

        asyncio.run(main())

    def test_spawn_failure_while_down_is_500_not_a_dropped_connection(self):
        """The pool breaks, and respawning it fails for a while (as when
        the process is out of file descriptors).  Every request still
        gets an answer: 500 while spawning fails, 200 once it works."""

        def too_many_open_files():
            raise OSError(24, "Too many open files")

        factory = _SpawnSequence(
            _BrokenExecutor, *[too_many_open_files] * 3
        )

        async def fresh_request(server, method, path, document=None):
            # A fresh connection per request: the client's one resend on
            # a stale kept-alive connection must not hide a dropped one.
            client = AsyncServeClient(*server.address)
            try:
                return await client.request(method, path, document)
            finally:
                await client.close()

        async def main():
            async with running_server(
                workers=1, executor_factory=factory
            ) as server:
                derive = request_document(EXAMPLE_SPEC)
                status, envelope = await fresh_request(
                    server, "POST", "/v1/derive", derive
                )
                assert status == 500
                assert envelope["error"]["type"] == "OSError"
                status, envelope = await fresh_request(
                    server, "POST", "/v1/derive", derive
                )
                assert status == 200 and envelope["ok"]
                status, health = await fresh_request(server, "GET", "/healthz")
                assert status == 200 and health["status"] == "ok"
            assert factory.spawned == 5

        asyncio.run(main())


class _SpawnSequence:
    """An ``executor_factory`` whose first spawns are scripted.

    Each scripted spawn is a zero-argument callable returning an
    executor (or raising); spawns past the script get a real thread
    pool.
    """

    def __init__(self, *script):
        self.script = list(script)
        self.spawned = 0

    def __call__(self, workers):
        self.spawned += 1
        if self.script:
            return self.script.pop(0)()
        return ThreadPoolExecutor(workers)


class _BrokenExecutor:
    def submit(self, fn, *args, **kwargs):
        raise BrokenProcessPool("worker died")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _DiesMidTaskExecutor:
    """Accepts every task; its worker then dies before answering."""

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_exception(BrokenProcessPool("worker died mid-task"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestCache:
    def test_repeated_derive_is_a_cache_hit_with_zero_new_derivations(
        self, tmp_path
    ):
        async def main():
            async with running_server(cache_dir=str(tmp_path)) as server:
                client = AsyncServeClient(*server.address)
                status, first = await client.post_op("derive", EXAMPLE_SPEC)
                assert status == 200 and first["cache"] == "miss"
                derivations = server.registry.counter(
                    "serve.derivations"
                ).value()
                assert derivations == 1

                status, second = await client.post_op("derive", EXAMPLE_SPEC)
                assert status == 200 and second["cache"] == "hit"
                assert second["result"] == first["result"]
                assert server.registry.counter(
                    "serve.derivations"
                ).value() == 1  # zero new derivations
                assert server.registry.counter(
                    "serve.cache.hits"
                ).value() == 1
                await client.close()

        asyncio.run(main())

    def test_cosmetic_whitespace_still_hits(self, tmp_path):
        async def main():
            async with running_server(cache_dir=str(tmp_path)) as server:
                client = AsyncServeClient(*server.address)
                await client.post_op("derive", EXAMPLE_SPEC)
                status, envelope = await client.post_op(
                    "derive", EXAMPLE_SPEC + "   \n\n"
                )
                assert envelope["cache"] == "hit"
                await client.close()

        asyncio.run(main())

    def test_option_flip_misses(self, tmp_path):
        async def main():
            async with running_server(cache_dir=str(tmp_path)) as server:
                client = AsyncServeClient(*server.address)
                await client.post_op("derive", EXAMPLE_SPEC)
                status, envelope = await client.post_op(
                    "derive", EXAMPLE_SPEC, {"emit_sync": False}
                )
                assert envelope["cache"] == "miss"
                await client.close()

        asyncio.run(main())

    def test_serve_shares_the_batch_cache_store(self, tmp_path):
        """A spec derived through batch is a serve cache hit, and back."""
        from repro.batch import corpus_from_texts, run_batch

        cache = EntityCache(tmp_path)
        outcome = run_batch(
            corpus_from_texts([("example", EXAMPLE_SPEC)]), cache=cache
        )
        assert outcome.ok

        async def main():
            async with running_server(cache_dir=str(tmp_path)) as server:
                client = AsyncServeClient(*server.address)
                status, envelope = await client.post_op("derive", EXAMPLE_SPEC)
                assert envelope["cache"] == "hit"
                assert server.registry.counter(
                    "serve.derivations"
                ).value() == 0
                await client.close()

        asyncio.run(main())


class TestGracefulDrain:
    def test_shutdown_drains_in_flight_requests(self, monkeypatch):
        monkeypatch.setitem(
            workers.TASKS,
            "derive",
            lambda text, options=None: sleepy_derive_task(
                text, options, _duration=0.3
            ),
        )

        async def main():
            async with running_server(workers=1) as server:
                client = AsyncServeClient(*server.address)
                in_flight = asyncio.ensure_future(
                    client.post_op("derive", EXAMPLE_SPEC)
                )
                await asyncio.sleep(0.1)  # the request is inside the worker
                await server.shutdown()
                status, envelope = await in_flight
                assert status == 200 and envelope["ok"]
                await client.close()
                # new connections are refused after drain
                with pytest.raises(OSError):
                    reader, writer = await asyncio.open_connection(
                        *server.address
                    )
                    writer.close()

        asyncio.run(main())

    def test_healthz_reports_draining(self):
        async def main():
            async with running_server() as server:
                # simulate the drain flag without closing the listener
                server._draining = True
                client = AsyncServeClient(*server.address)
                status, health = await client.request("GET", "/healthz")
                assert health["status"] == "draining"
                status, envelope = await client.post_op("derive", EXAMPLE_SPEC)
                assert status == 503  # draining server sheds new work
                await client.close()

        asyncio.run(main())


class TestProcessPool:
    def test_real_process_workers_round_trip(self):
        async def main():
            async with running_server(
                workers=1, worker_kind="process"
            ) as server:
                client = AsyncServeClient(*server.address)
                status, envelope = await client.post_op("derive", EXAMPLE_SPEC)
                assert status == 200
                expected = derive_protocol(EXAMPLE_SPEC)
                assert envelope["result"]["places"] == expected.places
                await client.close()

        asyncio.run(main())


class TestDigest:
    def test_digest_summarizes_the_run(self, tmp_path):
        async def main():
            async with running_server(cache_dir=str(tmp_path)) as server:
                client = AsyncServeClient(*server.address)
                await client.post_op("derive", EXAMPLE_SPEC)
                await client.post_op("derive", EXAMPLE_SPEC)
                await client.close()
                digest = server.digest()
                assert "2 request(s)" in digest
                assert "1 cache hit(s)" in digest

        asyncio.run(main())
