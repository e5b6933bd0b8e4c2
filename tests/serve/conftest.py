"""Shared helpers: an in-process derivation server on a free port.

Each test owns one event loop (``asyncio.run``) and runs the server's
whole life inside it — thread workers by default so no fork cost is
paid per test.
"""

from contextlib import asynccontextmanager

from repro.serve.server import DerivationServer, ServeConfig

EXAMPLE_SPEC = "SPEC a1; exit >> b2; exit ENDSPEC"


@asynccontextmanager
async def running_server(executor_factory=None, **overrides):
    """Start a server with config overrides; always drains on exit."""
    defaults = dict(
        port=0,
        workers=2,
        worker_kind="thread",
        cache_dir=None,
        access_log=False,
    )
    defaults.update(overrides)
    server = DerivationServer(
        ServeConfig(**defaults), executor_factory=executor_factory
    )
    await server.start()
    try:
        yield server
    finally:
        await server.shutdown()
