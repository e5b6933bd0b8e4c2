"""The client against a scripted server: stale keep-alive connections.

A tiny scripted HTTP server plays the other side: each request gets a
canned 200, after which the server (optionally) drops the socket
without a ``Connection: close`` header — exactly the condition that
makes a kept-alive client connection go stale.
"""

import asyncio
import json

import pytest

from repro.serve.client import AsyncServeClient, ServeError

OK_BODY = json.dumps({"ok": True, "result": {"fine": True}}).encode()


class ScriptedServer:
    """Serves one canned 200 per request, in script order.

    Each script entry is ``close_after``: ``True`` hard-closes the
    connection after the response without announcing it — the stale
    keep-alive trap.  An empty script drops every connection unanswered.
    """

    def __init__(self, script):
        self.script = list(script)
        self.connections = 0
        self._server = None

    async def __aenter__(self):
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        self.connections += 1
        try:
            while self.script:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":", 1)[1])
                if length:
                    await reader.readexactly(length)
                close_after = self.script.pop(0)
                writer.write(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(OK_BODY)}\r\n\r\n".encode()
                    + OK_BODY
                )
                await writer.drain()
                if close_after:
                    return  # hard close, no Connection: close announced
        finally:
            writer.close()


class TestStaleConnectionReconnect:
    def test_reused_connection_eof_reconnects_once(self):
        """Request 2 rides a kept-alive socket the server already
        dropped; the client must reconnect and resend, not fail."""

        async def scenario():
            script = [
                True,   # served, then hard close
                False,  # served on the reconnect
            ]
            async with ScriptedServer(script) as server:
                client = AsyncServeClient("127.0.0.1", server.port, timeout=5.0)
                try:
                    first, _ = await client.request("POST", "/v1/derive", {})
                    await asyncio.sleep(0.05)  # let the close land
                    second, _ = await client.request("POST", "/v1/derive", {})
                finally:
                    await client.close()
                return first, second, server.connections

        first, second, connections = asyncio.run(scenario())
        assert first == 200
        assert second == 200
        assert connections == 2  # one reconnect, exactly

    def test_fresh_connection_failure_is_a_real_error(self):
        """A *fresh* connection dying is not retried as stale."""

        async def scenario():
            async with ScriptedServer([]) as server:  # drops immediately
                client = AsyncServeClient("127.0.0.1", server.port, timeout=5.0)
                try:
                    await client.request("POST", "/v1/derive", {})
                finally:
                    await client.close()

        with pytest.raises(ServeError):
            asyncio.run(scenario())
