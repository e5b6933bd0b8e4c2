"""The derivation server's client.

:class:`AsyncServeClient` is an asyncio client over one persistent
connection, standard-library only, sharing the server's own wire
implementation (:func:`repro.serve.protocol.read_response`); the load
generator runs many of these concurrently.  Scripts that are not
already async drive it under ``asyncio.run``.

It speaks the versioned envelopes (``repro.serve.request/v1`` in,
``repro.serve.response/v1`` out).  Transport failures raise
:class:`ServeError`; HTTP-level failures do *not* raise — the response
envelope carries ``ok``/``status``/``error`` and callers decide.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.obs.schema import SERVE_REQUEST_SCHEMA
from repro.serve.protocol import ProtocolError, read_response


class ServeError(Exception):
    """The server could not be reached or broke the wire protocol."""


def request_document(
    spec: str, options: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """One ``repro.serve.request/v1`` body."""
    document: Dict[str, Any] = {"schema": SERVE_REQUEST_SCHEMA, "spec": spec}
    if options:
        document["options"] = dict(options)
    return document


class AsyncServeClient:
    """One persistent asyncio connection; the load generator's unit."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    @classmethod
    async def connect(
        cls, host: str, port: int, timeout: float = 60.0
    ) -> "AsyncServeClient":
        client = cls(host, port, timeout=timeout)
        await client._ensure_connected()
        return client

    async def _ensure_connected(self) -> bool:
        """Connect if needed; returns True when the link was *reused*."""
        if self._writer is not None and not self._writer.is_closing():
            return True
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        except OSError as exc:
            raise ServeError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from exc
        return False

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except Exception:
                pass
            self._reader = self._writer = None

    # ------------------------------------------------------------------
    async def request(
        self,
        method: str,
        path: str,
        document: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """One round trip; raises :class:`ServeError` on transport failure.

        A *reused* connection that died gets one reconnect-and-resend:
        the server drains and restarts between our requests more often
        than one would hope, and the EOF only shows up when we try the
        kept-alive socket.  A fresh connection failing is a real error.
        """
        body = (
            json.dumps(document).encode("utf-8") if document is not None else b""
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"\r\n"
        ).encode("latin-1")
        for attempt in (1, 2):
            reused = await self._ensure_connected()
            try:
                self._writer.write(head + body)
                await self._writer.drain()
                status, headers, payload = await asyncio.wait_for(
                    read_response(self._reader), timeout=self.timeout
                )
                break
            except asyncio.TimeoutError as exc:
                await self.close()
                raise ServeError(
                    f"{method} {path} to {self.host}:{self.port} "
                    f"timed out after {self.timeout}s"
                ) from exc
            except (
                ProtocolError,
                ConnectionError,
                asyncio.IncompleteReadError,
                OSError,
            ) as exc:
                await self.close()
                if reused and attempt == 1:
                    continue  # stale keep-alive: reconnect once
                raise ServeError(
                    f"{method} {path} to {self.host}:{self.port} "
                    f"failed: {exc}"
                ) from exc
        if headers.get("connection", "").lower() == "close":
            await self.close()
        try:
            parsed = json.loads(payload.decode("utf-8")) if payload else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"non-JSON response body: {exc}") from exc
        return status, parsed

    async def post_op(
        self,
        op: str,
        spec: str,
        options: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        return await self.request(
            "POST", f"/v1/{op}", request_document(spec, options)
        )
