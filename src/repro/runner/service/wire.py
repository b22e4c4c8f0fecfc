"""Wire protocol for the sweep service: tiny HTTP/1.1 + pickle codecs.

The coordinator speaks a deliberately minimal subset of HTTP/1.1 over
:mod:`asyncio` streams — request line, headers, ``Content-Length``
body, one request per connection, ``Connection: close`` — and clients
(worker agent, submit client) use :class:`http.client.HTTPConnection`.
Plain HTTP keeps the service curl-able and stdlib-only; the subset is
small enough to audit in one sitting.

Payloads that must round-trip arbitrary Python values — sweep point
functions, kwargs, result values — travel as base64-encoded pickles
inside the JSON envelope (:func:`encode_payload` /
:func:`decode_payload`).  Pickle implies the trust model stated in
``docs/service.md``: a coordinator executes code on behalf of its
clients and workers deserialize coordinator payloads, so the service
must only ever be run among mutually trusted hosts (it binds loopback
by default).  The ``code_version`` handshake rejects mismatched trees
early — the same fingerprint that keys the result cache — so a stale
worker can never poison shared cache entries.
"""

from __future__ import annotations

import asyncio
import base64
import json
import pickle
from http.client import HTTPConnection
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple, Union
from urllib.parse import urlsplit

__all__ = [
    "ServiceError",
    "decode_payload",
    "encode_payload",
    "request_json",
    "start_http_server",
]

#: Seconds a half-open connection may sit before the server drops it.
_REQUEST_TIMEOUT = 60.0

#: A handler returns (status, body); dict bodies are sent as JSON,
#: ``("text/plain", str)`` tuples as raw text.
Handler = Callable[
    [str, str, Optional[Dict[str, Any]]],
    Tuple[int, Union[Dict[str, Any], Tuple[str, str]]],
]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    410: "Gone",
    500: "Internal Server Error",
}


class _BadRequest(ValueError):
    """The request itself is malformed: answered 400, not 500."""


class ServiceError(RuntimeError):
    """A sweep-service request failed (transport or protocol level)."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


def encode_payload(obj: Any) -> str:
    """Pickle ``obj`` and wrap it for transport inside JSON."""
    raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(raw).decode("ascii")


def decode_payload(text: str) -> Any:
    """Inverse of :func:`encode_payload` (trusted peers only)."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def _response_bytes(status: int, content_type: str, body: bytes) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes]]:
    """Parse one request; ``None`` if the peer hung up before sending.

    The head is read in full before it is judged, so a malformed
    request still gets its 400 rather than a reset connection.
    """
    request_line = await reader.readline()
    if not request_line:
        return None
    length = "0"
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = value.strip()
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        raise _BadRequest(f"malformed request line: {request_line!r}")
    if not (length.isascii() and length.isdigit()):
        raise _BadRequest(f"bad Content-Length: {length!r}")
    try:
        body = await reader.readexactly(int(length))
    except asyncio.IncompleteReadError:
        raise _BadRequest("body shorter than Content-Length") from None
    return parts[0].upper(), parts[1], body


def _parse_body(raw_body: bytes) -> Optional[Dict[str, Any]]:
    """The JSON object a request carries; ``None`` for an empty body."""
    if not raw_body:
        return None
    try:
        payload = json.loads(raw_body)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise _BadRequest(f"body is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise _BadRequest("body is not a JSON object")
    return payload


async def _handle_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    handler: Handler,
) -> None:
    try:
        try:
            request = await asyncio.wait_for(
                _read_request(reader), _REQUEST_TIMEOUT
            )
            if request is None:
                return
            method, path, raw_body = request
            payload = _parse_body(raw_body)
            status, body = handler(method, path, payload)
        except _BadRequest as exc:
            status, body = 400, {"error": f"bad request: {exc}"}
        except Exception as exc:  # a bug in the handler
            status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(body, tuple):
            content_type, text = body
            encoded = text.encode("utf-8")
        else:
            content_type = "application/json"
            encoded = json.dumps(body).encode("utf-8")
        writer.write(_response_bytes(status, content_type, encoded))
        await writer.drain()
    except (ConnectionError, asyncio.TimeoutError):
        pass  # peer vanished mid-exchange; nothing to salvage
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_http_server(
    host: str, port: int, handler: Handler
) -> "asyncio.AbstractServer":
    """Bind and start serving ``handler``; ``port=0`` picks a free port.

    The handler runs synchronously on the event loop thread, so all
    coordinator state mutations are serialized without locks.
    """

    async def on_connection(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Awaitable[None]:
        return await _handle_connection(reader, writer, handler)

    return await asyncio.start_server(on_connection, host=host, port=port)


def request_json(
    base_url: str,
    method: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
    timeout: float = 30.0,
) -> Any:
    """One synchronous HTTP exchange with the coordinator.

    JSON responses are decoded; ``text/plain`` responses (the progress
    endpoint) come back as ``str``.  Non-2xx responses raise
    :class:`ServiceError` carrying the server's ``error`` detail and
    the HTTP status; transport failures raise the underlying
    ``OSError`` so callers can distinguish "coordinator said no" from
    "coordinator unreachable".
    """
    parts = urlsplit(base_url)
    if parts.scheme != "http" or parts.hostname is None:
        raise ServiceError(f"unsupported service url {base_url!r}")
    connection = HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        body = b""
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        data = response.read()
        if response.status >= 300:
            try:
                detail = json.loads(data).get("error", "")
            except (ValueError, AttributeError):
                detail = data.decode("utf-8", errors="replace")[:200]
            raise ServiceError(
                f"{method} {path} -> {response.status}: {detail}",
                status=response.status,
            )
        content_type = response.getheader("Content-Type", "")
        if "json" in content_type:
            return json.loads(data) if data else {}
        return data.decode("utf-8")
    finally:
        connection.close()
