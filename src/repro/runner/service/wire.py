"""Wire protocol for the sweep service: HTTP/1.1 + pickle codecs.

The coordinator serves HTTP/1.1 from the standard library's
:class:`http.server.ThreadingHTTPServer` — one thread per connection,
one request per connection, ``Connection: close`` — and clients
(worker agent, submit client) use :class:`http.client.HTTPConnection`.
Every route handler runs under one lock (:class:`ServiceServer`), so
coordinator state is mutated by one thread at a time.  Plain HTTP keeps
the service curl-able and stdlib-only.

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

import base64
import json
import pickle
import sys
import threading
from http import HTTPStatus
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple, Union
from urllib.parse import urlsplit

__all__ = [
    "ServiceError",
    "ServiceServer",
    "decode_payload",
    "encode_payload",
    "request_json",
]

#: Seconds a silent connection may sit before the server drops it.
_REQUEST_TIMEOUT = 60.0

#: Largest single read of a request body.
_CHUNK = 1 << 16

#: A handler returns (status, body); dict bodies are sent as JSON,
#: ``("text/plain", str)`` tuples as raw text.
Handler = Callable[
    [str, str, Optional[Dict[str, Any]]],
    Tuple[int, Union[Dict[str, Any], Tuple[str, str]]],
]


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


def _read_exactly(rfile: Any, length: int) -> bytes:
    """``length`` body bytes, read in bounded chunks.

    ``BufferedReader.read(n)`` allocates ``n`` bytes up front, so a
    forged ``Content-Length`` would cost memory the peer never sent.
    """
    chunks = []
    while length > 0:
        chunk = rfile.read1(min(length, _CHUNK))
        if not chunk:
            raise _BadRequest("body shorter than Content-Length")
        chunks.append(chunk)
        length -= len(chunk)
    return b"".join(chunks)


class _RequestHandler(BaseHTTPRequestHandler):
    """One request per connection: parse, run the handler, reply."""

    server: "ServiceServer"
    protocol_version = "HTTP/1.1"
    timeout = _REQUEST_TIMEOUT
    # The head and the body go out as two writes; with Nagle on, the
    # second waits for the peer's delayed ACK.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:
        # A peer that hangs up or goes silent mid-body raises OSError
        # here, which ServiceServer.handle_error drops without a reply.
        try:
            payload = _parse_body(self._read_body())
        except _BadRequest as exc:
            self._reply(400, {"error": f"bad request: {exc}"})
            return
        try:
            # Taken only once the body is in: a stalled client holds
            # its own thread, never the coordinator.
            with self.server.lock:
                status, body = self.server.handler(
                    self.command, self.path, payload
                )
        except Exception as exc:  # a bug in the handler
            status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self._reply(status, body)

    do_POST = do_GET

    def _read_body(self) -> bytes:
        lengths = {
            value.strip()
            for value in self.headers.get_all("Content-Length", ["0"])
        }
        if len(lengths) > 1:
            # RFC 9112 §6.3: an unrecoverable framing error.
            raise _BadRequest(f"conflicting Content-Length: {sorted(lengths)}")
        (length,) = lengths
        if not (length.isascii() and length.isdigit()):
            raise _BadRequest(f"bad Content-Length: {length!r}")
        return _read_exactly(self.rfile, int(length))

    def send_error(
        self, code: int, message: Optional[str] = None, explain: Any = None
    ) -> None:
        """The stdlib's own refusals (bad request line, over-long line or
        headers, unsupported method), in the service's JSON shape."""
        detail = message or HTTPStatus(code).phrase
        self._reply(code, {"error": f"bad request: {detail}"})

    def _reply(self, status: int, body: Any) -> None:
        if isinstance(body, tuple):
            content_type, text = body
            encoded = text.encode("utf-8")
        else:
            content_type = "application/json"
            encoded = json.dumps(body).encode("utf-8")
        # A one-word request line leaves the stdlib on HTTP/0.9, which
        # writes no status line or headers.
        self.request_version = self.protocol_version
        self.send_response_only(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, format: str, *args: Any) -> None:
        pass


class ServiceServer(ThreadingHTTPServer):
    """One thread per connection; ``handler`` and ``tick`` share :attr:`lock`.

    ``serve_forever`` runs ``tick`` every ``poll_interval`` and after
    each accepted connection.
    """

    # A fleet's heartbeats and lease polls can arrive together, and a
    # connection beyond the accept backlog waits out a 1 s SYN resend.
    request_queue_size = 100

    def __init__(
        self,
        address: Tuple[str, int],
        handler: Handler,
        tick: Callable[[], None],
    ) -> None:
        self.handler = handler
        self.tick = tick
        self.lock = threading.Lock()
        super().__init__(address, _RequestHandler)

    def service_actions(self) -> None:
        with self.lock:
            self.tick()

    def handle_error(self, request: Any, client_address: Any) -> None:
        if isinstance(sys.exc_info()[1], OSError):
            return  # peer hung up or timed out mid-exchange
        super().handle_error(request, client_address)


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
