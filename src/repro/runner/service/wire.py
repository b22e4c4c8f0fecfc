"""Wire protocol for the sweep service: the HTTP client + pickle codecs.

The coordinator serves HTTP/1.1, one request per connection
(:mod:`repro.runner.service.coordinator` holds the server); clients
(worker agent, submit client) call it through :func:`request_json` on
:class:`http.client.HTTPConnection`.  Plain HTTP keeps the service
curl-able and stdlib-only, and this module loads no server code, so a
worker or a client process never imports ``http.server``.

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
from http.client import HTTPConnection
from typing import Any, Dict, Optional
from urllib.parse import urlsplit

__all__ = [
    "ServiceError",
    "decode_payload",
    "encode_payload",
    "request_json",
]


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
    the HTTP status; a transport failure ("coordinator unreachable")
    raises one with ``status=None``.
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
    except OSError as exc:
        raise ServiceError(f"coordinator {base_url} unreachable: {exc}") from None
    finally:
        connection.close()
