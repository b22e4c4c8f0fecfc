"""The sweep service's HTTP layer: a malformed request is refused before
the handler runs, with a structured error; 500 is kept for a handler
that raises."""

import json
import socket
import threading
import time

import pytest

from repro.runner.service import Coordinator, ServiceConfig
from repro.runner.service import coordinator
from repro.runner.service.coordinator import ServiceServer
from repro.runner.service.wire import request_json


def _handler(method, path, body):
    # Every request that parses reaches this, so a 4xx proves the
    # request was refused before the handler ran.
    raise RuntimeError("handler bug")


@pytest.fixture
def port():
    server = ServiceServer(("127.0.0.1", 0), _handler, lambda: None)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}
    )
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
    assert not thread.is_alive()


def _exchange(port, raw):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(raw)
        # EOF ends a short body at once instead of at the read timeout.
        sock.shutdown(socket.SHUT_WR)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 ")
    return int(head.split()[1]), json.loads(body)


def _post(body, length=None, extra=""):
    length = len(body) if length is None else length
    return (
        f"POST /echo HTTP/1.1\r\nContent-Length: {length}\r\n{extra}\r\n"
    ).encode() + body


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(_post(b"", length="abc"), id="non-numeric-length"),
        pytest.param(_post(b"", length="-5"), id="negative-length"),
        pytest.param(b"GARBAGE\r\n\r\n", id="bad-request-line"),
        pytest.param(_post(b"{not json"), id="non-json-body"),
        pytest.param(_post(b"[1, 2]"), id="non-object-body"),
        pytest.param(_post(b'{"a": 1}', length=20), id="short-body"),
        # A length no host could allocate: the body is read as it
        # arrives, not reserved up front.
        pytest.param(_post(b'{"a": 1}', length=10**15), id="forged-length"),
        pytest.param(
            _post(b'{"a": 1}', extra="Content-Length: 0\r\n"),
            id="conflicting-lengths",
        ),
    ],
)
def test_malformed_request_is_a_400(port, raw):
    status, body = _exchange(port, raw)
    assert status == 400
    assert body["error"].startswith("bad request: ")


# Each line stops one byte past the 64 KiB limit with no terminator, so
# the server has read all of it when it answers and closes; unread
# bytes would make the close a reset that can swallow the answer.
@pytest.mark.parametrize(
    "raw, status",
    [
        pytest.param(b"GET /".ljust(65537, b"a"), 414, id="long-request-line"),
        pytest.param(
            b"GET / HTTP/1.1\r\n" + b"X-Long: ".ljust(65537, b"a"),
            431,
            id="long-header",
        ),
    ],
)
def test_oversized_request_is_refused_before_the_handler(port, raw, status):
    got, body = _exchange(port, raw)
    assert got == status
    assert body["error"].startswith("bad request: ")


def test_handler_exception_is_still_a_500(port):
    status, body = _exchange(port, _post(b'{"a": 1}'))
    assert status == 500
    assert body == {"error": "RuntimeError: handler bug"}


def test_peer_silent_mid_body_is_dropped_without_a_reply(port, monkeypatch):
    monkeypatch.setattr(coordinator._RequestHandler, "timeout", 0.2)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(_post(b'{"a": 1}', length=100))
        assert sock.recv(65536) == b""


def test_stalled_client_does_not_delay_other_requests(tmp_path):
    coordinator = Coordinator(
        ServiceConfig(
            cache_dir=str(tmp_path / "cache"),
            checkpoint_dir=str(tmp_path / "ckpt"),
            progress_dir=str(tmp_path / "progress"),
        )
    )
    url = coordinator.start()
    port = int(url.rsplit(":", 1)[1])
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            # Half a body, then silence: the server waits for the rest.
            sock.sendall(_post(b'{"a": 1}', length=100))
            time.sleep(0.05)
            start = time.monotonic()
            health = request_json(url, "GET", "/healthz", timeout=5.0)
            elapsed = time.monotonic() - start
    finally:
        coordinator.stop()
    assert health["ok"] is True
    assert elapsed < 1.0
