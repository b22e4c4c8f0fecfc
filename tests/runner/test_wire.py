"""The sweep service's HTTP layer: a malformed request is answered 400;
500 is kept for a handler that raises."""

import asyncio
import json

import pytest

from repro.runner.service.wire import start_http_server


def _handler(method, path, body):
    # Every request that parses reaches this, so a 400 proves the
    # request was refused before the handler ran.
    raise RuntimeError("handler bug")


async def _exchange(raw):
    server = await start_http_server("127.0.0.1", 0, _handler)
    port = server.sockets[0].getsockname()[1]
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(raw)
        await writer.drain()
        response = await reader.read()
        writer.close()
        await writer.wait_closed()
    finally:
        server.close()
        await server.wait_closed()
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def _post(body, length=None):
    length = len(body) if length is None else length
    return (
        f"POST /echo HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()
        + body
    )


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param(_post(b"", length="abc"), id="non-numeric-length"),
        pytest.param(_post(b"", length="-5"), id="negative-length"),
        pytest.param(b"GARBAGE\r\n\r\n", id="bad-request-line"),
        pytest.param(_post(b"{not json"), id="non-json-body"),
        pytest.param(_post(b"[1, 2]"), id="non-object-body"),
    ],
)
def test_malformed_request_is_a_400(raw):
    status, body = asyncio.run(_exchange(raw))
    assert status == 400
    assert body["error"].startswith("bad request: ")


def test_handler_exception_is_still_a_500():
    status, body = asyncio.run(_exchange(_post(b'{"a": 1}')))
    assert status == 500
    assert body == {"error": "RuntimeError: handler bug"}

