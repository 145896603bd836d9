"""The daemon's HTTP/1.1 request codec over raw sockets.

Against a live :class:`~repro.serve.ServeHandle`, with requests written
byte for byte: pipelining, a request trickled one byte at a time, the
64 KiB line and 100-header limits, framing the codec refuses before
dispatch (any ``Transfer-Encoding``, a ``Content-Length`` that is not
ASCII digits, two that differ), version and method refusals, and when
the connection closes.  Every refusal carries a JSON ``{"error": ...}``
body, and nothing reaches stderr or leaks a socket.
"""

import gc
import json
import re
import socket
import threading
import warnings

import pytest

from repro.serve import ServeConfig, ServeDaemon, ServeHandle


@pytest.fixture
def served(capfd):
    """A live daemon; the test must leave stderr empty, no thread
    behind and no socket to a finalizer."""
    before = set(threading.enumerate())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        handle = ServeHandle(ServeDaemon(ServeConfig(disks=2))).start()
        try:
            yield handle
        finally:
            handle.stop()
        gc.collect()
    assert [w for w in caught
            if issubclass(w.category, ResourceWarning)] == []
    assert capfd.readouterr().err == ""
    leaked = [t for t in threading.enumerate()
              if t not in before and t.is_alive()]
    assert not leaked, f"leaked threads: {[t.name for t in leaked]}"


class Peer:
    """A raw client connection: send bytes, read framed replies."""

    def __init__(self, handle) -> None:
        self.sock = socket.create_connection((handle.host, handle.port),
                                             timeout=5.0)
        self.rfile = self.sock.makefile("rb")

    def send(self, data: bytes) -> "Peer":
        self.sock.sendall(data)
        return self

    def reply(self) -> tuple[int, dict, bytes]:
        """One reply: status, headers by lower-cased name, body."""
        line = self.rfile.readline()
        assert line.startswith(b"HTTP/1.1 "), line
        status = int(line.split()[1])
        headers = {}
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.rfile.read(int(headers["content-length"]))
        return status, headers, body

    def error(self, status: int) -> str:
        """Read a refusal: ``status``, a JSON error, then a hang-up."""
        got, headers, body = self.reply()
        assert got == status
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        assert self.closed()
        return json.loads(body)["error"]

    def closed(self) -> bool:
        """Whether the daemon hung up (EOF, or a reset when it left
        request bytes unread)."""
        try:
            return self.rfile.read(1) == b""
        except ConnectionResetError:
            return True

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


@pytest.fixture
def peer(served):
    peers = []

    def connect():
        peers.append(Peer(served))
        return peers[-1]

    yield connect
    for one in peers:
        one.close()


def _post(path: str, body: bytes = b"", headers: str = "") -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: x\r\n{headers}"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


class TestKeepAlive:
    def test_pipelined_requests_answered_in_order(self, served, peer):
        conn = peer().send(_post("/admit") + b"GET /healthz HTTP/1.1\r\n\r\n"
                           + _post("/release", b'{"stream": 0}'))
        status, _, body = conn.reply()
        assert status == 200 and json.loads(body)["stream"] == 0
        status, _, body = conn.reply()
        assert status == 200 and json.loads(body)["active"] == 1
        status, headers, body = conn.reply()
        assert status == 200 and json.loads(body) == {"stream": 0,
                                                      "active": 0}
        assert "connection" not in headers

    def test_request_sent_one_byte_at_a_time(self, served, peer):
        conn = peer()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for byte in _post("/admit/batch", b'{"count": 2}'):
            conn.send(bytes([byte]))
        status, _, body = conn.reply()
        assert status == 200 and json.loads(body)["granted"] == 2
        assert served.daemon.controller.active == 2

    def test_http10_closes_after_the_reply(self, served, peer):
        conn = peer().send(b"GET /healthz HTTP/1.0\r\n\r\n")
        status, headers, _ = conn.reply()
        assert status == 200 and headers["connection"] == "close"
        assert conn.closed()

    def test_connection_close_closes_after_the_reply(self, served, peer):
        conn = peer().send(_post("/admit", headers="Connection: close\r\n"))
        status, headers, _ = conn.reply()
        assert status == 200 and headers["connection"] == "close"
        assert conn.closed()
        assert served.daemon.controller.active == 1

    def test_expect_100_continue_gets_the_interim_reply(self, served, peer):
        body = b'{"count": 2}'
        conn = peer().send(b"POST /admit/batch HTTP/1.1\r\n"
                           b"Expect: 100-continue\r\n"
                           b"Content-Length: %d\r\n\r\n" % len(body))
        assert conn.rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert conn.rfile.readline() == b"\r\n"
        status, _, reply = conn.send(body).reply()
        assert status == 200 and json.loads(reply)["granted"] == 2

    def test_header_names_match_in_any_case(self, served, peer):
        conn = peer().send(b"POST /admit/batch HTTP/1.1\r\n"
                           b"content-LENGTH: 12\r\n\r\n{\"count\": 3}")
        status, _, body = conn.reply()
        assert status == 200 and json.loads(body)["granted"] == 3


class TestLimits:
    def test_request_line_over_64k_is_414(self, served, peer):
        conn = peer().send(b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n")
        assert "too long" in conn.error(414)

    def test_header_line_over_64k_is_431(self, served, peer):
        conn = peer().send(b"GET /healthz HTTP/1.1\r\nX-Big: "
                           + b"b" * 70000 + b"\r\n\r\n")
        assert "too long" in conn.error(431)

    def test_101_headers_is_431(self, served, peer):
        lines = b"".join(b"X-H%d: v\r\n" % n for n in range(101))
        conn = peer().send(b"GET /healthz HTTP/1.1\r\n" + lines + b"\r\n")
        assert "100 headers" in conn.error(431)

    def test_100_headers_are_accepted(self, served, peer):
        lines = b"".join(b"X-H%d: v\r\n" % n for n in range(100))
        conn = peer().send(b"GET /healthz HTTP/1.1\r\n" + lines + b"\r\n")
        assert conn.reply()[0] == 200

    def test_header_line_without_colon_is_400(self, served, peer):
        conn = peer().send(b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n")
        assert "colon" in conn.error(400)

    @pytest.mark.parametrize("line", [
        b"GET /healthz\r\n", b"GET /healthz HTTP/1.1 extra\r\n",
        b"GET /healthz HTTP/11\r\n", b"GET /healthz http/1.1\r\n",
    ])
    def test_bad_request_line_is_400(self, served, peer, line):
        conn = peer().send(line + b"\r\n")
        assert "request line" in conn.error(400)

    def test_http2_is_505(self, served, peer):
        conn = peer().send(b"GET /healthz HTTP/2.0\r\n\r\n")
        assert "HTTP/2.0" in conn.error(505)

    def test_unknown_method_is_501(self, served, peer):
        conn = peer().send(b"PUT /admit HTTP/1.1\r\n"
                           b"Content-Length: 0\r\n\r\n")
        assert "'PUT'" in conn.error(501)
        assert served.daemon.controller.active == 0


class TestFraming:
    """Framing the codec cannot honour is refused before dispatch."""

    def test_chunked_body_is_501_and_nothing_admitted(self, served, peer):
        conn = peer().send(b"POST /admit/batch HTTP/1.1\r\n"
                           b"Transfer-Encoding: chunked\r\n\r\n"
                           b"c\r\n{\"count\": 3}\r\n0\r\n\r\n")
        assert "Transfer-Encoding" in conn.error(501)
        assert served.daemon.controller.active == 0

    @pytest.mark.parametrize("value", ["identity", "gzip, chunked"])
    def test_any_transfer_encoding_is_501(self, served, peer, value):
        conn = peer().send(_post("/admit",
                                 headers=f"Transfer-Encoding: {value}\r\n"))
        conn.error(501)
        assert served.daemon.controller.active == 0

    def test_non_ascii_digits_content_length_is_400(self, served, peer):
        # int() reads Arabic-Indic digits; http.client cannot send them,
        # so this case is here and the ASCII ones are in test_http.py.
        head = ("POST /admit/batch HTTP/1.1\r\nContent-Length: \u0661\u0662"
                "\r\n\r\n").encode("utf-8")
        conn = peer().send(head + b'{"count": 3}')
        assert "Content-Length" in conn.error(400)
        assert served.daemon.controller.active == 0

    def test_differing_content_lengths_are_400(self, served, peer):
        conn = peer().send(b"POST /admit/batch HTTP/1.1\r\n"
                           b"Content-Length: 12\r\nContent-Length: 2\r\n"
                           b"\r\n{\"count\": 3}")
        assert "Content-Length" in conn.error(400)
        assert served.daemon.controller.active == 0

    def test_equal_content_lengths_are_accepted(self, served, peer):
        conn = peer().send(b"POST /admit/batch HTTP/1.1\r\n"
                           b"Content-Length: 12\r\nContent-Length: 12\r\n"
                           b"\r\n{\"count\": 3}")
        status, _, body = conn.reply()
        assert status == 200 and json.loads(body)["granted"] == 3

    def test_body_over_64k_is_400(self, served, peer):
        conn = peer().send(b"POST /admit HTTP/1.1\r\n"
                           b"Content-Length: 70000\r\n\r\n")
        assert "too large" in conn.error(400)

    def test_short_body_is_400(self, served, peer):
        conn = peer().send(b"POST /admit/batch HTTP/1.1\r\n"
                           b"Content-Length: 40\r\n\r\n{\"count\": 3}")
        conn.sock.shutdown(socket.SHUT_WR)
        assert "ended" in conn.error(400)
        assert served.daemon.controller.active == 0

    def test_daemon_keeps_serving_after_refusals(self, served, peer):
        peer().send(b"POST /admit HTTP/1.1\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n").error(501)
        conn = peer().send(_post("/admit"))
        assert conn.reply()[0] == 200


class TestReplyBytes:
    def test_admit_reply_is_pinned(self, served, peer):
        conn = peer().send(_post("/admit"))
        raw = b""
        while not raw.endswith(b"}\n"):
            chunk = conn.sock.recv(4096)
            assert chunk
            raw += chunk
        normalised = re.sub(
            rb"Date: [A-Z][a-z]{2}, \d\d [A-Z][a-z]{2} \d{4} "
            rb"\d\d:\d\d:\d\d GMT\r\n", b"Date: *\r\n", raw)
        assert normalised == (
            b"HTTP/1.1 200 OK\r\n"
            b"Server: repro-serve/1.0\r\n"
            b"Date: *\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 27\r\n"
            b"\r\n"
            b'{"stream": 0, "active": 1}\n')
