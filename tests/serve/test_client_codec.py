"""ServeClient's keep-alive wire codec over real sockets.

Against a live :class:`~repro.serve.ServeHandle`: keep-alive reuse,
reconnecting after ``Connection: close``, a large ``/metrics`` body.
Against a socket-level fake peer: the exact request bytes, one send
per request, and every malformed reply ending as a transport failure
inside the retry taxonomy -- never a bare ``ValueError`` or
``MemoryError``.  The daemon URL is validated when the client is
built, because the codec writes the request target verbatim.
"""

import gc
import http.client
import re
import socket
import threading
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.obs.spans import TRACE_HEADER, parse_trace_header
from repro.serve import ServeClient, ServeConfig, ServeDaemon, ServeHandle


@pytest.fixture
def served():
    """A live daemon whose accepted connections are counted."""
    daemon = ServeDaemon(ServeConfig(disks=2))
    handle = ServeHandle(daemon)
    accepted = []
    get_request = handle.server.get_request

    def counting():
        request, address = get_request()
        accepted.append(address)
        return request, address

    handle.server.get_request = counting
    handle.start()
    try:
        yield handle, accepted
    finally:
        handle.stop()


def _read_request(conn) -> bytes | None:
    """One request off ``conn`` (head plus Content-Length body), or
    None at EOF."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    match = re.search(rb"\r\nContent-Length: (\d+)", head)
    length = int(match.group(1)) if match else 0
    while len(body) < length:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        body += chunk
    return head + b"\r\n\r\n" + body


class FakePeer:
    """A loopback server answering every request with ``reply``; it
    hangs up after each reply when ``close`` is set.  Connections are
    served one at a time: the client opens the next only after
    discarding the last."""

    def __init__(self, reply: bytes, *, close: bool = True) -> None:
        self.reply = reply
        self.close = close
        self.requests: list[bytes] = []
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve)

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _address = self._listener.accept()
            except TimeoutError:
                continue
            self.connections += 1
            with conn:
                conn.settimeout(5.0)
                try:
                    while (request := _read_request(conn)) is not None:
                        self.requests.append(request)
                        conn.sendall(self.reply)
                        if self.close:
                            break
                except OSError:
                    pass  # the client hung up on a reply it refused

    def __enter__(self) -> "FakePeer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)
        assert not self._thread.is_alive()
        self._listener.close()


def _ok(body: bytes) -> bytes:
    return (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)) + body


class TestLiveDaemon:
    def test_requests_share_one_connection(self, served):
        handle, accepted = served
        with ServeClient(handle.url) as client:
            for _ in range(10):
                client.release(client.admit()["stream"])
            client.state()
            assert client.retried == 0
        assert len(accepted) == 1

    def test_connection_close_reply_then_reconnect(self, served):
        """An oversized Content-Length, written raw on the client's
        socket, draws a 400 with ``Connection: close``: the codec
        closes, and the next request on the same client reconnects."""
        handle, accepted = served
        with ServeClient(handle.url) as client:
            client.healthz()
            [conn] = client._conns
            conn._sock.sendall(b"POST /admit HTTP/1.1\r\nHost: x\r\n"
                               b"Content-Length: 1000000\r\n\r\n")
            reply = conn.getresponse()
            assert reply.status == 400
            assert b"too large" in reply.read()
            assert conn._sock is None
            assert client.admit()["admitted"]
            assert client.retried == 0
        assert len(accepted) == 2
        assert handle.daemon.controller.active == 1

    def test_large_metrics_body_arrives_whole(self, served):
        handle, _accepted = served
        registry = handle.daemon.registry
        for index in range(1500):
            registry.counter(f"codec_padding_{index}_total",
                             help="padding for a multi-recv body").inc()
        with ServeClient(handle.url) as client:
            text = client.metrics()
        assert len(text.encode("utf-8")) > 64 * 1024
        assert text.endswith("\n")
        lines = text.splitlines()
        for index in (0, 749, 1499):
            assert f"codec_padding_{index}_total 1" in lines
        assert text.count("# TYPE") == \
            registry.to_prometheus().count("# TYPE")


class TestWireBytes:
    def test_release_is_one_send_of_exact_bytes(self, monkeypatch):
        caller = threading.get_ident()
        sent = []
        sendall = socket.socket.sendall

        def recording(sock, data, *args):
            if threading.get_ident() == caller:
                sent.append(bytes(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", recording)
        with FakePeer(_ok(b'{"stream": 5, "active": 0}'),
                      close=False) as peer:
            with ServeClient(peer.url) as client:
                assert client.release(5) == {"stream": 5, "active": 0}
                client.release(5)
        assert len(sent) == 2  # one send per request
        assert peer.requests == sent
        match = re.search(rb"X-Repro-Trace: ([^\r]*)\r\n", sent[0])
        trace = match.group(1).decode("ascii")
        context, attempt = parse_trace_header(trace)
        assert context is not None and attempt == 1
        port = peer.url.rsplit(":", 1)[1]
        assert sent[0] == (
            f"POST /release HTTP/1.1\r\n"
            f"Host: 127.0.0.1:{port}\r\n"
            f"{TRACE_HEADER}: {trace}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: 13\r\n"
            f"\r\n"
            f'{{"stream": 5}}').encode("ascii")
        assert peer.connections == 1

    def test_body_larger_than_a_read_chunk_arrives_whole(self):
        body = bytes(range(256)) * (12 << 10)  # 3 MiB
        reply = (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n"
                 % len(body)) + body
        with FakePeer(reply) as peer:
            with ServeClient(peer.url) as client:
                assert client._request("GET", "/metrics") == (200, body)


HEAD = b"HTTP/1.1 200 OK\r\n"

MALFORMED = {
    "garbage status line": b"SPDY/9 yes\r\nContent-Length: 2\r\n\r\n{}",
    "status code not 3 digits": HEAD.replace(b"200", b"2000")
    + b"Content-Length: 2\r\n\r\n{}",
    "missing Content-Length": HEAD + b"\r\n{}",
    "negative Content-Length": HEAD + b"Content-Length: -5\r\n\r\n{}",
    "non-numeric Content-Length": HEAD
    + b"Content-Length: 2x\r\n\r\n{}",
    "Content-Length beyond int()": HEAD + b"Content-Length: "
    + b"9" * 5000 + b"\r\n\r\n{}",
    "EOF before the status line": b"",
    "EOF mid-body": HEAD + b'Content-Length: 100\r\n\r\n{"a": ',
    "EOF under a huge Content-Length": HEAD
    + b"Content-Length: 1000000000000000\r\n\r\n{}",
    "over-long header line": HEAD + b"X-Pad: " + b"a" * 70000
    + b"\r\nContent-Length: 2\r\n\r\n{}",
    "101 headers": HEAD + b"X-Pad: 1\r\n" * 100
    + b"Content-Length: 2\r\n\r\n{}",
}


class TestMalformedReplies:
    @pytest.mark.parametrize("reply", MALFORMED.values(),
                             ids=MALFORMED.keys())
    def test_read_retries_then_reports_unreachable(self, reply):
        with FakePeer(reply) as peer:
            with ServeClient(peer.url, retries=3,
                             sleep=lambda _s: None) as client:
                with pytest.raises(ConfigurationError,
                                   match=r"unreachable after 3 "
                                   r"attempt\(s\)") as caught:
                    client.state()
        assert isinstance(caught.value.__cause__,
                          (http.client.HTTPException, OSError))
        assert len(peer.requests) == 3

    @pytest.mark.parametrize("reply", MALFORMED.values(),
                             ids=MALFORMED.keys())
    def test_admit_reports_mid_flight(self, reply):
        with FakePeer(reply) as peer:
            with ServeClient(peer.url, retries=3,
                             sleep=lambda _s: None) as client:
                with pytest.raises(ConfigurationError,
                                   match="mid-flight") as caught:
                    client.admit()
        assert isinstance(caught.value.__cause__,
                          (http.client.HTTPException, OSError))
        assert len(peer.requests) == 1

    def test_a_hundred_headers_are_accepted(self):
        reply = HEAD + b"X-Pad: 1\r\n" * 99 + b"Content-Length: 2\r\n\r\n{}"
        with FakePeer(reply) as peer:
            with ServeClient(peer.url) as client:
                assert client.state() == {}


class TestUrlValidation:
    @pytest.mark.parametrize("url", [
        "http://127.0.0.1:9/a b", "http://127.0.0.1:9/a\x00",
        "http://127.0.0.1:9/a\tb", "http://127.0.0.1:9/a\x7f",
        "http://127.0.0.1:9/a\r\nX-Injected: 1", "http://127.0.0.1:9/\xe9",
    ])
    def test_bad_path_is_refused_when_built(self, url):
        with pytest.raises(ConfigurationError, match="printable ASCII"):
            ServeClient(url)

    def test_url_without_host_is_refused(self):
        with pytest.raises(ConfigurationError, match="needs a host"):
            ServeClient("http://")

    def test_path_prefix_is_sent(self):
        with FakePeer(_ok(b"{}"), close=False) as peer:
            with ServeClient(peer.url + "/api/") as client:
                client.state()
        assert peer.requests[0].startswith(b"GET /api/state HTTP/1.1\r\n")


class TestSocketLifetime:
    @pytest.mark.parametrize("ending", ["close", "drop"])
    def test_no_resource_warning(self, served, ending):
        handle, _accepted = served
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            client = ServeClient(handle.url)
            client.healthz()
            worker = threading.Thread(target=client.healthz)
            worker.start()
            worker.join(timeout=10.0)
            assert not worker.is_alive()
            if ending == "close":
                client.close()
            del client
            gc.collect()
        assert [w for w in caught
                if issubclass(w.category, ResourceWarning)] == []
