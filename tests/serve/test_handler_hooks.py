"""The request-handler methods a profiler may wrap by name.

A traced run can replace ``_Handler.handle_one_request``,
``parse_request``, ``send_response``, ``do_POST`` and ``do_GET`` on the
class with wrappers; the codec must call each through ``self`` (so the
wrapper runs for every request), in order, and handler instances must
take new attributes.  This drives an admit, a release, a 409 and a
``/healthz`` through :class:`ServeClient` with counting wrappers in
place.
"""

import functools

import pytest

from repro.obs.spans import TRACE_HEADER
from repro.serve import ServeClient, ServeConfig, ServeDaemon, ServeHandle
from repro.serve.http import _Handler


@pytest.fixture
def hooked(monkeypatch):
    """Counting wrappers on the five methods; returns the event log and
    the ``X-Repro-Trace`` values the client sent."""
    events = []

    def wrap(name, before=None, after=None):
        method = getattr(_Handler, name)

        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            if before is not None:
                before(self, *args)
            result = method(self, *args, **kwargs)
            if after is not None:
                after(self, result)
            return result

        monkeypatch.setattr(_Handler, name, wrapper)

    def handle_in(self):
        self.hook_note = "parsed nothing yet"  # instances take new names
        events.append("handle>")

    def parsed(self, ok):
        assert self.hook_note == "parsed nothing yet"
        events.append(("parse", ok, self.headers.get("X-Repro-Trace")))

    wrap("handle_one_request", before=handle_in,
         after=lambda self, _: events.append("<handle"))
    wrap("parse_request", after=parsed)
    wrap("send_response",
         before=lambda self, code, message=None: events.append(
             ("send", code)))
    wrap("do_POST", before=lambda self: events.append("POST"))
    wrap("do_GET", before=lambda self: events.append("GET"))

    sent = []
    roundtrip = ServeClient._roundtrip

    def recording(self, method, path, data, headers):
        sent.append(headers[TRACE_HEADER])
        return roundtrip(self, method, path, data, headers)

    monkeypatch.setattr(ServeClient, "_roundtrip", recording)
    return events, sent


def test_every_hook_runs_once_per_request_in_order(hooked):
    events, sent = hooked
    daemon = ServeDaemon(ServeConfig(disks=2))
    with ServeHandle(daemon) as handle:
        with ServeClient(handle.url) as client:
            ticket = client.admit()
            client.release(ticket["stream"])
            daemon.admit_many(daemon.controller.capacity)
            assert client.admit()["admitted"] is False
            assert client.healthz()["status"] == "ok"
    requests = [("POST", 200), ("POST", 200), ("POST", 409),
                ("GET", 200)]
    expected = []
    for (route, status), header in zip(requests, sent, strict=True):
        expected += ["handle>", ("parse", True, header), route,
                     ("send", status), "<handle"]
    # The last call reads the hang-up: no request, no parse.
    assert events == expected + ["handle>", "<handle"]
