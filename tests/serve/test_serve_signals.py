"""``repro serve`` stops cleanly on a SIGTERM sent at start-up.

A supervisor may signal the daemon the moment it is reachable: as soon
as the port file appears, or right after the first ``/healthz`` 200.
Each such stop must exit 0, report a signalled stop, keep stderr free
of tracebacks and leave a clean snapshot.  The daemons run as real
subprocesses, since signal handlers only exist on a main thread.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: A stop that takes longer than this is a hang, not a slow stop.
STOP_TIMEOUT_S = 30.0


@pytest.fixture(scope="module")
def serve_env(tmp_path_factory):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One bound store for every start: the first builds it, the rest
    # start warm, as a restarted production daemon would.
    env["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("bounds"))
    return env


def _wait_for_port(proc, port_file: Path) -> int:
    """Port of the daemon, read the instant its port file appears.

    The poll only yields the CPU instead of sleeping: a supervisor
    that reacts within microseconds is the one that finds a window
    between the daemon becoming reachable and trapping signals."""
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while time.monotonic() < deadline:
        if port_file.exists():
            text = port_file.read_text().strip()
            if text:
                return int(text)
        if proc.poll() is not None:
            raise AssertionError(f"daemon exited early: {proc.returncode}")
        time.sleep(0)
    raise AssertionError("daemon never wrote its port file")


def _wait_for_healthz(port: int) -> None:
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz", timeout=5) as reply:
                if reply.status == 200:
                    return
        except OSError:
            time.sleep(0.005)
    raise AssertionError("daemon never answered /healthz")


@pytest.mark.parametrize("when", ["port-file"] * 7 + ["healthz"] * 3)
def test_sigterm_at_startup_stops_cleanly(when, tmp_path, serve_env):
    port_file = tmp_path / "serve.port"
    snapshot = tmp_path / "serve.snapshot.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--port-file", str(port_file), "--snapshot-path", str(snapshot),
         "--disks", "2"],
        env=serve_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        port = _wait_for_port(proc, port_file)
        if when == "healthz":
            _wait_for_healthz(port)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=STOP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, (proc.returncode, out, err)
    assert "stopped (signal)" in out
    assert "Traceback" not in err, err
    document = json.loads(snapshot.read_text(encoding="utf-8"))
    assert document["clean"] is True
