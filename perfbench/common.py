"""Run isolation, process control, pacing and statistics shared by the
benchmark's workloads."""

from __future__ import annotations

import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Per-run temp roots live here, inside the checkout.
TMP_PARENT = ROOT / ".perfbench_tmp"
#: Environment marker naming the run that started a process; any process
#: still carrying it after the run is a leak.
RUN_MARK = "PERFBENCH_RUN"
SHM = Path("/dev/shm")
#: The open-loop generator sleeps until this long before a due time and
#: then spins, so the CPU never halts right before a send.
SPIN_S = 0.0015
#: A send later than this after its due time counts as late.
LATE_S = 0.001


class Run:
    """One benchmark run: a fresh temp root, the child environment, the
    processes started, and the failure ledger."""

    def __init__(self, workload: str, seed: int) -> None:
        TMP_PARENT.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix=f"{workload}-",
                                          dir=TMP_PARENT))
        self.tmp = self.root / "tmp"
        self.tmp.mkdir()
        self.seed = seed
        self.token = self.root.name
        self.attempted = 0
        self.failures: list[str] = []
        self.procs: list[subprocess.Popen] = []
        self._shm_before = _shm_names()

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def call(self, what: str, fn, *args):
        """``fn(*args)``; an error it raises is a failed operation, and
        gives None."""
        try:
            return fn(*args)
        except Exception as exc:
            self.check(False, f"{what} raised {exc!r}")
            return None

    def env(self, cache_dir: Path, **extra: str) -> dict:
        """Environment of a child: pinned hash seed, the checkout's
        sources, and every cache and temp path inside this run."""
        env = dict(os.environ)
        env.update({
            "PYTHONHASHSEED": "0",
            "PYTHONPATH": str(SRC),
            "REPRO_CACHE_DIR": str(cache_dir),
            "XDG_CACHE_HOME": str(self.root / "xdg"),
            "TMPDIR": str(self.tmp),
            RUN_MARK: self.token,
        })
        env.update(extra)
        return env

    def spawn(self, argv: list[str], env: dict, name: str
              ) -> subprocess.Popen:
        out = open(self.root / f"{name}.out", "wb")
        err = open(self.root / f"{name}.err", "wb")
        try:
            proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, cwd=ROOT)
        finally:
            out.close()
            err.close()
        proc.perfbench_name = name
        self.procs.append(proc)
        return proc

    def output(self, proc: subprocess.Popen) -> tuple[str, str]:
        name = proc.perfbench_name
        return ((self.root / f"{name}.out").read_text(errors="replace"),
                (self.root / f"{name}.err").read_text(errors="replace"))

    def stop(self, proc: subprocess.Popen, timeout: float = 15.0) -> str:
        """SIGTERM ``proc`` and wait; it must exit 0 with no traceback.
        Returns its standard output."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        return self.reap(proc, timeout)

    def reap(self, proc: subprocess.Popen, timeout: float = 120.0) -> str:
        """Wait for ``proc`` to exit on its own; it must exit 0 with no
        traceback.  Returns its standard output."""
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            self.fail(f"{proc.perfbench_name} did not exit in {timeout}s")
        out, err = self.output(proc)
        self.check(proc.returncode == 0,
                   f"{proc.perfbench_name} exited {proc.returncode}")
        self.check("Traceback" not in err,
                   f"{proc.perfbench_name} printed a traceback:\n{err}")
        return out

    def finish(self) -> None:
        """Kill stragglers, then count leaked processes, temp files and
        shared-memory segments as failures and remove the temp root."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
                self.fail(f"{proc.perfbench_name} still running at the end")
        for pid in _marked_pids(self.token):
            self.fail(f"process {pid} from this run outlived it")
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.check(not any(self.tmp.iterdir()),
                   f"temp files left: {sorted(os.listdir(self.tmp))}")
        leaked = _shm_names() - self._shm_before
        self.check(not leaked, f"/dev/shm segments left: {sorted(leaked)}")
        for name in leaked:
            try:
                (SHM / name).unlink()
            except OSError:
                pass
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass


def _shm_names() -> set[str]:
    try:
        return set(os.listdir(SHM))
    except OSError:
        return set()


def _marked_pids(token: str) -> list[int]:
    """Live processes whose environment carries this run's marker."""
    needle = f"{RUN_MARK}={token}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            environ = (Path("/proc") / entry / "environ").read_bytes()
        except OSError:
            continue
        if needle in environ.split(b"\0"):
            found.append(int(entry))
    return found


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    for line in (Path("/proc") / str(pid) / "status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts afterwards) to the
    last CPU of its affinity set; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def wait_until(due: float) -> float:
    """Block until ``due`` (perf_counter seconds): sleep until SPIN_S
    before it, then spin, so the CPU is busy when the send is due.
    Returns the time the wait ended."""
    now = time.perf_counter()
    if due - now > SPIN_S:
        time.sleep(due - now - SPIN_S)
    while True:
        now = time.perf_counter()
        if now >= due:
            return now


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile ``q`` in [0, 100] of ``values``;
    infinite samples (failed calls) sort last."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    pos = (len(data) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(data) - 1)
    if math.isinf(data[high]):
        return math.inf if pos > low or math.isinf(data[low]) else data[low]
    return data[low] + (data[high] - data[low]) * (pos - low)


def median(values) -> float:
    return percentile(values, 50.0)


def finite(value: float, cap: float = 1e9) -> float:
    """JSON has no infinity: report a failed call's latency as ``cap``."""
    return cap if math.isinf(value) or math.isnan(value) else value

