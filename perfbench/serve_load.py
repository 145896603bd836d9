"""The two serve workloads: a live ``repro serve`` daemon driven over
HTTP by one pinned, single-threaded load generator.

``ticket-http``  one admit or release per request over one keep-alive
                 connection, ~100 tickets held against capacity 1792,
                 cold bound store at every start.
``batch-storm``  16-ticket batch admits/releases over two alternating
                 connections against capacity 224, held at capacity,
                 with a disk_fail/disk_recover cycle, /metrics scrapes
                 and /state reads; warm bound store and a restored
                 snapshot at every start.

Each run alternates an open-loop phase (fixed rate, latency from the due
time) and a closed-loop phase (fixed request count, throughput) in
ROUNDS rounds.  Every reply is checked against the generator's own model
of the ledger.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import shutil
import sys
import time
from pathlib import Path

import common
from common import Run, median, percentile
import tracing

#: Daemon starts whose set-up time is timed; setup_s is their median.
#: They come before and after the measured phases, so that they sample
#: the host at both ends of the run.
TIMED_STARTS = 5
#: A start that is not driven serves this long (``--duration``) and then
#: exits on its own.  Only a daemon that has served the measured phases
#: is stopped by SIGTERM (see "A defect in the program" in NOTES.md).
BRIEF_S = 0.5
#: Open-loop share of the run's --seconds; the rest is the closed loop.
OPEN_SHARE = 0.5
#: The open and closed loops alternate in this many rounds, so that each
#: phase samples the host over the whole run.
ROUNDS = 4
#: The host runs this process at two speeds about 2x apart.  A slow
#: stretch can last minutes, but it is broken by fast windows shorter
#: than a second (see NOTES.md).  A plain median over a run reports the
#: slow share, so the figures come from the fast side of many short
#: blocks, as timeit reports the best of several repeats: the median
#: admit latency from the best block of this many consecutive admits, ...
LATENCY_BLOCK = 50
#: ... and throughput from the fastest block of this many consecutive
#: closed-loop requests (50-80 ms).  batch-storm's fault and read
#: cadences divide it, so every block carries the same mix.
RATE_BLOCK = 200


class Daemon:
    """A started ``repro serve`` process and its set-up time."""

    def __init__(self, run: Run, name: str, cache_dir: Path, args: list,
                 spans: Path | None = None,
                 duration: float | None = None) -> None:
        port_file = run.root / f"{name}.port"
        serve = ["serve", "--port", "0", "--port-file", str(port_file),
                 *args]
        if duration is not None:
            serve += ["--duration", str(duration)]
        if spans is None:
            argv = [sys.executable, "-m", "repro", *serve]
            env = run.env(cache_dir)
        else:
            argv = [sys.executable, str(common.HERE / "launch.py"), *serve]
            env = run.env(cache_dir, PERFBENCH_SPANS=str(spans))
        self.run = run
        self.name = name
        self.spans = spans
        start = time.perf_counter()
        self.proc = run.spawn(argv, env, name)
        self.port = self._wait_port(port_file)
        self._wait_healthy()
        self.setup_s = time.perf_counter() - start
        self.url = f"http://127.0.0.1:{self.port}"
        self.rss_mb = 0.0

    def _alive(self) -> None:
        if self.proc.poll() is not None:
            out, err = self.run.output(self.proc)
            raise RuntimeError(f"{self.name} exited {self.proc.returncode}"
                               f" during start-up:\n{err}")

    def _wait_port(self, port_file: Path) -> int:
        deadline = time.perf_counter() + 120.0
        while time.perf_counter() < deadline:
            try:
                return int(port_file.read_text())
            except (OSError, ValueError):
                self._alive()
                time.sleep(0.002)
        raise RuntimeError(f"{self.name} wrote no port file")

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5.0)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                self._alive()
            finally:
                conn.close()
            time.sleep(0.002)
        raise RuntimeError(f"{self.name} never answered /healthz")

    def sample_rss(self) -> None:
        """Record the daemon's peak RSS so far, while it runs; the last
        reading stands if it dies."""
        if self.proc.poll() is None:
            self.rss_mb = common.vm_hwm_mb(self.proc.pid)

    def stop(self) -> str:
        return self.run.stop(self.proc)

    def expire(self) -> str:
        """Wait for a daemon started with a duration to exit by itself;
        it must say so.  Returns its standard output."""
        out = self.run.reap(self.proc, timeout=30.0)
        self.run.check("repro serve: stopped (duration elapsed)" in out,
                       f"{self.name} did not stop at its duration:\n{out}")
        return out


def _scrape_value(text: str, name: str) -> float:
    """Value of an unlabelled sample in a Prometheus exposition."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return 0.0


class Ledger:
    """The generator's model of the daemon's ledger.  Every reply is
    checked against it, and a call that raises (a transport error, a
    5xx, a malformed reply) is a failed operation."""

    def __init__(self, run: Run, rng: random.Random, daemon) -> None:
        self.run = run
        self.rng = rng
        self.daemon = daemon
        self.dead = False
        self.ticket_ops = 0

    def step(self, client) -> tuple[str, bool]:
        op = self.next_op()
        return op, self.do(op, client)

    def do(self, op: str, client) -> bool:
        """Run operation ``op``; its own checks decide whether it held.
        Once a call has failed because the daemon died, nothing more is
        sent and every operation fails."""
        if self.dead:
            return False
        try:
            return getattr(self, op)(client)
        except Exception as exc:
            self.run.check(False, f"{op} raised {exc!r}")
            if self.daemon.proc.poll() is not None:
                self.dead = True
                self.run.fail(f"{self.daemon.name} died while driven")
            return False


# -- ticket-http ------------------------------------------------------------

TICKET_DISKS = 64
#: Tickets the generator holds; capacity (64 x 28 = 1792) is far above.
TICKET_HELD = 100
#: Open-loop rate, about a quarter of the closed-loop request rate.
TICKET_RATE = 1000.0
#: Closed-loop requests per second of the closed-loop share of --seconds.
TICKET_CLOSED_RATE = 3100.0


class TicketLedger(Ledger):
    """The generator's own tickets: every admit is granted."""

    def __init__(self, run: Run, rng: random.Random, daemon) -> None:
        super().__init__(run, rng, daemon)
        self.held: list[int] = []
        self.next_id = 0

    def prefill(self, client) -> None:
        for _ in range(TICKET_HELD):
            self.do("admit", client)

    def next_op(self) -> str:
        held = len(self.held)
        if held <= TICKET_HELD - 10:
            return "admit"
        if held >= TICKET_HELD + 10:
            return "release"
        return "admit" if self.rng.random() < 0.5 else "release"

    def admit(self, client) -> bool:
        data = client.admit()
        expected = self.next_id
        ok = self.run.check(
            data.get("admitted") is True and data.get("stream") == expected
            and data.get("active") == len(self.held) + 1,
            f"admit: expected ticket {expected} granted with "
            f"{len(self.held) + 1} active, got {data}")
        if ok:
            self.held.append(expected)
            self.next_id += 1
            self.ticket_ops += 1
        return ok

    def release(self, client) -> bool:
        at = self.rng.randrange(len(self.held))
        ticket = self.held[at]
        data = client.release(ticket)
        ok = self.run.check(
            data.get("stream") == ticket
            and data.get("active") == len(self.held) - 1,
            f"release {ticket}: got {data}")
        if ok:
            self.held[at] = self.held[-1]
            self.held.pop()
            self.ticket_ops += 1
        return ok

    def state(self, client) -> bool:
        state = client.state()
        return self.run.check(
            sorted(state["streams"]) == sorted(self.held)
            and state["paused_streams"] == [],
            f"/state ledger differs from the generator's "
            f"({len(state['streams'])} vs {len(self.held)})")


def open_loop(ledger, clients, rate: float, count: int, out: dict) -> None:
    """Send ``count`` requests at ``rate``/s, each on its due time;
    admit latency is measured from the due time."""
    start = time.perf_counter() + 0.01
    for i in range(count):
        if ledger.dead:
            return
        due = start + i / rate
        sent = common.wait_until(due)
        out["late"].append(sent - due)
        op, ok = ledger.step(clients[i % len(clients)])
        done = time.perf_counter()
        if op == "admit":
            out["latencies"].append(done - due if ok else float("inf"))


def closed_loop(ledger, clients, count: int, out: dict) -> None:
    """Send ``count`` requests back to back in blocks of RATE_BLOCK;
    records the ticket operations per second of each block."""
    for _ in range(count // RATE_BLOCK):
        if ledger.dead:
            return
        before = ledger.ticket_ops
        start = time.perf_counter()
        for i in range(RATE_BLOCK):
            ledger.step(clients[i % len(clients)])
        out["rates"].append((ledger.ticket_ops - before)
                            / (time.perf_counter() - start))


def no_phases() -> dict:
    """Admit latencies, send lateness and closed-loop block rates."""
    return {"latencies": [], "late": [], "rates": []}


def phases(ledger, clients, rate: float, seconds: float,
           closed_rate: float) -> dict:
    """ROUNDS rounds of an open loop at ``rate`` and a closed loop of a
    fixed request count; together they last about ``seconds``."""
    out = no_phases()
    open_count = int(rate * seconds * OPEN_SHARE / ROUNDS)
    closed_count = int(closed_rate * seconds * (1 - OPEN_SHARE) / ROUNDS)
    for _ in range(ROUNDS):
        open_loop(ledger, clients, rate, open_count, out)
        closed_loop(ledger, clients, closed_count, out)
        ledger.daemon.sample_rss()
    return out


def best_block_median(latencies) -> float:
    """The median of each LATENCY_BLOCK consecutive admits; the best
    (lowest) block's value."""
    return min((median(latencies[i:i + LATENCY_BLOCK])
                for i in range(0, len(latencies) - LATENCY_BLOCK + 1,
                               LATENCY_BLOCK)), default=math.inf)


def rate_of(rates) -> float:
    """Closed-loop throughput: the fastest block's rate."""
    return max(rates, default=0.0)


def serve_run(run: Run, trace: bool, start, drive) -> dict:
    """The common shape of a serve run.

    Untraced: TIMED_STARTS timed starts (setup_s is their median); the
    third is driven, and the rest serve BRIEF_S and exit.  Traced: one
    untraced daemon is driven for the tracing-overhead baseline, then
    one traced daemon, whose spans give the per-layer metrics.
    ``start(name, spans, duration)`` returns a started :class:`Daemon`;
    ``drive(daemon, recorder)`` runs both phases, stops the daemon and
    returns what it measured.
    """
    if not trace:
        setups = []

        def timed(k, duration=None):
            daemon = start(f"daemon{k}", None, duration)
            setups.append(daemon.setup_s)
            return daemon

        driven_k = 2
        for k in range(driven_k):
            timed(k, BRIEF_S).expire()
        driven = drive(timed(driven_k), None)
        for k in range(driven_k + 1, TIMED_STARTS):
            timed(k, BRIEF_S).expire()
        return serve_metrics(setups, driven)
    untraced = drive(start("baseline", None), None)
    recorder = tracing.Recorder()
    tracing.install_client(recorder)
    daemon = start("daemon", run.root / "spans.json")
    driven = drive(daemon, recorder)
    return serve_layers(recorder, daemon.spans, driven, untraced)


def ticket_http(run: Run, seconds: float, trace: bool) -> dict:
    from repro.serve import ServeClient

    common.pin_to_one_cpu()
    args = ["--disks", str(TICKET_DISKS)]

    def start(name, spans, duration=None):
        # Every start solves every bound: its own empty bound store.
        return Daemon(run, name, run.root / f"cache-{name}", args, spans,
                      duration)

    def drive(daemon, recorder):
        ledger = TicketLedger(run, random.Random(run.seed), daemon)
        with ServeClient(daemon.url) as client:
            ledger.prefill(client)
            if recorder is not None:
                recorder.spans.clear()
            measured = phases(ledger, [client], TICKET_RATE, seconds,
                              TICKET_CLOSED_RATE)
            ledger.do("state", client)
            scrape = run.call("/metrics", client.metrics) or ""
            retries = client.retried
        return finish(run, daemon, measured, scrape, retries)

    # Untimed first start: .pyc compilation and page-cache fill.
    start("warmup", None, BRIEF_S).expire()
    return serve_run(run, trace, start, drive)


def finish(run: Run, daemon: Daemon, measured, scrape, retries) -> dict:
    """Stop a driven daemon; its peak RSS is read just before."""
    daemon.sample_rss()
    out = daemon.stop()
    run.check("repro serve: stopped (signal)" in out,
              f"{daemon.name} did not report a signalled stop:\n{out}")
    return {"phases": measured, "scrape": scrape, "retries": retries,
            "rss": daemon.rss_mb, "out": out}


# -- batch-storm ------------------------------------------------------------

STORM_DISKS = 8
BATCH = 16
#: A fault event every this many requests, alternating fail/recover.
FAULT_EVERY = 40
#: A /metrics scrape and a /state read every this many requests.
READ_EVERY = 50
#: Open-loop rate, about 0.28 of the closed-loop request rate.
STORM_RATE = 800.0
#: Closed-loop requests per second of the closed-loop share of --seconds.
STORM_CLOSED_RATE = 1800.0
#: The warm-up start serves this long: time to fill it to capacity.
WARMUP_S = 2.0


class StormLedger(Ledger):
    """The daemon's ledger under batch admits, releases and
    shed/resume, started from its restored ``state``; every reply must
    match it exactly."""

    def __init__(self, run: Run, rng: random.Random, daemon,
                 state: dict) -> None:
        super().__init__(run, rng, daemon)
        self.active = sorted(state["streams"])
        self.paused = sorted(state["paused_streams"])
        self.next_id = state["next_stream"]
        self.healthy = state["controller"]["capacity"]
        self.degraded = state["policy"]["target"]
        self.failed: int | None = None
        self.index = 0
        self.counts = {"granted": 0, "refused": 0, "released": 0,
                       "shed": 0, "resumed": 0}

    @property
    def capacity(self) -> int:
        return self.degraded if self.failed is not None else self.healthy

    def next_op(self) -> str:
        i = self.index
        self.index += 1
        if i % FAULT_EVERY == FAULT_EVERY // 2:
            return "fault"
        if i % READ_EVERY == 10:
            return "metrics"
        if i % READ_EVERY == 35:
            return "state"
        if self.rng.random() < 0.5 or len(self.active) < BATCH:
            return "admit"
        return "release"

    def admit(self, client) -> bool:
        want = min(BATCH, max(0, self.capacity - len(self.active)))
        data = client.admit_many(BATCH, batch=BATCH)
        expected = list(range(self.next_id, self.next_id + want))
        ok = self.run.check(
            data["granted"] == want and data["streams"] == expected,
            f"admit_many: expected {want} granted, got {data['granted']}")
        if ok:
            self.active.extend(expected)
            self.next_id += want
            self.counts["granted"] += want
            self.counts["refused"] += BATCH - want
            self.ticket_ops += BATCH
        return ok

    def release(self, client) -> bool:
        picked = self.rng.sample(self.active, BATCH)
        data = client.release_many(picked, batch=BATCH)
        ok = self.run.check(
            sorted(data["released"]) == sorted(picked)
            and data["missing"] == [],
            f"release_many: {len(data['released'])} released, "
            f"missing {data['missing']}")
        if ok:
            gone = set(picked)
            self.active = [s for s in self.active if s not in gone]
            self.counts["released"] += BATCH
            self.ticket_ops += BATCH
        return ok

    def fault(self, client) -> bool:
        if self.failed is None:
            return self.fail_disk(client, self.rng.randrange(STORM_DISKS))
        return self.recover_disk(client)

    def fail_disk(self, client, disk: int) -> bool:
        self.failed = disk
        shed = max(0, len(self.active) - self.capacity)
        data = client.fault("disk_fail", disk)
        ok = self.run.check(
            data.get("shed") == shed
            and data.get("active") == len(self.active) - shed,
            f"disk_fail {disk}: expected {shed} shed, got {data}")
        if ok and shed:
            self.paused = sorted(self.paused + self.active[-shed:])
            del self.active[-shed:]
        self.counts["shed"] += shed
        return ok

    def recover_disk(self, client) -> bool:
        disk, self.failed = self.failed, None
        room = max(0, self.capacity - len(self.active))
        resumed = self.paused[:room]
        data = client.fault("disk_recover", disk)
        ok = self.run.check(
            data.get("resumed") == len(resumed)
            and data.get("active") == len(self.active) + len(resumed),
            f"disk_recover {disk}: expected {len(resumed)} resumed, "
            f"got {data}")
        if ok:
            self.active = sorted(self.active + resumed)
            del self.paused[:len(resumed)]
        self.counts["resumed"] += len(resumed)
        return ok

    def metrics(self, client) -> bool:
        text = client.metrics()
        return self.run.check("serve_admitted_total" in text,
                              "/metrics scrape lacks serve_admitted_total")

    def state(self, client) -> bool:
        state = client.state()
        controller = state["controller"]
        return self.run.check(
            controller["active"] <= controller["capacity"]
            and state["streams"] == self.active
            and state["paused_streams"] == self.paused,
            f"/state differs from the model: active "
            f"{controller['active']}/{controller['capacity']}, model "
            f"{len(self.active)} active {len(self.paused)} paused")


def batch_storm(run: Run, seconds: float, trace: bool) -> dict:
    from repro.serve import ServeClient

    common.pin_to_one_cpu()
    snapshot = run.root / "snapshot.json"
    clean = run.root / "snapshot.clean.json"
    args = ["--disks", str(STORM_DISKS), "--snapshot-path", str(snapshot)]
    capacity = STORM_DISKS * 28  # N_max^perror = 28 per disk

    def start(name, spans, duration=None):
        # Warm start: the shared bound store and the clean snapshot.
        shutil.copyfile(clean, snapshot)
        return Daemon(run, name, run.root / "cache", args, spans, duration)

    def drive(daemon, recorder):
        clients = [ServeClient(daemon.url), ServeClient(daemon.url)]
        try:
            state = run.call("/state", clients[0].state)
            if state is None:  # no restored state to model: no drive
                return finish(run, daemon, no_phases(), "", 0)
            run.check(state["restored"]
                      and len(state["streams"]) == capacity,
                      f"{daemon.name} did not restore the clean snapshot")
            ledger = StormLedger(run, random.Random(run.seed), daemon,
                                 state)
            if recorder is not None:
                recorder.spans.clear()
            measured = phases(ledger, clients, STORM_RATE, seconds,
                              STORM_CLOSED_RATE)
            # Every paused stream must resume after the final recovery.
            if ledger.failed is not None:
                ledger.do("recover_disk", clients[0])
            run.check(ledger.paused == [], "streams still paused")
            ledger.do("state", clients[0])
            scrape = run.call("/metrics", clients[0].metrics) or ""
            retries = sum(client.retried for client in clients)
        finally:
            for client in clients:
                client.close()
        driven = finish(run, daemon, measured, scrape, retries)
        written = run.call("reading the snapshot",
                           lambda: json.loads(snapshot.read_text()))
        run.check("clean snapshot written" in driven["out"]
                  and written is not None and written["clean"]
                  and written["ledger"]["streams"] == ledger.active
                  and written["ledger"]["paused"] == [],
                  f"{daemon.name} wrote no clean snapshot of the final "
                  f"ledger on SIGTERM")
        print(f"perfbench: {daemon.name} counts {ledger.counts}",
              file=sys.stderr)
        return driven

    # Untimed first start: fills the bound store and the clean snapshot,
    # which it writes when its duration ends.
    warmup = Daemon(run, "warmup", run.root / "cache", args,
                    duration=WARMUP_S)
    with ServeClient(warmup.url) as client:
        filled = run.call("warm-up fill", lambda: client.admit_many(
            capacity, batch=BATCH))
    run.check(filled is not None and filled["granted"] == capacity,
              "warm-up fill")
    run.check("clean snapshot written" in warmup.expire(),
              "warm-up wrote no clean snapshot")
    shutil.copyfile(snapshot, clean)
    return serve_run(run, trace, start, drive)


# -- metrics ------------------------------------------------------------------

def serve_metrics(setups, driven) -> dict:
    latencies = driven["phases"]["latencies"]
    return {
        "setup_s": (median(setups), "s"),
        "throughput_per_s": (rate_of(driven["phases"]["rates"]), "1/s"),
        "latency_p50_ms": (common.finite(best_block_median(latencies) * 1e3),
                           "ms"),
        "peak_rss_mb": (driven["rss"], "MB"),
    }


def _pct_ms(values, q) -> float:
    return common.finite(percentile(values, q) * 1e3) if values else 0.0


def serve_layers(recorder, spans_path: Path, driven: dict,
                 untraced: dict) -> dict:
    """Per-layer metrics of a traced serve run: the generator's client
    spans joined with the daemon's spans by trace id."""
    dump = json.loads(spans_path.read_text())
    daemon_spans = dump["spans"]
    counters = dump["counters"]
    extra = dump["extra"]

    by_name = tracing.group_spans(daemon_spans)
    handled: dict[str, list] = {}
    layer_self: dict[tuple, float] = {}
    for name, start, end, self_s, trace, status in daemon_spans:
        if trace is not None:
            layer = name.split(".", 1)[0]
            layer_self[layer, trace] = (layer_self.get((layer, trace), 0.0)
                                        + self_s)
            if name == "http.handle":
                handled.setdefault(trace, []).append((start, end))

    def durations(*names):
        return [end - start for n in names for start, end, _, _
                in by_name.get(n, ())]

    def selfs(*names):
        return [s for n in names for _, _, s, _ in by_name.get(n, ())]

    client_self = []
    for name, start, end, self_s, trace, _ in recorder.spans:
        covered = sum(max(0.0, min(end, e) - max(start, s))
                      for s, e in handled.get(trace, ()))
        client_self.append(self_s - covered)
    http_self = [v for (layer, _), v in layer_self.items() if layer == "http"]
    statuses = [status for *_, status in by_name.get("http.handle", ())]
    scrape_ms = {}
    for name, start, end, self_s, trace, status in daemon_spans:
        if name in ("daemon.refresh_export_metrics", "metrics.to_prometheus"):
            scrape_ms[trace] = scrape_ms.get(trace, 0.0) + (end - start)
    requested = counters.get("admission.requested", 0.0)
    late = driven["phases"]["late"]
    scrape = driven["scrape"]
    untraced_rate = rate_of(untraced["phases"]["rates"])
    traced_rate = rate_of(driven["phases"]["rates"])
    layers = {
        "gen.admit_p99_ms": (_pct_ms(driven["phases"]["latencies"], 99),
                             "ms"),
        "gen.late_ms_max": (max(late, default=0.0) * 1e3, "ms"),
        "gen.late_share": (sum(1 for x in late if x > common.LATE_S)
                           / max(len(late), 1), "ratio"),
        "serve.client.self_ms_p50": (_pct_ms(client_self, 50), "ms"),
        "serve.client.self_ms_p99": (_pct_ms(client_self, 99), "ms"),
        "serve.client.retries": (driven["retries"], "count"),
        "serve.http.self_ms_p50": (_pct_ms(http_self, 50), "ms"),
        "serve.http.self_ms_p99": (_pct_ms(http_self, 99), "ms"),
        "serve.http.requests": (len(statuses), "count"),
        "serve.http.status_409": (statuses.count(409), "count"),
        "serve.http.status_5xx": (sum(1 for s in statuses
                                      if s is not None and s >= 500),
                                  "count"),
        "serve.daemon.admit_self_ms_p50": (
            _pct_ms(selfs("daemon.admit", "daemon.admit_many"), 50), "ms"),
        "serve.daemon.release_self_ms_p50": (
            _pct_ms(selfs("daemon.release", "daemon.release_many"), 50),
            "ms"),
        "serve.daemon.fault_ms_p50": (_pct_ms(durations("daemon.fault"), 50),
                                      "ms"),
        "serve.daemon.faults": (len(by_name.get("daemon.fault", ())),
                                "count"),
        "serve.daemon.shed": (_scrape_value(scrape, "serve_shed_total"),
                              "count"),
        "serve.daemon.resumed": (_scrape_value(scrape, "serve_resumed_total"),
                                 "count"),
        "serve.daemon.scrape_ms_p50": (
            _pct_ms(list(scrape_ms.values()), 50), "ms"),
        "serve.daemon.state_ms_p50": (_pct_ms(durations("daemon.state"), 50),
                                      "ms"),
        "server.admission.admit_batch_ms_p50": (
            _pct_ms(durations("admission.admit_batch"), 50), "ms"),
        "server.admission.release_ms_p50": (
            _pct_ms(durations("admission.release_on"), 50), "ms"),
        "server.admission.grant_ratio": (
            counters.get("admission.granted", 0.0) / requested
            if requested else 0.0, "ratio"),
        "server.admission.rebalances": (
            _scrape_value(scrape, "serve_admission_rebalances"), "count"),
        "control.snapshot.write_ms_p50": (
            _pct_ms(durations("snapshot.write"), 50), "ms"),
        "control.snapshot.writes": (len(by_name.get("snapshot.write", ())),
                                    "count"),
        "control.snapshot.restore_ms": (
            sum(durations("snapshot.read")) * 1e3, "ms"),
        "trace.overhead_share": (1.0 - traced_rate / untraced_rate, "ratio"),
    }
    layers.update(tracing.model_layers(by_name, counters,
                                       extra.get("import_ms", 0.0),
                                       extra.get("cache", {})))
    return layers

