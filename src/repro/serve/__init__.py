"""Live admission-control service (``repro serve``).

The paper's §5 scheme is an *online* admission test: a stream enters
only while the precomputed stochastic guarantee still holds.  This
package turns the batch machinery (``AdmissionTable``, the persistent
bound cache, ``SheddingPolicy``, ``MetricsRegistry``) into a
long-running daemon:

- :class:`~repro.serve.daemon.ServeDaemon` -- the thread-safe service
  core: admits/releases streams against the locked
  :class:`~repro.server.admission.AdmissionController`, applies the
  shedding policy live as disk fail/recover events arrive, and keeps
  every counter in a :class:`~repro.obs.metrics.MetricsRegistry`;
- :mod:`~repro.serve.http` -- the HTTP/1.1 front end, a
  ``socketserver.ThreadingTCPServer`` (a thread per connection) with
  the daemon's own request codec, exposing ``POST /admit``,
  ``POST /release``, ``POST /fault`` and ``GET /metrics`` (Prometheus
  text exposition), ``GET /healthz``, ``GET /state``;
- :class:`~repro.serve.http.FaultFeed` -- replays a TOML
  :class:`~repro.server.faults.FaultSchedule` against the daemon in
  scaled wall-clock time;
- :class:`~repro.serve.http.RoundTicker` -- drives the daemon's
  measurement/control loop (``tick_round``) at wall-clock cadence;
- :class:`~repro.serve.client.ServeClient` -- a retrying keep-alive
  client with its own HTTP/1.1 wire codec (exponential backoff +
  jitter, idempotency-aware) used by ``repro admit``, the smoke/chaos
  legs and benches A23/A26.

With ``adaptive=True`` the daemon additionally runs the closed-loop
controller from :mod:`repro.control`: a telemetry window compares
observed per-round lateness against the bounds stamped for the
current operating point and retunes ``(N_max, t)`` online through
cached Chernoff re-solves, with a watchdog escalating to hard
shedding; ``snapshot_path`` makes the whole ledger crash-safe
(fsync-atomic versioned JSON, unclean-restart ticket reserve).

Everything is standard library only; the daemon warm-starts by bulk
loading the persistent bound cache
(:meth:`repro.cache.PersistentCache.preload`), so a restart answers
table builds without re-running a single Chernoff optimisation.
"""

from repro.serve.client import ServeClient
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.http import FaultFeed, RoundTicker, ServeHandle

__all__ = [
    "ServeConfig",
    "ServeDaemon",
    "ServeHandle",
    "FaultFeed",
    "RoundTicker",
    "ServeClient",
]
