"""Closed-loop adaptive admission control (``repro serve --adaptive``).

The paper's §5 admission test is an open-loop proof: pick ``(N_max,
t)`` once, at nominal disk speed, and the Chernoff machinery
guarantees ``p_error <= epsilon`` forever after.  Real drives drift --
thermal recalibration storms, slow-disk creep, media retries -- and a
drifted disk quietly invalidates the proof while the daemon keeps
admitting at full capacity.  This package closes the loop:

- :class:`~repro.control.window.TelemetryWindow` /
  :class:`~repro.control.window.RoundObservation` -- windowed
  bound-vs-observed aggregates (Wilson-scored ``p_late``, slot glitch
  rate, service-ratio drift estimator, latency histogram);
- :class:`~repro.control.probe.ServiceProbe` -- the deterministic
  seeded per-round sweep sampler standing in for real drive timings;
- :class:`~repro.control.controller.Controller` -- the observe ->
  plan -> verify -> apply state machine with guard band, hysteresis
  and cooldown, re-solving ``(N_max, t)`` through the persistent
  Chernoff cache via the scaling identity ``P[s*T >= t] = P[T >=
  t/s]``, plus a watchdog check that escalates to hard shedding;
- :mod:`~repro.control.snapshot` -- versioned, fsync-atomic
  snapshot/restore of the daemon ledger + controller state with the
  unclean-restart ticket reserve (zero duplicate admissions after
  ``kill -9``).

See docs/ROBUSTNESS.md for the operational semantics and
tests/control + tests/serve for the drift/chaos suite.
"""

from repro.control.controller import Controller, Decision
from repro.control.probe import ServiceProbe
from repro.control.snapshot import (SNAPSHOT_VERSION, TICKET_RESERVE,
                                    read_snapshot, write_snapshot)
from repro.control.window import RoundObservation, TelemetryWindow

__all__ = [
    "TelemetryWindow",
    "RoundObservation",
    "ServiceProbe",
    "Controller",
    "Decision",
    "SNAPSHOT_VERSION",
    "TICKET_RESERVE",
    "write_snapshot",
    "read_snapshot",
]
