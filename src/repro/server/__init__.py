"""Round-based multimedia server (§2) and its validation simulators.

- :mod:`repro.server.layout` -- coarse-grained round-robin striping and
  random in-disk placement (§2.1, §3.3 independence condition).
- :mod:`repro.server.streams` -- stream state, client buffers, glitch
  accounting.
- :mod:`repro.server.admission` -- run-time admission control backed by
  the precomputed ``N_max`` lookup table (§5).
- :mod:`repro.server.scheduler` / :mod:`repro.server.server` -- the
  event-driven server: one SCAN sweep per disk per round on the
  :mod:`repro.sim` kernel.
- :mod:`repro.server.simulation` -- the vectorised Monte-Carlo path used
  for the large validation sweeps (Figure 1, Table 2).
- :mod:`repro.server.scenario` -- the farm-level kernel engine: fault
  schedules, shedding and trick-mode windows compiled to batched sweeps.
- :mod:`repro.server.faults` -- runtime fault injection, RAID-1 mirror
  failover and degraded-mode load shedding (see ``docs/ROBUSTNESS.md``).
"""

from repro.server.layout import StripedLayout, FragmentLocation
from repro.server.streams import Stream, StreamStats, ClientBuffer
from repro.server.admission import (
    AdmissionController,
    ShardedAdmissionController,
)
from repro.server.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    ScenarioResult,
    SheddingPolicy,
    disk_fail,
    disk_recover,
    recalibration_storm,
    run_failover_scenario,
    slow_disk,
)
from repro.server.server import MediaServer, ServerReport
from repro.server.simulation import (
    RoundBatch,
    simulate_rounds,
    estimate_p_late,
    simulate_stream_glitches,
    estimate_p_error,
    PLateEstimate,
    PErrorEstimate,
)

__all__ = [
    "StripedLayout",
    "FragmentLocation",
    "Stream",
    "StreamStats",
    "ClientBuffer",
    "AdmissionController",
    "ShardedAdmissionController",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "SheddingPolicy",
    "ScenarioResult",
    "disk_fail",
    "disk_recover",
    "slow_disk",
    "recalibration_storm",
    "run_failover_scenario",
    "MediaServer",
    "ServerReport",
    "RoundBatch",
    "simulate_rounds",
    "estimate_p_late",
    "simulate_stream_glitches",
    "estimate_p_error",
    "PLateEstimate",
    "PErrorEstimate",
]
