"""Discrete-event simulation substrate.

A small generator-coroutine kernel in the style of SimPy (which is not
available in this environment): an :class:`~repro.sim.engine.Engine`
with a binary-heap event calendar, :class:`~repro.sim.engine.Process`
coroutines that ``yield`` events or timeouts, a FIFO
:class:`~repro.sim.resources.Store` hand-off queue, and deterministic
named RNG streams (:class:`~repro.sim.rng.RngRegistry`).  It carries
only what the event-driven server uses.

The microscopic server simulation (:mod:`repro.server.scheduler`) runs on
this kernel; the bulk validation sweeps use the vectorised Monte-Carlo
path (:mod:`repro.server.simulation`) and the two are cross-validated in
the test suite.
"""

from repro.sim.engine import Engine, Event, Process
from repro.sim.resources import Store
from repro.sim.rng import RngRegistry

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Store",
    "RngRegistry",
]
