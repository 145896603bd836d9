"""Closed-loop retuning of the live admission configuration.

The paper proves ``p_error <= epsilon`` for a *static* operating point
``(N_max, t)`` at nominal disk speed.  Under drift (slow-disk creep,
thermal trouble, load ramps) that proof silently stops describing the
machine: the daemon keeps admitting 28 streams per disk while the real
service times have grown 20%, and the observed glitch rate blows
through the stream tolerance.  The :class:`Controller` closes the loop
with the classic observe -> plan -> verify -> apply cycle:

observe
    The daemon's round probe fills a
    :class:`~repro.control.window.TelemetryWindow`; the controller only
    ever reads window aggregates.
plan
    When the Wilson *lower* bound of the observed overrun rate clears
    the guard band over the stamped analytic bound (a confident
    violation, not noise), estimate the drift scale ``s`` from the
    calibrated service-time ratio and re-solve the admission point.
    The key identity is ``P[s*T_n >= t] = P[T_n >= t/s]``: a uniformly
    ``s``-times-slower disk is exactly the nominal disk with round
    budget ``t/s``, so the re-solve is an ordinary
    :func:`~repro.core.admission.n_max_perror` call at ``t_eff =
    t*t_mult/s`` -- every Chernoff bound it touches flows through the
    persistent cache, and the scale estimate is quantised to 5% steps
    so repeated retunes under the same drift are pure cache hits.
verify
    The candidate is accepted only if its *predicted* ``p_error`` at
    the estimated scale is back within ``epsilon`` (and the solve
    found at least one admissible stream, walking the round-length
    ladder when the budget collapsed entirely).
apply
    The daemon sheds or rejoins streams to the new limit; the window
    is cleared and a cooldown starts so the loop reacts to post-retune
    evidence only (hysteresis: tighten needs a confident violation,
    relax needs a comfortable margin *and* a bigger solved limit *and*
    an expired cooldown).

A watchdog check runs ahead of the cycle: when the point estimate
breaches ``WATCHDOG_FACTOR`` times the stamped bound it escalates to
hard shedding immediately -- dropping to the precomputed failure-proof
limit without waiting for a solve or a cooldown, in ``drop`` mode, the
way a human operator would yank load off a drive that is clearly
dying.  The planner then refines from that safe point.

The loop's tuning values are module constants (docs/ROBUSTNESS.md
lists them); only the operating point and the model are per-instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.admission import n_max_perror
from repro.core.glitch import GlitchModel
from repro.errors import ConfigurationError

__all__ = ["Decision", "Controller"]

#: Drift-scale quantisation step: estimates are snapped to the nearest
#: power of 1.05 so the ``t_eff`` values hitting the bound cache form a
#: small reusable grid instead of a continuum of cache misses.
SCALE_STEP = 1.05

_STATES = ("calibrating", "steady", "cooldown", "escalated")

#: Rounds kept by the telemetry window.
WINDOW_ROUNDS = 48
#: Minimum probed disk-rounds before plan/relax may act.
MIN_DISK_ROUNDS = 24
#: Tighten when the Wilson lower bound exceeds
#: ``(1 - GUARD_BAND) * bound`` -- the fraction of the analytic bound
#: reserved as early-warning margin.
GUARD_BAND = 0.25
#: Relax only while the Wilson *upper* bound sits below
#: ``RELAX_MARGIN * (1 - GUARD_BAND) * bound`` (hysteresis gap).
RELAX_MARGIN = 0.5
#: Rounds after an apply during which the planner stays quiet.
COOLDOWN_ROUNDS = 32
#: The watchdog trips when the *point* overrun estimate exceeds
#: ``WATCHDOG_FACTOR * bound``.
WATCHDOG_FACTOR = 4.0
#: Disk-rounds of evidence the watchdog needs (kept small: it exists
#: to react faster than the planner).
WATCHDOG_MIN_ROUNDS = 8
#: Confidence of the Wilson intervals.
CONFIDENCE = 0.95
#: Estimated drift scales are inflated by this factor before the
#: re-solve, so the plan lands inside the bound, not on its edge.
SAFETY = 1.1
#: Round-length multipliers tried in order when the effective budget
#: ``t/s`` is too tight to admit even one stream.
T_LADDER = (1.0, 1.5, 2.0)
#: Paused streams rejoin over this many rounds after a relax.
REJOIN_ROUNDS = 4
#: Disk-rounds of comfortable steady evidence used to calibrate the
#: service-ratio baseline.
CALIBRATION_ROUNDS = 16
#: Drift-scale estimates are clamped to [1, MAX_SCALE].
MAX_SCALE = 32.0


@dataclass(frozen=True)
class Decision:
    """One verified retune the daemon should apply."""

    kind: str                 # "tighten" | "relax" | "watchdog"
    n_max: int                # new per-disk limit
    t_mult: float             # new round-length multiplier
    scale: float              # drift scale the plan assumed
    predicted_p_error: float | None
    reason: str

    def to_dict(self) -> dict:
        """JSON-serialisable form (``/control`` view and snapshots)."""
        return {"kind": self.kind, "n_max": self.n_max,
                "t_mult": self.t_mult, "scale": self.scale,
                "predicted_p_error": self.predicted_p_error,
                "reason": self.reason}


def quantise_scale(scale: float) -> float:
    """Snap a drift-scale estimate onto the ``SCALE_STEP`` grid,
    clamped to ``[1, MAX_SCALE]`` (speeds faster than nominal keep the
    proven static point; we never loosen beyond it)."""
    scale = min(max(float(scale), 1.0), MAX_SCALE)
    if scale <= 1.0:
        return 1.0
    steps = round(math.log(scale) / math.log(SCALE_STEP))
    return min(max(SCALE_STEP ** steps, 1.0), MAX_SCALE)


@dataclass
class _Plan:
    n_max: int
    t_mult: float
    predicted_p_error: float | None


class Controller:
    """The observe -> plan -> verify -> apply state machine.

    Owns no threads and takes no locks: the daemon calls :meth:`step`
    under its own lock once per probed round and applies any returned
    :class:`Decision` itself, then confirms with :meth:`committed`.
    """

    def __init__(self, service_model, t: float, *, delta: float,
                 epsilon: float, m: int, g: int,
                 healthy_n_max: int, fallback_n_max: int,
                 n_cap: int | None = None) -> None:
        self.model = service_model
        self.t = float(t)
        self.delta = float(delta)
        self.epsilon = float(epsilon)
        self.m = int(m)
        self.g = int(g)
        self.healthy_n_max = int(healthy_n_max)
        #: Precomputed failure-proof limit the watchdog drops to
        #: without waiting for a solve.
        self.fallback_n_max = int(fallback_n_max)
        self.n_cap = int(n_cap or max(4 * healthy_n_max, 64))
        #: Escalations to the fallback limit (see :meth:`step`).
        self.watchdog_trips = 0

        self.state = "calibrating"
        self.cooldown_left = 0
        self.retunes = 0
        #: Steady-state observed/model service ratio; drift scales are
        #: measured relative to it.  ``None`` until calibrated.
        self.calibration: float | None = None
        self.last_decision: Decision | None = None
        #: Admission-shard epoch at the last applied decision (None
        #: until one is applied).  Observability only -- the epoch
        #: counts shard-limit redistributions, which depend on the
        #: shard layout, so it is surfaced in :meth:`summary` but kept
        #: out of :meth:`to_dict` (snapshots stay shard-independent).
        self.applied_epoch: int | None = None
        #: Current operating point as applied by the daemon.
        self.n_max = int(healthy_n_max)
        self.t_mult = 1.0

    # -- plan helpers --------------------------------------------------
    def estimate_scale(self, window) -> float:
        """Quantised drift-scale estimate from the calibrated window
        service ratio, inflated by the safety factor."""
        baseline = self.calibration if self.calibration else 1.0
        raw = window.service_ratio / max(baseline, 1e-9)
        return quantise_scale(raw * SAFETY)

    def solve(self, scale: float) -> _Plan:
        """Re-solve the admission point for drift scale ``scale``.

        Walks the round-length ladder: ``t_mult = 1`` unless the
        effective budget ``t/scale`` is too tight to admit even one
        stream, in which case the round is lengthened until it can
        (longer rounds amortise the sweep overhead -- eq. 3.1.6 grows
        ``N_max`` superlinearly near the collapse point).  All bound
        evaluations flow through the persistent cache keyed on
        ``(fingerprint, n, t_eff)``.
        """
        for t_mult in T_LADDER:
            t_eff = self.t * float(t_mult) / float(scale)
            glitch = GlitchModel(self.model, t_eff)
            n = n_max_perror(glitch, self.m, self.g, self.epsilon,
                             self.n_cap)
            n = min(n, self.healthy_n_max)
            if n >= 1:
                return _Plan(n, float(t_mult),
                             float(glitch.p_error(n, self.m, self.g)))
        return _Plan(0, float(T_LADDER[-1]), None)

    # -- the cycle -----------------------------------------------------
    def step(self, window) -> Decision | None:
        """One observe/plan/verify pass; returns a verified
        :class:`Decision` for the daemon to apply, or ``None``."""
        if self.cooldown_left > 0:
            self.cooldown_left -= 1
            if self.cooldown_left == 0 and self.state == "cooldown":
                self.state = "steady"

        point = window.observed_p_late
        lower, upper = window.p_late_interval(CONFIDENCE)
        if window.late_disk_rounds == 0:
            # A zero-late window is zero evidence: the Wilson centre
            # leaves ~1e-18 of floating-point residue in the lower
            # bound, which would clear the (possibly ~1e-20) guard at
            # tight operating points and trigger phantom tightens.
            lower = 0.0
        reference = window.bound
        guard = (1.0 - GUARD_BAND) * reference

        # Watchdog first: it outranks calibration and cooldown.  It
        # reads the *point* estimate (no Wilson smoothing -- speed
        # over certainty) once a few disk-rounds are in.
        if (window.disk_rounds >= WATCHDOG_MIN_ROUNDS
                and reference > 0.0
                and point > WATCHDOG_FACTOR * reference
                and self.n_max > self.fallback_n_max):
            self.watchdog_trips += 1
            self.state = "escalated"
            if self.calibration is None:
                self.calibration = 1.0
            return Decision(
                kind="watchdog",
                n_max=min(self.n_max, self.fallback_n_max),
                t_mult=self.t_mult,
                scale=self.estimate_scale(window),
                predicted_p_error=None,
                reason=f"observed p_late {point:.4f} > "
                       f"{WATCHDOG_FACTOR:g} x bound "
                       f"{reference:.4f}")

        if self.state == "calibrating":
            if window.disk_rounds < CALIBRATION_ROUNDS:
                return None
            if point <= guard or reference <= 0.0:
                # Comfortable steady evidence: freeze the baseline.
                # (Point estimate, not the Wilson upper bound: at
                # calibration sample sizes the upper bound sits near
                # 0.2 regardless of the data and would never clear.)
                self.calibration = window.service_ratio
                self.state = "steady"
                return None
            # Already drifting at startup: assume the model mean is the
            # baseline and let the planner act on this same window.
            self.calibration = 1.0
            self.state = "steady"

        if self.cooldown_left > 0:
            return None
        if window.disk_rounds < MIN_DISK_ROUNDS:
            return None

        if reference > 0.0 and lower > guard:
            # Confident violation of the guard band: tighten.
            scale = self.estimate_scale(window)
            plan = self.solve(scale)
            if plan.n_max >= self.n_max and plan.t_mult == self.t_mult:
                # The solver believes the current point is fine but the
                # observations disagree (drift the service ratio cannot
                # see, e.g. contention): step down geometrically.
                plan = _Plan(max(self.fallback_n_max,
                                 self.n_max - max(1, self.n_max // 8)),
                             self.t_mult, None)
            if (plan.n_max == self.n_max
                    and plan.t_mult == self.t_mult):
                return None  # already at the planned point (or pinned
                # to the fallback floor): nothing to apply
            if (plan.predicted_p_error is not None
                    and plan.predicted_p_error > self.epsilon):
                return None  # verify failed; keep observing
            return Decision(
                kind="tighten", n_max=plan.n_max, t_mult=plan.t_mult,
                scale=scale, predicted_p_error=plan.predicted_p_error,
                reason=f"p_late lower bound {lower:.4f} > guard "
                       f"{guard:.4f} (scale ~{scale:g})")

        relaxable = (self.n_max < self.healthy_n_max
                     or self.t_mult != 1.0)
        # Comfortable = the upper bound sits well inside the guard, or
        # the window shows zero overruns at all (the only satisfiable
        # form of comfort when the stamped bound is ~1e-20 and no
        # finite sample can push the Wilson upper bound below it).
        comfortable = (window.late_disk_rounds == 0
                       or upper < RELAX_MARGIN * guard)
        if relaxable and comfortable:
            scale = self.estimate_scale(window)
            plan = self.solve(scale)
            better = (plan.n_max > self.n_max
                      or (plan.n_max >= self.n_max
                          and plan.t_mult < self.t_mult))
            if better and (plan.predicted_p_error is None
                           or plan.predicted_p_error <= self.epsilon):
                why = ("zero overruns in window"
                       if window.late_disk_rounds == 0 else
                       f"p_late upper bound {upper:.4f} well inside "
                       f"guard {guard:.4f}")
                return Decision(
                    kind="relax", n_max=plan.n_max,
                    t_mult=plan.t_mult, scale=scale,
                    predicted_p_error=plan.predicted_p_error,
                    reason=f"{why} (scale ~{scale:g})")
        return None

    def evidence(self, window) -> dict:
        """The decision audit of one plan pass -- the same window
        aggregates, Wilson interval, stamped bound and guard line
        :meth:`step` reasons over, packaged as flat span attributes so
        every ``control.plan`` span carries *why* the controller did
        (or did not) act."""
        point = window.observed_p_late
        lower, upper = window.p_late_interval(CONFIDENCE)
        if window.late_disk_rounds == 0:
            lower = 0.0  # zero-late window: zero evidence (see step)
        reference = window.bound
        return {
            "rounds": window.rounds,
            "disk_rounds": window.disk_rounds,
            "late_disk_rounds": window.late_disk_rounds,
            "p_late": point,
            "p_late_lower": lower,
            "p_late_upper": upper,
            "bound": reference,
            "guard": (1.0 - GUARD_BAND) * reference,
            "guard_band": GUARD_BAND,
            "service_ratio": window.service_ratio,
            "state": self.state,
            "n_max": self.n_max,
            "t_mult": self.t_mult,
        }

    def committed(self, decision: Decision, *,
                  epoch: int | None = None) -> None:
        """The daemon applied ``decision``; start the cooldown.

        ``epoch`` is the admission controller's shard epoch after the
        retarget, recorded for the ``/control`` view.
        """
        if epoch is not None:
            self.applied_epoch = int(epoch)
        self.n_max = int(decision.n_max)
        self.t_mult = float(decision.t_mult)
        self.retunes += 1
        self.last_decision = decision
        self.cooldown_left = COOLDOWN_ROUNDS
        if decision.kind != "watchdog":
            self.state = ("cooldown" if self.cooldown_left
                          else "steady")
            if (decision.kind == "relax"
                    and decision.n_max >= self.healthy_n_max
                    and decision.t_mult == 1.0):
                self.state = "steady" if not self.cooldown_left \
                    else "cooldown"

    # -- persistence ---------------------------------------------------
    def to_dict(self) -> dict:
        """State-machine position as JSON (``restore_dict`` inverse)."""
        return {
            "state": self.state,
            "cooldown_left": self.cooldown_left,
            "retunes": self.retunes,
            "watchdog_trips": self.watchdog_trips,
            "calibration": self.calibration,
            "n_max": self.n_max,
            "t_mult": self.t_mult,
            "last_decision": (self.last_decision.to_dict()
                              if self.last_decision else None),
        }

    def restore_dict(self, data: dict) -> None:
        """Re-adopt a snapshotted state machine; unknown states are
        refused rather than guessed at."""
        state = str(data.get("state", "calibrating"))
        if state not in _STATES:
            raise ConfigurationError(
                f"snapshot has unknown controller state {state!r}")
        self.state = state
        self.cooldown_left = int(data.get("cooldown_left", 0))
        self.retunes = int(data.get("retunes", 0))
        self.watchdog_trips = int(data.get("watchdog_trips", 0))
        calibration = data.get("calibration")
        self.calibration = (float(calibration)
                            if calibration is not None else None)
        self.n_max = int(data.get("n_max", self.healthy_n_max))
        self.t_mult = float(data.get("t_mult", 1.0))
        last = data.get("last_decision")
        if last:
            self.last_decision = Decision(
                kind=str(last["kind"]), n_max=int(last["n_max"]),
                t_mult=float(last["t_mult"]),
                scale=float(last["scale"]),
                predicted_p_error=(
                    float(last["predicted_p_error"])
                    if last.get("predicted_p_error") is not None
                    else None),
                reason=str(last.get("reason", "")))

    def summary(self) -> dict:
        """JSON view for ``/control``."""
        out = self.to_dict()
        out["healthy_n_max"] = self.healthy_n_max
        out["fallback_n_max"] = self.fallback_n_max
        out["applied_epoch"] = self.applied_epoch
        return out

    def __repr__(self) -> str:
        return (f"Controller(state={self.state!r}, n_max={self.n_max}, "
                f"t_mult={self.t_mult:g}, retunes={self.retunes})")
