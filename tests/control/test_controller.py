"""Controller state machine: calibrate, tighten, watchdog, relax.

The windows here are fabricated (the controller only ever reads window
aggregates), but every ``solve`` runs the real cached Chernoff
machinery on the paper's Viking disk, so the planned operating points
are the ones the daemon would actually apply:

- healthy point ``n = 28`` at ``t = 1`` stamps ``b_late = 0.0472``,
  so the default guard is ``0.75 * 0.0472 = 0.0354``;
- the failure-proof fallback ``n = 13`` stamps ``b_late ~ 1.9e-20`` --
  the regime where floating-point residue in the Wilson bounds used to
  fake violations (pinned by the regression tests below).
"""

import math

import pytest

from repro.control import Controller, RoundObservation, TelemetryWindow
from repro.control.controller import (COOLDOWN_ROUNDS, MAX_SCALE,
                                      SCALE_STEP, quantise_scale)
from repro.core import GlitchModel, RoundServiceTimeModel
from repro.core.admission import n_max_perror
from repro.disk import quantum_viking_2_1
from repro.distributions import Gamma
from repro.errors import ConfigurationError

HEALTHY_BOUND = 0.0472   # b_late(28, 1.0), rounded
TINY_BOUND = 1.9e-20     # b_late(13, 1.0): the fallback stamp


@pytest.fixture(scope="module")
def model():
    return RoundServiceTimeModel.for_disk(
        quantum_viking_2_1(),
        Gamma.from_mean_std(200_000.0, 100_000.0))


def make_controller(model):
    return Controller(model, 1.0, delta=0.01, epsilon=0.01, m=1200,
                      g=12, healthy_n_max=28, fallback_n_max=13)


def fill(window, rounds, *, late_rounds=0, bound=HEALTHY_BOUND,
         ratio=1.0, start=0):
    """``rounds`` two-disk observations, the first ``late_rounds`` of
    which carry one late sweep each."""
    for i in range(rounds):
        expected = 1.6
        window.add(RoundObservation(
            round_index=start + i, disk_rounds=2,
            late_disk_rounds=1 if i < late_rounds else 0,
            requests=56, glitched=0,
            observed_service=ratio * expected,
            expected_service=expected, bound=bound))


class TestConfigAndScale:
    def test_quantise_scale_snaps_to_grid(self):
        assert quantise_scale(0.5) == 1.0
        assert quantise_scale(1.0) == 1.0
        assert quantise_scale(SCALE_STEP ** 5) == pytest.approx(
            SCALE_STEP ** 5)
        assert quantise_scale(1e9) <= MAX_SCALE == 32.0
        steps = math.log(quantise_scale(1.37)) / math.log(SCALE_STEP)
        assert steps == pytest.approx(round(steps))


class TestSolve:
    def test_nominal_scale_keeps_healthy_point(self, model):
        ctl = make_controller(model)
        plan = ctl.solve(1.0)
        assert plan.n_max == 28 and plan.t_mult == 1.0

    def test_scaling_identity_re_solve(self, model):
        """``solve(s)`` is exactly ``n_max_perror`` at ``t/s`` (the
        paper identity P[s*T_n >= t] = P[T_n >= t/s])."""
        ctl = make_controller(model)
        plan = ctl.solve(1.2763)
        direct = n_max_perror(GlitchModel(model, 1.0 / 1.2763),
                              1200, 12, 0.01, ctl.n_cap)
        assert plan.n_max == min(direct, 28) == 21
        assert plan.predicted_p_error <= 0.01

    def test_ladder_lengthens_round_when_budget_collapses(self, model):
        ctl = make_controller(model)
        plan = ctl.solve(16.0)
        # t/16 admits nothing at t_mult 1 or 1.5; 2.0 recovers n=1.
        assert plan.t_mult == 2.0 and plan.n_max == 1

    def test_ladder_exhausted_returns_zero(self, model):
        plan = make_controller(model).solve(32.0)
        assert plan.n_max == 0 and plan.predicted_p_error is None


class TestCalibration:
    def test_comfortable_window_freezes_baseline(self, model):
        ctl = make_controller(model)
        window = TelemetryWindow(maxlen=48)
        fill(window, 8, ratio=0.99)
        assert ctl.step(window) is None
        assert ctl.state == "steady"
        assert ctl.calibration == pytest.approx(0.99)

    def test_drifting_startup_falls_back_to_model_baseline(self, model):
        ctl = make_controller(model)
        window = TelemetryWindow(maxlen=48)
        # 2/16 = 0.125: above the guard (0.035), below the watchdog
        # threshold (4 x 0.0472), so the planner path handles it.
        fill(window, 8, late_rounds=2, ratio=1.3)
        ctl.step(window)
        assert ctl.calibration == 1.0
        assert ctl.state == "steady"

    def test_underfilled_window_stays_calibrating(self, model):
        ctl = make_controller(model)
        window = TelemetryWindow(maxlen=48)
        fill(window, 4)
        assert ctl.step(window) is None
        assert ctl.state == "calibrating"


class TestTighten:
    def test_quiescent_on_comfortable_steady_window(self, model):
        ctl = make_controller(model)
        ctl.calibration, ctl.state = 1.0, "steady"
        window = TelemetryWindow(maxlen=48)
        fill(window, 48)
        assert ctl.step(window) is None
        assert ctl.retunes == 0

    def test_confident_violation_tightens_and_verifies(self, model):
        ctl = make_controller(model)
        ctl.calibration, ctl.state = 1.0, "steady"
        window = TelemetryWindow(maxlen=48)
        # 10/96 late: Wilson lower 0.058 > guard 0.035.  Ratio 1.28
        # estimates scale 1.28 * 1.1 safety -> quantised 1.4071.
        fill(window, 48, late_rounds=10, ratio=1.28)
        decision = ctl.step(window)
        assert decision is not None and decision.kind == "tighten"
        assert decision.n_max == 18  # re-solve at t/1.4071
        assert decision.predicted_p_error <= 0.01
        ctl.committed(decision)
        assert ctl.n_max == 18 and ctl.retunes == 1
        assert ctl.cooldown_left == COOLDOWN_ROUNDS
        assert ctl.state == "cooldown"

    def test_cooldown_suppresses_planning(self, model):
        ctl = make_controller(model)
        ctl.calibration, ctl.state = 1.0, "steady"
        window = TelemetryWindow(maxlen=48)
        fill(window, 48, late_rounds=10, ratio=1.28)
        ctl.committed(ctl.step(window))
        assert ctl.step(window) is None  # cooling down
        assert ctl.cooldown_left == COOLDOWN_ROUNDS - 1

    def test_zero_late_window_never_fakes_a_violation(self, model):
        """Regression: with zero late rounds the Wilson lower bound
        carries ~1e-18 of floating-point residue, which must not clear
        a ~1e-20 guard at a tight operating point."""
        ctl = make_controller(model)
        ctl.calibration, ctl.state = 1.0, "steady"
        window = TelemetryWindow(maxlen=48)
        fill(window, 48, bound=TINY_BOUND)
        assert ctl.step(window) is None
        assert ctl.retunes == 0

    def test_no_op_retune_at_fallback_floor_is_suppressed(self, model):
        """Regression: a late round at the fallback point trips the
        (near-zero) guard, but the step-down clamps at the floor -- the
        controller must return None instead of a no-op decision."""
        ctl = make_controller(model)
        ctl.calibration, ctl.state, ctl.n_max = 1.0, "steady", 13
        window = TelemetryWindow(maxlen=48)
        fill(window, 48, late_rounds=1, bound=TINY_BOUND, ratio=1.0)
        assert ctl.step(window) is None
        assert ctl.retunes == 0


class TestWatchdog:
    def test_breach_gates(self, model):
        ctl = make_controller(model)
        window = TelemetryWindow(maxlen=48)
        fill(window, 2, late_rounds=2)     # 4 disk-rounds: too little
        assert window.observed_p_late > 4.0 * window.bound
        assert ctl.step(window) is None
        assert ctl.watchdog_trips == 0
        fill(window, 10, late_rounds=10, start=2)
        assert window.observed_p_late > 4.0 * window.bound
        decision = ctl.step(window)
        assert decision is not None and decision.kind == "watchdog"
        assert decision.n_max == 13
        assert ctl.watchdog_trips == 1

    def test_trip_drops_to_fallback_immediately(self, model):
        ctl = make_controller(model)
        window = TelemetryWindow(maxlen=48)
        # 20/96 = 0.208 > 4 x 0.0472: outranks calibration.
        fill(window, 48, late_rounds=20, ratio=1.5)
        decision = ctl.step(window)
        assert decision is not None and decision.kind == "watchdog"
        assert decision.n_max == 13
        assert ctl.state == "escalated"
        assert ctl.watchdog_trips == 1
        ctl.committed(decision)
        assert ctl.n_max == 13

    def test_never_re_trips_at_the_fallback_floor(self, model):
        ctl = make_controller(model)
        ctl.calibration, ctl.state, ctl.n_max = 1.0, "escalated", 13
        window = TelemetryWindow(maxlen=48)
        fill(window, 48, late_rounds=20, bound=TINY_BOUND)
        decision = ctl.step(window)
        assert decision is None or decision.kind != "watchdog"
        assert ctl.watchdog_trips == 0


class TestRelax:
    def test_zero_overrun_window_relaxes_to_solved_point(self, model):
        ctl = make_controller(model)
        ctl.calibration, ctl.state, ctl.n_max = 1.0, "steady", 13
        window = TelemetryWindow(maxlen=48)
        # Still 1.25x slow, but zero overruns at the fallback point:
        # the solver lifts the limit to the drift-aware optimum.
        fill(window, 48, ratio=1.25, bound=TINY_BOUND)
        decision = ctl.step(window)
        assert decision is not None and decision.kind == "relax"
        assert decision.n_max == 18  # solve at quantised 1.375 scale
        assert decision.predicted_p_error <= 0.01
        assert "zero overruns" in decision.reason

    def test_relax_blocked_while_cooling_down(self, model):
        ctl = make_controller(model)
        ctl.calibration, ctl.state, ctl.n_max = 1.0, "cooldown", 13
        ctl.cooldown_left = 5
        window = TelemetryWindow(maxlen=48)
        fill(window, 48, ratio=1.25, bound=TINY_BOUND)
        assert ctl.step(window) is None

    def test_healthy_point_never_relaxes_past_itself(self, model):
        ctl = make_controller(model)
        ctl.calibration, ctl.state = 1.0, "steady"
        window = TelemetryWindow(maxlen=48)
        fill(window, 48, ratio=0.8)  # disk faster than nominal
        assert ctl.step(window) is None


class TestPersistence:
    def test_state_round_trips_through_dict(self, model):
        ctl = make_controller(model)
        ctl.calibration, ctl.state = 1.0, "steady"
        window = TelemetryWindow(maxlen=48)
        fill(window, 48, late_rounds=10, ratio=1.28)
        ctl.committed(ctl.step(window))

        twin = make_controller(model)
        twin.restore_dict(ctl.to_dict())
        assert twin.to_dict() == ctl.to_dict()
        assert twin.n_max == 18
        assert twin.last_decision.kind == "tighten"

    def test_unknown_state_is_refused(self, model):
        ctl = make_controller(model)
        with pytest.raises(ConfigurationError):
            ctl.restore_dict({"state": "panicking"})

    def test_summary_carries_config_and_limits(self, model):
        # The loop's tuning values are code constants, so the summary
        # carries the per-instance limits and no config block.
        summary = make_controller(model).summary()
        assert summary["healthy_n_max"] == 28
        assert summary["fallback_n_max"] == 13
        assert "config" not in summary
