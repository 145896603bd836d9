"""Scenario compiler: compilation, kernel pricing, cross-validation.

Three layers of guarantees:

* **Compilation** -- schedules, shedding policies, trick segments and
  heterogeneous layouts produce the right phase timeline (names,
  batches, scales, storm parameters, dropped events).
* **Bit-level** -- the compiled plain-failover shape reproduces the
  ``per_disk`` tuples pinned from the farm engine it replaced, and
  results are identical for every ``jobs`` count.
* **Statistical** -- compiled storm/heterogeneous scenarios agree with
  the event-driven server at the same seed (two-proportion test /
  bound checks), the contract the compiler's fidelity notes promise.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.farm import degraded_mode_n_max
from repro.disk import quantum_viking_2_1, seagate_hawk_1lp
from repro.errors import ConfigurationError
from repro.server.faults import (FaultSchedule, SheddingPolicy, disk_fail,
                                 disk_recover, recalibration_storm,
                                 run_failover_scenario, slow_disk)
from repro.server.scenario import (TrickSegment, analytic_phase_bounds,
                                   compile_scenario, parse_farm_spec,
                                   parse_trick_spec, simulate_scenario)
from repro.server.simulation import simulate_rounds

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
T = 1.0


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------
class TestCompile:
    def test_plain_failover_timeline(self, viking, paper_sizes):
        schedule = FaultSchedule([disk_fail(30 * T, disk=0),
                                  disk_recover(80 * T, disk=0)])
        compiled = compile_scenario(
            (viking,) * 2, paper_sizes, n_per_disk=20, t=T, rounds=100,
            schedule=schedule, policy=SheddingPolicy(12, mode="drop"))
        assert compiled.phase_names == ("healthy", "degraded", "recovered")
        healthy, degraded, recovered = compiled.plan
        assert (healthy.rounds, degraded.rounds, recovered.rounds) == \
            (30, 50, 20)
        assert healthy.batches == (20, 20)
        # Failed disk idles; the survivor serves its shed batch plus the
        # redirected mirror group.
        assert degraded.batches == (0, 24)
        # Drop mode holds the shed level after recovery.
        assert recovered.batches == (12, 12)

    def test_pause_mode_restores_population(self, viking, paper_sizes):
        schedule = FaultSchedule([disk_fail(10 * T), disk_recover(20 * T)])
        compiled = compile_scenario(
            (viking,) * 2, paper_sizes, n_per_disk=20, t=T, rounds=40,
            schedule=schedule, policy=SheddingPolicy(12, mode="pause"))
        assert compiled.plan[-1].name == "recovered"
        assert compiled.plan[-1].batches == (20, 20)

    def test_storm_and_slow_markers(self, viking, paper_sizes):
        schedule = FaultSchedule([
            recalibration_storm(10 * T, prob=0.3, duration=10 * T,
                                stall=0.05),
            slow_disk(30 * T, factor=1.5, disk=1),
            slow_disk(40 * T, factor=1.0, disk=1),
        ])
        compiled = compile_scenario(
            (viking,) * 2, paper_sizes, n_per_disk=10, t=T, rounds=50,
            schedule=schedule)
        assert compiled.phase_names == (
            "healthy", "healthy+storm", "healthy+slow")
        storm = compiled.plan[1]
        assert storm.recal_probs == (0.3, 0.3)
        assert storm.recal_stalls == (0.05, 0.05)
        # The storm ends at round 20, the slowdown starts at 30: a plain
        # healthy entry sits between the two marked windows.
        assert [entry.name for entry in compiled.plan] == [
            "healthy", "healthy+storm", "healthy", "healthy+slow",
            "healthy"]
        slow = compiled.plan[3]
        assert slow.scales == (1.0, 1.5)
        # factor=1.0 restored full speed for the tail.
        assert compiled.plan[-1].name == "healthy"
        assert compiled.plan[-1].scales == (1.0, 1.0)

    def test_trick_segment_batches(self, viking, paper_sizes):
        compiled = compile_scenario(
            (viking,) * 2, paper_sizes, n_per_disk=10, t=T, rounds=40,
            trick=[TrickSegment(start=10, end=25, n_ff=2, k=3)])
        assert compiled.phase_names == ("healthy", "healthy+trick")
        trick = compiled.plan[1]
        # 8 normal + 2 fast-forward streams at k=3 -> 8 + 6 requests.
        assert trick.batches == (14, 14)
        assert trick.rounds == 15
        # Non-consecutive reuse of a name keeps timeline order.
        assert [entry.name for entry in compiled.plan] == [
            "healthy", "healthy+trick", "healthy"]

    def test_past_horizon_events_are_reported(self, viking, paper_sizes):
        schedule = FaultSchedule([disk_fail(20 * T), disk_recover(500 * T)])
        compiled = compile_scenario(
            (viking,) * 2, paper_sizes, n_per_disk=10, t=T, rounds=50,
            schedule=schedule, policy=SheddingPolicy(6))
        assert len(compiled.dropped_events) == 1
        assert "recover" in compiled.dropped_events[0]
        assert compiled.plan[-1].name == "degraded"

    def test_overlapping_storms_refused(self, viking, paper_sizes):
        schedule = FaultSchedule([
            recalibration_storm(10 * T, prob=0.2, duration=20 * T),
            recalibration_storm(15 * T, prob=0.4, duration=20 * T),
        ])
        with pytest.raises(ConfigurationError, match="verlapping"):
            compile_scenario((viking,) * 2, paper_sizes, n_per_disk=10,
                             t=T, rounds=50, schedule=schedule)

    def test_overlapping_trick_segments_refused(self, viking, paper_sizes):
        with pytest.raises(ConfigurationError, match="overlap"):
            compile_scenario(
                (viking,) * 2, paper_sizes, n_per_disk=10, t=T, rounds=40,
                trick=[TrickSegment(0, 20, 1, 2),
                       TrickSegment(10, 30, 1, 2)])

    def test_parse_helpers(self):
        segment = parse_trick_spec("5:15:3:2")
        assert (segment.start, segment.end, segment.n_ff, segment.k) == \
            (5, 15, 3, 2)
        with pytest.raises(ConfigurationError):
            parse_trick_spec("5:15:3")
        specs = parse_farm_spec("quantum_viking_2_1,seagate_hawk_1lp")
        assert len(specs) == 2
        assert specs[0].name != specs[1].name
        with pytest.raises(ConfigurationError, match="unknown"):
            parse_farm_spec("no_such_disk")


# ---------------------------------------------------------------------------
# Bit-level: pinned kernel draws and jobs determinism
# ---------------------------------------------------------------------------
class TestBitIdentity:
    def test_matches_simulate_farm_rounds(self, viking, paper_sizes):
        """The compiled plain failover reproduces, bit for bit, the
        per-disk draws recorded from ``simulate_farm_rounds``, the
        farm engine the compiler replaced."""
        schedule = FaultSchedule([disk_fail(30 * T, disk=0),
                                  disk_recover(80 * T, disk=0)])
        compiled = compile_scenario(
            (viking,) * 4, paper_sizes, n_per_disk=10, t=T, rounds=100,
            schedule=schedule, policy=SheddingPolicy(6, mode="drop"))
        estimate = simulate_scenario(compiled, seed=5)
        assert [p.name for p in estimate.phases] == \
            ["healthy", "degraded", "recovered"]
        assert estimate.per_disk == (
            ((30, 0, 300, 0), (0, 0, 0, 0), (20, 0, 120, 0)),
            ((30, 0, 300, 0), (50, 0, 600, 0), (20, 0, 120, 0)),
            ((30, 0, 300, 0), (50, 0, 300, 0), (20, 0, 120, 0)),
            ((30, 0, 300, 0), (50, 0, 300, 0), (20, 0, 120, 0)))

    def test_jobs_bit_identical(self, viking, paper_sizes):
        schedule = FaultSchedule([
            disk_fail(10 * T, disk=0),
            recalibration_storm(15 * T, prob=0.3, duration=10 * T),
            disk_recover(30 * T, disk=0),
        ])
        compiled = compile_scenario(
            (viking,) * 4, paper_sizes, n_per_disk=8, t=T, rounds=40,
            schedule=schedule, policy=SheddingPolicy(5))
        serial = simulate_scenario(compiled, seed=7)
        for jobs in (1, 2, 3):
            pooled = simulate_scenario(compiled, seed=7, jobs=jobs)
            assert serial.per_disk == pooled.per_disk
            assert serial.phases == pooled.phases

    def test_service_scale_is_exact(self, viking, paper_sizes):
        """slow_disk compiles to a linear stretch of the sweep law."""
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        base = simulate_rounds(viking, paper_sizes, 10, T, 200, rng_a)
        slow = simulate_rounds(viking, paper_sizes, 10, T, 200, rng_b,
                               service_scale=1.5)
        assert np.allclose(slow.service_times, 1.5 * base.service_times)


# ---------------------------------------------------------------------------
# Statistical: cross-validation against the event engine
# ---------------------------------------------------------------------------
def _two_proportion_close(late_a: int, trials_a: int,
                          late_b: int, trials_b: int) -> bool:
    """Two-proportion z-test at ~4 sigma (idiom of
    tests/server/test_cross_validation.py)."""
    if trials_a == 0 or trials_b == 0:
        return late_a == late_b
    pooled = (late_a + late_b) / (trials_a + trials_b)
    se = math.sqrt(pooled * (1 - pooled)
                   * (1 / trials_a + 1 / trials_b))
    return abs(late_a / trials_a - late_b / trials_b) < 4 * se + 1e-9


@pytest.mark.slow
class TestCrossValidation:
    def test_heterogeneous_farm_agrees(self, paper_sizes):
        """Same seed, same heterogeneous mirrored pair, both engines:
        glitch rates agree and both respect the weakest-disk bound."""
        specs = (quantum_viking_2_1(), seagate_hawk_1lp())
        delta = 0.01
        limits = [degraded_mode_n_max(s, paper_sizes, T, delta)
                  for s in specs]
        healthy = min(limit[0] for limit in limits)
        failure_proof = min(limit[1] for limit in limits)
        schedule = FaultSchedule([disk_fail(40 * T, disk=0),
                                  disk_recover(200 * T, disk=0)])

        event = run_failover_scenario(
            specs[0], paper_sizes, specs=list(specs), disks=2, t=T,
            delta=delta, rounds=300, schedule=schedule, shedding=True,
            seed=0)
        assert event.healthy_n_max == healthy
        assert event.degraded_n_max == failure_proof
        assert event.within_bound

        compiled = compile_scenario(
            specs, paper_sizes, n_per_disk=healthy, t=T, rounds=300,
            schedule=schedule, policy=SheddingPolicy(failure_proof))
        estimate = simulate_scenario(compiled, seed=0)
        degraded = estimate.phase("degraded")
        # Both engines keep the degraded farm within the weakest-disk
        # tolerance -- the guarantee the compiled path must preserve.
        assert degraded.glitch_rate <= delta
        total_requests = sum(p.requests for p in estimate.phases)
        total_glitches = sum(p.glitches for p in estimate.phases)
        assert _two_proportion_close(
            round(event.aggregate_glitch_rate * total_requests),
            total_requests, total_glitches, total_requests)

    def test_storm_schedule_agrees(self, viking, paper_sizes):
        """The committed fault-storm example through both engines: the
        kernel's storm-phase lateness matches the event engine's rounds
        under the same storm, two-proportion tested."""
        schedule = FaultSchedule([
            recalibration_storm(20 * T, prob=0.4, duration=120 * T,
                                stall=0.08),
        ])
        n = 24
        rounds = 160

        event = run_failover_scenario(
            viking, paper_sizes, disks=2, t=T, rounds=rounds,
            n_per_disk=n, schedule=schedule, shedding=True, seed=1,
            fail_round=None)
        compiled = compile_scenario(
            (viking,) * 2, paper_sizes, n_per_disk=n, t=T, rounds=rounds,
            schedule=schedule)
        estimate = simulate_scenario(compiled, seed=1)
        storm = estimate.phase("healthy+storm")
        assert storm.rounds == 120

        # No failures here, so every event-engine stream is a survivor
        # and the aggregate rates share a denominator basis.
        total_requests = sum(p.requests for p in estimate.phases)
        total_glitches = sum(p.glitches for p in estimate.phases)
        assert _two_proportion_close(
            round(event.aggregate_glitch_rate * total_requests),
            total_requests, total_glitches, total_requests)

    def test_trick_segment_agrees_with_flat_load(self, viking,
                                                 paper_sizes):
        """A trick window is, to the kernel, just a bigger batch: the
        ``healthy+trick`` phase must match a flat run at the scan-mode
        request count."""
        compiled = compile_scenario(
            (viking,) * 2, paper_sizes, n_per_disk=20, t=T, rounds=400,
            trick=[TrickSegment(0, 400, n_ff=4, k=2)])
        estimate = simulate_scenario(compiled, seed=3)
        trick = estimate.phase("healthy+trick")
        assert trick.requests > 0

        rng = np.random.default_rng(9)
        flat = simulate_rounds(viking, paper_sizes, 24, T, 800, rng)
        assert _two_proportion_close(
            trick.late_disk_rounds, trick.disk_rounds,
            int(np.sum(flat.service_times > T)), 800)


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------
class TestBounds:
    def test_storm_bound_dominates_and_slow_is_unbounded(
            self, viking, paper_sizes):
        schedule = FaultSchedule([
            recalibration_storm(10 * T, prob=0.3, duration=10 * T,
                                stall=0.05),
            slow_disk(30 * T, factor=1.5, disk=1),
        ])
        compiled = compile_scenario(
            (viking,) * 2, paper_sizes, n_per_disk=20, t=T, rounds=40,
            schedule=schedule)
        bounds = analytic_phase_bounds(compiled)
        assert bounds["healthy"] is not None
        assert bounds["healthy+storm"] > bounds["healthy"]
        assert bounds["healthy+slow"] is None

    def test_estimate_respects_phase_bounds(self, viking, paper_sizes):
        """Observed per-phase lateness stays under the analytic b_late
        for a storm scenario at the paper's operating point."""
        schedule = FaultSchedule([
            recalibration_storm(50 * T, prob=0.2, duration=100 * T,
                                stall=0.05),
        ])
        compiled = compile_scenario(
            (viking,) * 2, paper_sizes, n_per_disk=24, t=T, rounds=300,
            schedule=schedule)
        bounds = analytic_phase_bounds(compiled)
        estimate = simulate_scenario(compiled, seed=11)
        for phase in estimate.phases:
            bound = bounds[phase.name]
            assert bound is not None
            assert phase.p_late <= bound + 3 * math.sqrt(
                bound * (1 - bound) / max(phase.disk_rounds, 1))


# ---------------------------------------------------------------------------
# CLI: scenarios must run compiled on --engine kernel, or fail loudly
# ---------------------------------------------------------------------------
class TestCli:
    def test_kernel_engine_runs_storm_schedule(self, capsys):
        """Regression: --engine kernel used to reject any schedule that
        was not the plain fail/recover shape (exit 2); it now compiles
        and prices storms, slow disks, and recoveries."""
        code = main(["simulate", "--faults",
                     str(EXAMPLES / "fault_storm.toml"),
                     "--engine", "kernel", "--server-rounds", "120",
                     "--seed", "3"])
        out = capsys.readouterr().out
        # Exit 0/1 is the priced verdict (1 when the slow disk pushes a
        # degraded phase past delta); the old path exited 2 unpriced.
        assert code in (0, 1)
        assert "scenario kernel" in out
        assert "+storm" in out
        assert "+slow" in out

    def test_kernel_engine_trick_and_heterogeneous(self, capsys):
        code = main(["simulate", "--engine", "kernel",
                     "--trick", "5:15:2:2",
                     "--farm-spec",
                     "quantum_viking_2_1,quantum_viking_2_1",
                     "--server-rounds", "30", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "healthy+trick" in out

    def test_event_engine_rejects_trick(self, capsys):
        code = main(["simulate", "--engine", "event",
                     "--trick", "5:15:2:2", "--server-rounds", "30"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--engine kernel" in err
