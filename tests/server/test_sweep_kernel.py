"""Sweep-kernel tests: plan/serve bit-identity, SCAN elevator order,
golden same-seed server reports, and the farm kernel's pinned outputs
and statistical agreement with the event engine.

The tentpole contract of the vectorised sweep kernel is twofold: the
event-driven path must stay *byte-identical* for a given seed (the plan
arrays replace scalar arithmetic bit for bit, and the rotational draw
stays lazy so abandoned requests never consume the RNG), and the
farm-level batched path must agree *statistically* (Wilson intervals)
with the event engine it shortcuts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import wilson_interval
from repro.disk.drive import DiskDrive
from repro.disk.presets import quantum_viking_2_1
from repro.disk.request import DiskRequest
from repro.disk.sweepkernel import plan_sweep, sample_cylinders_rates
from repro.distributions import Gamma
from repro.errors import ConfigurationError
from repro.server.faults import (FaultSchedule, SheddingPolicy, disk_fail,
                                 disk_recover, run_failover_scenario)
from repro.server.scenario import compile_scenario, simulate_scenario
from repro.server.scheduler import DiskScheduler
from repro.server.simulation import simulate_rounds
from repro.sim.engine import Engine


@pytest.fixture(scope="module")
def viking():
    return quantum_viking_2_1()


@pytest.fixture(scope="module")
def sizes():
    return Gamma.from_mean_std(200_000.0, 100_000.0)


def compile_failover(spec, size_dist, *, disks, n_per_disk, t, rounds,
                     fail_round=None, recover_round=None,
                     degraded_n_max=None, instant_rejoin=False,
                     rejoin_rounds=0):
    """The mirrored-failover shape as a compiled scenario: disk 0 fails
    at ``fail_round`` and recovers at ``recover_round``; with
    ``degraded_n_max`` a drop-mode policy sheds every disk down to that
    many streams (``None``: no shedding, the survivor doubles)."""
    events = []
    if fail_round is not None:
        events.append(disk_fail(fail_round * t, disk=0))
    if recover_round is not None:
        events.append(disk_recover(recover_round * t, disk=0))
    policy = (None if degraded_n_max is None
              else SheddingPolicy(degraded_n_max, mode="drop"))
    return compile_scenario(
        (spec,) * disks, size_dist, n_per_disk=n_per_disk, t=t,
        rounds=rounds, schedule=FaultSchedule(events), policy=policy,
        instant_rejoin=instant_rejoin, rejoin_rounds=rejoin_rounds)


def simulate_failover(spec, size_dist, *, seed, jobs=None, **kwargs):
    return simulate_scenario(compile_failover(spec, size_dist, **kwargs),
                             seed=seed, jobs=jobs)


class TestPlanServeIdentity:
    def test_plan_matches_scalar_serve_bitwise(self, viking):
        """plan_round + serve_planned is byte-identical to serve()."""
        rng = np.random.default_rng(42)
        cylinders = rng.integers(0, viking.cylinders, size=40)
        requests = [DiskRequest(stream_id=i, size=150_000.0 + 1000.0 * i,
                                cylinder=int(c))
                    for i, c in enumerate(cylinders)]
        scalar = DiskDrive(viking.geometry, viking.seek_curve)
        planned = DiskDrive(viking.geometry, viking.seek_curve)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)

        expected = [scalar.serve(r, rng_a) for r in requests]
        seeks, transfers = planned.plan_round(requests)
        observed = [planned.serve_planned(r, float(seeks[i]),
                                          float(transfers[i]), rng_b)
                    for i, r in enumerate(requests)]
        assert observed == expected
        assert planned.busy_time == scalar.busy_time
        assert planned.arm_cylinder == scalar.arm_cylinder

    def test_plan_valid_for_any_served_prefix(self, viking):
        """An aborted sweep serves a prefix; the plan must not depend
        on whether the suffix is ever served."""
        requests = [DiskRequest(stream_id=i, size=200_000.0,
                                cylinder=100 * i) for i in range(10)]
        drive = DiskDrive(viking.geometry, viking.seek_curve)
        full_seeks, full_transfers = drive.plan_round(requests)
        prefix_seeks, prefix_transfers = drive.plan_round(requests[:4])
        np.testing.assert_array_equal(prefix_seeks, full_seeks[:4])
        np.testing.assert_array_equal(prefix_transfers,
                                      full_transfers[:4])

    def test_plan_sweep_rejects_out_of_range(self, viking):
        from repro.errors import GeometryError
        with pytest.raises(GeometryError):
            plan_sweep(viking.geometry, viking.seek_curve, 0,
                       np.array([viking.cylinders]), np.array([1.0]))

    def test_sample_cylinders_matches_legacy_layout(self, viking):
        """The factored sampler consumes the RNG exactly like the old
        inline code: two uniform draws, zone pick then offset."""
        tables_rng = np.random.default_rng(3)
        manual_rng = np.random.default_rng(3)
        cylinders, rates = sample_cylinders_rates(viking, tables_rng,
                                                  (5, 7))
        geometry = viking.geometry
        weights = (geometry.zone_cylinder_counts
                   * geometry.zone_map.capacities)
        cum = np.cumsum(weights / np.sum(weights))
        zone = np.searchsorted(cum, manual_rng.random((5, 7)),
                               side="right")
        zone = np.minimum(zone, geometry.zones - 1)
        lo = geometry.zone_bounds[zone]
        width = geometry.zone_bounds[zone + 1] - lo
        expected = lo + np.floor(
            manual_rng.random((5, 7)) * width).astype(np.int64)
        np.testing.assert_array_equal(cylinders, expected)
        np.testing.assert_array_equal(
            rates, viking.zone_map.rates[
                geometry.zone_of_cylinder(expected)])


def _run_scheduler_rounds(viking, cylinder_batches):
    """Run one DiskScheduler through the given per-round cylinder
    batches with generous deadlines; returns the outcomes."""
    engine = Engine()
    drive = DiskDrive(viking.geometry, viking.seek_curve)
    outcomes = []
    scheduler = DiskScheduler(engine, drive, np.random.default_rng(0),
                              lambda disk, outcome:
                              outcomes.append(outcome))
    deadline = 0.0
    for round_index, cylinders in enumerate(cylinder_batches):
        deadline += 1e9
        scheduler.submit(round_index, deadline,
                         [DiskRequest(stream_id=i, size=200_000.0,
                                      cylinder=c)
                          for i, c in enumerate(cylinders)])
    scheduler.shutdown()
    engine.run()
    return outcomes


class TestScanElevatorProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(min_value=0, max_value=1999),
                             min_size=1, max_size=20),
                    min_size=1, max_size=4))
    def test_rounds_sweep_in_alternating_cylinder_order(self, batches):
        """With no deadline pressure every batch is served completely,
        in ascending cylinder order on even rounds and descending on
        odd rounds (the SCAN elevator), regardless of arrival order."""
        viking = quantum_viking_2_1()
        outcomes = _run_scheduler_rounds(viking, batches)
        assert len(outcomes) == len(batches)
        for round_index, (cylinders, outcome) in enumerate(
                zip(batches, outcomes)):
            assert not outcome.glitched
            served_cyls = [cylinders[sid]
                           for sid in outcome.served_on_time]
            assert sorted(served_cyls) == sorted(cylinders)
            expected = sorted(served_cyls,
                              reverse=(round_index % 2 == 1))
            assert served_cyls == expected
            # Completion times are aligned with served_on_time and
            # strictly increase along the sweep.
            assert len(outcome.completion_times) == len(served_cyls)
            assert list(outcome.completion_times) == sorted(
                outcome.completion_times)


#: Golden values captured on the pre-kernel event engine.  The sweep
#: kernel refactor must keep every same-seed report byte-identical.
GOLDEN_SHED = dict(delivered=2470, requests=2470, physical_requests=2470,
                   rounds=60, glitches=0, late_rounds=0,
                   dropped_requests=0, failovers=325,
                   paused_stream_rounds=650, shed_streams=26,
                   resumed_streams=26)
GOLDEN_NOSHED = dict(delivered=2028, requests=3000,
                     physical_requests=3000, rounds=50, glitches=912,
                     late_rounds=36, dropped_requests=0, failovers=1050)


class TestGoldenReports:
    def _shed_scenario(self, viking, sizes):
        return run_failover_scenario(viking, sizes, disks=2, t=1.0,
                                     delta=0.01, rounds=60,
                                     fail_round=20, recover_round=45,
                                     shedding=True, seed=7)

    def _noshed_scenario(self, viking, sizes):
        return run_failover_scenario(viking, sizes, disks=2, t=1.0,
                                     delta=0.01, rounds=50,
                                     fail_round=15, shedding=False,
                                     n_per_disk=30, seed=11)

    def test_shed_golden(self, viking, sizes):
        report = self._shed_scenario(viking, sizes).report
        for key, expected in GOLDEN_SHED.items():
            assert getattr(report, key) == expected, key
        assert report.shed_by_round == {20: 26}
        assert report.glitches_by_round == {}
        assert report.failovers_by_round == {
            r: 13 for r in range(20, 45)}

    def test_noshed_golden(self, viking, sizes):
        result = self._noshed_scenario(viking, sizes)
        report = result.report
        for key, expected in GOLDEN_NOSHED.items():
            assert getattr(report, key) == expected, key
        assert result.aggregate_glitch_rate == pytest.approx(
            0.31020408163265306, abs=0.0)
        assert report.glitches_by_round[15] == 25
        assert report.glitches_by_round[48] == 32
        assert report.per_disk_late_rounds == {0: 0, 1: 36}

    def test_same_seed_reports_compare_equal(self, viking, sizes):
        first = self._shed_scenario(viking, sizes).report
        second = self._shed_scenario(viking, sizes).report
        assert first == second


class TestFarmKernel:
    def test_phase_structure_and_counts(self, viking, sizes):
        est = simulate_failover(viking, sizes, disks=2, n_per_disk=8,
                                t=1.0, rounds=100, fail_round=40,
                                recover_round=70, seed=5)
        names = [p.name for p in est.phases]
        assert names == ["healthy", "degraded", "recovered"]
        healthy = est.phase("healthy")
        assert healthy.rounds == 40 and healthy.disk_rounds == 80
        assert healthy.requests == 80 * 8
        degraded = est.phase("degraded")
        # The failed disk idles; the survivor doubles.
        assert degraded.disk_rounds == 30
        assert degraded.requests == 30 * 16
        assert est.per_disk[0][1] == (0, 0, 0, 0)
        recovered = est.phase("recovered")
        assert recovered.rounds == 30 and recovered.disk_rounds == 60

    def test_no_failure_single_phase(self, viking, sizes):
        est = simulate_failover(viking, sizes, disks=3, n_per_disk=5,
                                t=1.0, rounds=50, seed=1)
        assert [p.name for p in est.phases] == ["healthy"]
        assert est.fail_disk is None
        assert est.phase("healthy").disk_rounds == 150

    def test_jobs_fanout_bit_identical(self, viking, sizes):
        kwargs = dict(disks=2, n_per_disk=10, t=1.0, rounds=200,
                      fail_round=80, seed=13)
        serial = simulate_failover(viking, sizes, **kwargs)
        assert serial.per_disk == (
            ((80, 0, 800, 0), (0, 0, 0, 0)),
            ((80, 0, 800, 0), (120, 0, 2400, 0)))
        for jobs in (1, 2, 3):
            pooled = simulate_failover(viking, sizes, jobs=jobs, **kwargs)
            assert serial.per_disk == pooled.per_disk
            assert serial.phases == pooled.phases

    def test_cross_validates_event_engine(self, viking, sizes):
        """The farm kernel's degraded-phase glitch rate must agree
        (overlapping Wilson 95 % intervals) with the event-driven
        no-shed scenario it shortcuts."""
        event = run_failover_scenario(viking, sizes, disks=2, t=1.0,
                                      delta=0.01, rounds=50,
                                      fail_round=15, shedding=False,
                                      n_per_disk=30, seed=11)
        degraded_rounds = 50 - 15
        event_glitches = sum(
            count for r, count in
            event.report.glitches_by_round.items() if r >= 15)
        event_requests = degraded_rounds * 60
        event_ci = wilson_interval(event_glitches, event_requests)

        kernel = simulate_failover(viking, sizes, disks=2, n_per_disk=30,
                                   t=1.0, rounds=4000, fail_round=500,
                                   seed=3)
        # Pinned: the same kernel draws on both sides of the engine
        # consolidation (the survivor runs 60 requests per round).
        assert kernel.per_disk == (
            ((500, 17, 15000, 21), (0, 0, 0, 0)),
            ((500, 19, 15000, 23), (3500, 3500, 210000, 90460)))
        kernel_ci = kernel.survivor_degraded().glitch_ci()
        assert kernel_ci[0] <= event_ci[1] and \
            event_ci[0] <= kernel_ci[1], (
                f"event CI {event_ci} and kernel CI {kernel_ci} "
                f"do not overlap")

    def test_kernel_matches_plain_simulate_rounds_when_healthy(
            self, viking, sizes):
        """A single healthy disk through the farm engine reproduces
        simulate_rounds on the farm's per-disk seed exactly."""
        est = simulate_failover(viking, sizes, disks=1, n_per_disk=6,
                                t=1.0, rounds=300, seed=9)
        child = np.random.SeedSequence([9, 0xFA9A]).spawn(1)[0]
        batch = simulate_rounds(viking, sizes, 6, 1.0, 300,
                                np.random.default_rng(child))
        late = int(np.sum(batch.service_times > 1.0))
        glitches = int(np.sum(batch.glitches))
        assert est.per_disk[0][0] == (300, late, 1800, glitches)

    def test_validation_errors(self, viking, sizes):
        with pytest.raises(ConfigurationError):
            compile_scenario((), sizes, n_per_disk=5, t=1.0, rounds=10)
        with pytest.raises(ConfigurationError):
            compile_failover(viking, sizes, disks=2, n_per_disk=0,
                             t=1.0, rounds=10)
        with pytest.raises(ConfigurationError):
            compile_failover(viking, sizes, disks=2, n_per_disk=5,
                             t=1.0, rounds=0)
        with pytest.raises(ConfigurationError):
            compile_scenario((viking,) * 2, sizes, n_per_disk=5, t=1.0,
                             rounds=10,
                             schedule=FaultSchedule([disk_fail(2.0,
                                                               disk=2)]))


class TestRecoveredRejoin:
    """Recovered-phase rejoin semantics (the PR 5 carry-over bugfix).

    The old kernel modelled the recovered phase with the *healthy*
    populations, so streams shed during the degraded phase reappeared
    out of thin air at the recovery round.  Under a drop-mode policy
    the recovered phase starts from the shed populations (event-engine
    drop-mode semantics); ``rejoin_rounds`` ramps back up, and
    ``instant_rejoin=True`` restores the full population at once
    (pause-mode semantics, where every paused stream resumes).

    The ``per_disk`` literals were recorded from the farm engine this
    compiler replaced and must not move.
    """

    #: 2 disks x 30 streams, failure rounds [20, 45) of 60, shed to the
    #: degraded bound of 13 per disk.
    KW = dict(disks=2, n_per_disk=30, t=1.0, rounds=60, fail_round=20,
              recover_round=45, degraded_n_max=13)

    def test_recovered_phase_starts_from_shed_population(self, viking,
                                                         sizes):
        """Regression (fails pre-fix): by default the recovered phase
        runs at the shed level, not the healthy one."""
        est = simulate_failover(viking, sizes, seed=7, **self.KW)
        assert [p.name for p in est.phases] == \
            ["healthy", "degraded", "recovered"]
        recovered = est.phase("recovered")
        assert recovered.rounds == 15
        # 15 rounds x 2 disks x 13 kept streams -- the pre-fix code
        # produced 15 x 2 x 30 = 900 requests here.
        assert recovered.requests == 15 * 2 * 13
        for disk in range(2):
            assert est.per_disk[disk][2][2] == 15 * 13
        assert est.per_disk == (
            ((20, 0, 600, 0), (0, 0, 0, 0), (15, 0, 195, 0)),
            ((20, 0, 600, 0), (25, 0, 650, 0), (15, 0, 195, 0)))

    def test_instant_rejoin_pins_old_behaviour(self, viking, sizes):
        est = simulate_failover(viking, sizes, seed=7,
                                instant_rejoin=True, **self.KW)
        recovered = est.phase("recovered")
        assert recovered.rounds == 15
        assert recovered.requests == 15 * 2 * 30
        for disk in range(2):
            assert est.per_disk[disk][2][2] == 15 * 30
        assert est.per_disk == (
            ((20, 0, 600, 0), (0, 0, 0, 0), (15, 1, 450, 1)),
            ((20, 0, 600, 0), (25, 0, 650, 0), (15, 0, 450, 0)))

    def test_rejoin_ramp_refills_to_full_population(self, viking,
                                                    sizes):
        """``rejoin_rounds=5`` ramps 13 -> 30 per disk linearly and the
        three-phase estimate shape survives the split plan."""
        compiled = compile_failover(viking, sizes, rejoin_rounds=5,
                                    **self.KW)
        # Ramp levels ceil-interpolated from 13 to 30 over 5 rounds
        # (17, 20, 24, 27, 30), then 10 more rounds at the full 30,
        # merged into the last entry.
        ramp = [(entry.batches, entry.rounds) for entry in compiled.plan
                if entry.name == "recovered"]
        assert ramp == [((17, 17), 1), ((20, 20), 1), ((24, 24), 1),
                        ((27, 27), 1), ((30, 30), 11)]
        est = simulate_scenario(compiled, seed=7)
        assert [p.name for p in est.phases] == \
            ["healthy", "degraded", "recovered"]
        recovered = est.phase("recovered")
        assert recovered.rounds == 15
        per_disk_requests = (17 + 20 + 24 + 27 + 30) + 10 * 30
        assert recovered.requests == 2 * per_disk_requests
        assert est.per_disk == (
            ((20, 0, 600, 0), (0, 0, 0, 0), (15, 2, 418, 3)),
            ((20, 0, 600, 0), (25, 0, 650, 0), (15, 0, 418, 0)))
        hold = simulate_failover(viking, sizes, seed=7, **self.KW)
        instant = simulate_failover(viking, sizes, seed=7,
                                    instant_rejoin=True, **self.KW)
        assert hold.phase("recovered").requests \
            < recovered.requests \
            < instant.phase("recovered").requests

    def test_ramp_shorter_than_span_is_capped(self, viking, sizes):
        """A ramp longer than the remaining rounds never overshoots the
        run length and still ends at n_per_disk-sized rounds."""
        kwargs = dict(self.KW, rounds=48)  # only 3 recovered rounds
        est = simulate_failover(viking, sizes, seed=7, rejoin_rounds=5,
                                **kwargs)
        recovered = est.phase("recovered")
        assert recovered.rounds == 3
        # First three ramp levels: 17, 20, 24.
        assert recovered.requests == 2 * (17 + 20 + 24)
        assert est.per_disk == (
            ((20, 0, 600, 0), (0, 0, 0, 0), (3, 0, 61, 0)),
            ((20, 0, 600, 0), (25, 0, 650, 0), (3, 0, 61, 0)))

    def test_drop_mode_cross_validates_event_engine(self, viking,
                                                    sizes):
        """Drop-mode event engine vs the kernel: the recovered
        populations must match exactly and the recovered-phase glitch
        rates must agree (overlapping Wilson 95 % intervals)."""
        event = run_failover_scenario(viking, sizes, disks=2, t=1.0,
                                      delta=0.01, rounds=60,
                                      fail_round=20, recover_round=45,
                                      shedding=True, shed_mode="drop",
                                      seed=7)
        remaining = event.streams_opened - event.report.shed_streams
        span = 60 - 45
        event_glitches = sum(
            count for r, count in
            event.report.glitches_by_round.items() if r >= 45)
        event_ci = wilson_interval(event_glitches, span * remaining)

        kernel = simulate_failover(
            viking, sizes, disks=2,
            n_per_disk=event.streams_opened // 2, t=1.0, rounds=2000,
            fail_round=200, recover_round=500,
            degraded_n_max=event.degraded_n_max, seed=3)
        recovered = kernel.phase("recovered")
        # Same per-round farm population after a drop-mode recovery.
        assert recovered.requests == recovered.rounds * remaining
        kernel_ci = wilson_interval(recovered.glitches,
                                    recovered.requests)
        assert kernel_ci[0] <= event_ci[1] and \
            event_ci[0] <= kernel_ci[1], (
                f"event CI {event_ci} and kernel CI {kernel_ci} "
                f"do not overlap")

    def test_rejoin_validation(self, viking, sizes):
        with pytest.raises(ConfigurationError):
            compile_failover(viking, sizes, rejoin_rounds=-1, **self.KW)
        with pytest.raises(ConfigurationError):
            compile_failover(viking, sizes, instant_rejoin=True,
                             rejoin_rounds=5, **self.KW)
