"""Heterogeneous-farm and degraded-mode admission tests."""

import pytest

from repro.core.farm import degraded_mode_n_max, degraded_modes, plan_farm
from repro.disk import (
    modern_av_drive,
    quantum_viking_2_1,
    scaled_viking,
    seagate_hawk_1lp,
)
from repro.errors import ConfigurationError


class TestFarmPlanning:
    def test_homogeneous_farm_scales_linearly(self, paper_sizes):
        plan = plan_farm([quantum_viking_2_1()] * 4, paper_sizes, 1.0,
                         1200, 12, 0.01)
        assert plan.per_disk_n_max == (28, 28, 28, 28)
        assert plan.n_max_total == 112
        assert plan.wasted_streams == 0

    def test_weakest_disk_binds(self, paper_sizes):
        plan = plan_farm([quantum_viking_2_1(), seagate_hawk_1lp()],
                         paper_sizes, 1.0, 1200, 12, 0.01)
        hawk_only = plan_farm([seagate_hawk_1lp()], paper_sizes, 1.0,
                              1200, 12, 0.01)
        assert plan.binding_disk == 1  # the Hawk is slower
        assert plan.n_max_total == 2 * hawk_only.n_max_total
        assert plan.wasted_streams > 0

    def test_adding_a_slow_disk_can_hurt(self, paper_sizes):
        # Three fast drives alone vs three fast + one old Hawk: the
        # striping rule makes the mixed farm admit FEWER streams.
        fast = modern_av_drive()
        pure = plan_farm([fast] * 3, paper_sizes, 1.0, 1200, 12, 0.01)
        mixed = plan_farm([fast] * 3 + [seagate_hawk_1lp()],
                          paper_sizes, 1.0, 1200, 12, 0.01)
        assert mixed.n_max_total < pure.n_max_total

    def test_validation(self, paper_sizes):
        with pytest.raises(ConfigurationError):
            plan_farm([], paper_sizes, 1.0, 1200, 12, 0.01)
        with pytest.raises(ConfigurationError):
            plan_farm([quantum_viking_2_1()], paper_sizes, 1.0, 1200,
                      12, 0.0)


class TestDegradedMode:
    def test_failure_proof_is_stricter(self, viking, paper_sizes):
        healthy, failure_proof = degraded_mode_n_max(viking, paper_sizes,
                                                     1.0, 0.01)
        assert healthy == 26
        assert 0 < failure_proof < healthy
        # Doubling a failure-proof batch still fits; doubling one more
        # stream does not.
        from repro.core import RoundServiceTimeModel
        model = RoundServiceTimeModel.for_disk(viking, paper_sizes)
        assert model.b_late(2 * failure_proof, 1.0) <= 0.01
        assert model.b_late(2 * (failure_proof + 1), 1.0) > 0.01

    def test_faster_disk_tolerates_more(self, paper_sizes):
        _, viking_fp = degraded_mode_n_max(quantum_viking_2_1(),
                                           paper_sizes, 1.0, 0.01)
        _, fast_fp = degraded_mode_n_max(scaled_viking(rate_scale=2.0),
                                         paper_sizes, 1.0, 0.01)
        assert fast_fp > viking_fp

    def test_validation(self, viking, paper_sizes):
        with pytest.raises(ConfigurationError):
            degraded_mode_n_max(viking, paper_sizes, 1.0, 1.5)

    @pytest.mark.parametrize("delta", [0.001, 0.01, 0.1])
    def test_bisection_matches_brute_force_scan(self, paper_sizes,
                                                delta):
        # The O(log) doubled-batch bisection must agree with the
        # exhaustive scan that is exact for any predicate.
        for spec in (quantum_viking_2_1(), seagate_hawk_1lp(),
                     scaled_viking(rate_scale=2.0)):
            fast = degraded_mode_n_max(spec, paper_sizes, 1.0, delta)
            brute = degraded_mode_n_max(spec, paper_sizes, 1.0, delta,
                                        exact=True)
            assert fast == brute, spec.name


class TestFarmFanOut:
    def test_a18_plans_pinned(self, paper_sizes):
        # Bench A18's five farms and three drives, pinned as literals.
        viking, hawk, fast = (quantum_viking_2_1(), seagate_hawk_1lp(),
                              modern_av_drive())
        farms = [[viking] * 4, [hawk] * 4, [fast] * 3,
                 [fast] * 3 + [hawk], [viking] * 2 + [hawk] * 2]
        plans = [plan_farm(specs, paper_sizes, 1.0, 1200, 12, 0.01)
                 for specs in farms]
        assert [plan.per_disk_n_max for plan in plans] == [
            (28, 28, 28, 28), (16, 16, 16, 16), (55, 55, 55),
            (55, 55, 55, 16), (28, 28, 16, 16)]
        assert degraded_modes([viking, hawk, fast], paper_sizes, 1.0,
                              0.01) == [(26, 13), (15, 7), (52, 26)]

    def test_degraded_modes_matches_per_disk_calls(self, paper_sizes):
        specs = [quantum_viking_2_1(), seagate_hawk_1lp()]
        expected = [degraded_mode_n_max(s, paper_sizes, 1.0, 0.01)
                    for s in specs]
        assert degraded_modes(specs, paper_sizes, 1.0, 0.01) == expected

    def test_degraded_modes_validation(self, paper_sizes):
        with pytest.raises(ConfigurationError):
            degraded_modes([], paper_sizes, 1.0, 0.01)
        with pytest.raises(ConfigurationError):
            degraded_modes([quantum_viking_2_1()], paper_sizes, 1.0,
                           0.0)
