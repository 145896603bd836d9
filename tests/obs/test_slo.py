"""The ε error-budget tracker: budget inversion, burn rates, alerts."""

import math

import pytest
from scipy import stats

from repro.distributions import binomial_tail
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.obs.slo import (
    PAGE_BURN,
    WARN_BURN,
    SLOTracker,
    slo_report_from_records,
    slot_glitch_budget,
)


class TestSlotGlitchBudget:
    def test_inverts_the_exact_binomial_tail(self):
        budget = slot_glitch_budget(1200, 12, 0.01)
        # At the returned rate the tail is at most epsilon (the
        # bisection keeps the conservative side) and within a hair.
        tail = binomial_tail(1200, budget, 13)
        assert tail <= 0.01
        assert tail == pytest.approx(0.01, rel=1e-6)

    def test_matches_a_scipy_backed_bisection(self):
        # The same bisection on scipy's binomial survival function.
        m, g, eps = 1200, 12, 0.01
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if stats.binom.sf(g, m, mid) <= eps:
                lo = mid
            else:
                hi = mid
        assert slot_glitch_budget(m, g, eps) == pytest.approx(
            lo, rel=1e-12, abs=0.0)

    def test_monotone_in_epsilon(self):
        loose = slot_glitch_budget(1200, 12, 0.1)
        tight = slot_glitch_budget(1200, 12, 0.001)
        assert tight < loose

    def test_degenerate_shape_saturates(self):
        # With g = m - 1 even glitching every slot may satisfy eps.
        assert slot_glitch_budget(2, 1, 0.999999) <= 1.0

    @pytest.mark.parametrize("m,g,eps", [
        (0, 0, 0.01), (10, 10, 0.01), (10, -1, 0.01),
        (10, 2, 0.0), (10, 2, 1.0),
    ])
    def test_validation(self, m, g, eps):
        with pytest.raises(ConfigurationError):
            slot_glitch_budget(m, g, eps)


class TestSLOTracker:
    def test_burn_rate_is_hand_computable(self):
        tracker = SLOTracker(0.01, fast_window=4, slow_window=8)
        # 100 slots/round at budget 0.01 -> 1 allowed bad slot/round.
        for _ in range(4):
            tracker.observe(2, 100)
        # 8 bad over 4 allowed -> burn 2.0 in both windows.
        assert tracker.fast_burn == pytest.approx(2.0)
        assert tracker.slow_burn == pytest.approx(2.0)

    def test_storm_pages_and_leak_warns(self):
        tracker = SLOTracker(0.01, fast_window=4, slow_window=16)
        for _ in range(16):
            assert tracker.observe(0, 100) == "ok"
        # Slow leak: 2x sustainable, not enough for the fast page.
        state = "ok"
        for _ in range(16):
            state = tracker.observe(2, 100)
        assert state == "warn"
        assert tracker.warnings == 1
        # Storm: 10x sustainable torches the fast window.
        for _ in range(4):
            state = tracker.observe(10, 100)
        assert state == "page"
        assert tracker.pages == 1
        assert tracker.first_page_round is None  # no round indices fed

    def test_recovery_returns_to_ok(self):
        tracker = SLOTracker(0.01, fast_window=2, slow_window=4)
        tracker.observe(50, 100)
        assert tracker.state == "page"
        for _ in range(4):
            tracker.observe(0, 100)
        assert tracker.state == "ok"

    def test_degraded_rounds_use_the_degraded_budget(self):
        tracker = SLOTracker(0.001, degraded_budget=0.5,
                             fast_window=1, slow_window=1)
        # 10/100 bad: 100x the healthy budget, 0.2x the degraded one.
        assert tracker.observe(10, 100, degraded=True) == "ok"
        assert tracker.degraded_rounds == 1
        assert tracker.observe(10, 100, degraded=False) == "page"

    def test_zero_allowed_with_bad_is_infinite_burn(self):
        tracker = SLOTracker(0.01, fast_window=2, slow_window=2)
        tracker._entries.append((1, 0, 0.0))
        assert math.isinf(tracker.burn_rate(2))

    def test_budget_accounting(self):
        tracker = SLOTracker(0.01, fast_window=4, slow_window=4)
        for _ in range(10):
            tracker.observe(1, 100)  # spending at exactly 1.0x
        assert tracker.budget_spent_fraction() == pytest.approx(1.0)
        assert tracker.budget_remaining_fraction() == pytest.approx(
            0.0)

    def test_first_page_round_records_detection(self):
        tracker = SLOTracker(0.01, fast_window=2, slow_window=4)
        tracker.observe(0, 100, round_index=7)
        tracker.observe(60, 100, round_index=8)
        assert tracker.state == "page"
        assert tracker.first_page_round == 8

    def test_observe_validates_counts(self):
        tracker = SLOTracker(0.01)
        with pytest.raises(ConfigurationError):
            tracker.observe(5, 3)
        with pytest.raises(ConfigurationError):
            tracker.observe(-1, 3)

    @pytest.mark.parametrize("kwargs", [
        dict(budget=0.0), dict(budget=1.5),
        dict(budget=0.01, degraded_budget=0.0),
        dict(budget=0.01, fast_window=0),
        dict(budget=0.01, fast_window=8, slow_window=4),
    ])
    def test_constructor_validation(self, kwargs):
        budget = kwargs.pop("budget")
        with pytest.raises(ConfigurationError):
            SLOTracker(budget, **kwargs)

    def test_snapshot_round_trip_is_exact(self):
        tracker = SLOTracker(0.01, degraded_budget=0.02,
                             fast_window=3, slow_window=6)
        for i in range(10):
            tracker.observe(i % 3, 50, degraded=(i % 4 == 0),
                            round_index=i)
        data = tracker.to_dict()
        clone = SLOTracker.from_dict(data)
        assert clone.to_dict() == data
        assert clone.state == tracker.state
        assert clone.fast_burn == pytest.approx(tracker.fast_burn)

    def test_restores_a_snapshot_with_burn_thresholds(self):
        # Older writers stored page_burn/warn_burn in the snapshot:
        # every other field restores exactly, and the thresholds in
        # force are the module constants.
        data = {
            "budget": 0.01, "degraded_budget": 0.02,
            "fast_window": 3, "slow_window": 6,
            "page_burn": 6.0, "warn_burn": 1.0,
            "entries": [[2, 50, 0.5], [0, 50, 0.5], [1, 50, 1.0],
                        [2, 50, 0.5], [0, 50, 0.5], [1, 50, 0.5]],
            "state": "warn", "rounds": 8, "total_slots": 400,
            "bad_slots": 7, "allowed_budget": 5.0,
            "degraded_rounds": 2, "pages": 0, "warnings": 1,
            "first_warn_round": 2, "first_page_round": None,
            "last_round": 7,
        }
        clone = SLOTracker.from_dict(data)
        expected = {key: value for key, value in data.items()
                    if key not in ("page_burn", "warn_burn")}
        assert clone.to_dict() == expected
        summary = clone.summary()
        assert (summary["page_burn"], summary["warn_burn"]) == (
            PAGE_BURN, WARN_BURN)
        assert summary["fast_burn"] == pytest.approx(2.0)

    def test_restore_refuses_unknown_state(self):
        data = SLOTracker(0.01).to_dict()
        data["state"] = "on-fire"
        with pytest.raises(ConfigurationError):
            SLOTracker.from_dict(data)

    def test_publish_is_idempotent(self):
        registry = MetricsRegistry()
        tracker = SLOTracker(0.01, fast_window=2, slow_window=4)
        tracker.observe(60, 100)  # page
        tracker.publish(registry)
        tracker.publish(registry)
        snap = registry.snapshot()
        assert snap["slo_pages_total"]["value"] == 1
        assert snap["slo_state"]["value"] == 2
        assert snap["slo_burn_rate_fast"]["value"] > 1.0


def _round_record(index, glitched, requests, degraded=False,
                  seq=None):
    return {"kind": "round_observe", "seq": seq, "wall": 0.0,
            "round": index, "disk_rounds": 2, "late_disk_rounds": 0,
            "requests": requests, "glitched": glitched,
            "degraded": degraded, "bound": 1e-6}


class TestOfflineReport:
    def header(self, **over):
        record = {"kind": "run_start", "seq": 0, "wall": 0.0,
                  "seed": None, "schema": 1, "epsilon": 0.01,
                  "delta": 0.01, "m": 1200, "g": 12}
        record.update(over)
        return record

    def test_replays_round_observe_records(self):
        records = [self.header()]
        records += [_round_record(i, 0, 100, seq=i + 1)
                    for i in range(8)]
        records += [_round_record(8 + i, 40, 100, seq=9 + i)
                    for i in range(4)]
        report = slo_report_from_records(records, fast_window=4,
                                         slow_window=8)
        assert report["observed_rounds"] == 12
        assert report["state"] == "page"
        assert report["pages"] == 1
        assert report["first_page_round"] is not None
        assert report["transitions"][-1]["to"] == "page"

    def test_header_supplies_shape_and_args_override(self):
        records = [self.header(epsilon=0.2), _round_record(0, 1, 100)]
        from_header = slo_report_from_records(records)
        assert from_header["epsilon"] == 0.2
        overridden = slo_report_from_records(records, epsilon=0.001)
        assert overridden["epsilon"] == 0.001
        assert (overridden["budget_per_slot"]
                < from_header["budget_per_slot"])

    def test_falls_back_to_sweep_records(self):
        records = [
            self.header(),
            {"kind": "round_dispatch", "t": 0.0, "round": 1,
             "active_streams": 4, "failed_disks": [1]},
            {"kind": "sweep", "t": 0.0, "round": 0, "disk": 0,
             "service": 0.5, "late": False, "served": 50,
             "glitched": 0},
            {"kind": "sweep", "t": 0.0, "round": 0, "disk": 1,
             "service": 0.5, "late": False, "served": 50,
             "glitched": 2},
            {"kind": "sweep", "t": 0.0, "round": 1, "disk": 0,
             "service": 0.5, "late": True, "served": 60,
             "glitched": 5},
        ]
        report = slo_report_from_records(records)
        assert report["observed_rounds"] == 2
        assert report["slots"] == 160
        assert report["glitched_slots"] == 7
        assert report["degraded_rounds"] == 1  # round 1 had a failure

    def test_empty_trace_reports_zero_rounds(self):
        report = slo_report_from_records([self.header()])
        assert report["observed_rounds"] == 0
        assert report["state"] == "ok"
