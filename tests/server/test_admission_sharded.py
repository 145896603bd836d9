"""ShardedAdmissionController: batch grants, rebalance, debt, and
cross-validation against the single-lock reference controller.

The sharded invariant under test everywhere:
``sum(shard.limit) == capacity + debt`` with
``shard.active <= shard.limit`` per stripe -- no interleaving of
admits, releases, retargets and rebalances may ever let the live count
exceed the analytic capacity.
"""

import random
import threading

import pytest

from repro.core import AdmissionTable, GlitchModel, RoundServiceTimeModel
from repro.disk import quantum_viking_2_1
from repro.errors import AdmissionError, ConfigurationError
from repro.workload import paper_fragment_sizes
from repro.server import AdmissionController, ShardedAdmissionController


def assert_invariant(controller):
    snap = controller.snapshot()
    assert sum(snap["shard_limit"]) == snap["capacity"] + snap["debt"]
    for active, limit in zip(snap["shard_active"],
                             snap["shard_limit"]):
        assert 0 <= active <= limit
    assert 0 <= snap["active"] <= snap["capacity"] + snap["debt"]
    return snap


class TestCounting:
    def test_admit_release_roundtrip(self):
        controller = ShardedAdmissionController(7, disks=4, shards=4)
        assert controller.capacity == 28
        for _ in range(28):
            controller.admit()
        assert controller.active == 28
        with pytest.raises(AdmissionError):
            controller.admit()
        for _ in range(28):
            controller.release()
        assert controller.active == 0
        assert controller.requests == 29
        assert controller.rejections == 1
        assert_invariant(controller)

    def test_release_without_active_raises(self):
        controller = ShardedAdmissionController(2, shards=4)
        with pytest.raises(ConfigurationError,
                           match="without an active stream"):
            controller.release()

    def test_rejection_error_attributes(self):
        controller = ShardedAdmissionController(1, disks=2, shards=2)
        controller.admit()
        controller.admit()
        with pytest.raises(AdmissionError) as info:
            controller.admit()
        assert "admission denied" in str(info.value)
        assert info.value.active_streams == 2
        assert info.value.limit == 2

    def test_from_table_matches_legacy(self):
        model = RoundServiceTimeModel.for_disk(
            quantum_viking_2_1(), paper_fragment_sizes())
        table = AdmissionTable(GlitchModel(model, t=1.0),
                               m=1200, g=12)
        legacy = AdmissionController.from_table(
            table, epsilon=0.01, disks=4)
        sharded = ShardedAdmissionController.from_table(
            table, epsilon=0.01, disks=4, shards=8)
        assert sharded.capacity == legacy.capacity == 112
        assert sharded.n_max_per_disk == legacy.n_max_per_disk == 28
        assert sharded.shards == 8


class TestBatch:
    def test_batch_takes_k_in_one_call(self):
        controller = ShardedAdmissionController(10, disks=2, shards=4)
        assert controller.admit_batch(8) == 8
        assert controller.active == 8
        assert controller.requests == 8

    def test_partial_grant_when_capacity_runs_out(self):
        controller = ShardedAdmissionController(5, disks=2, shards=4)
        assert controller.admit_batch(7) == 7
        granted = controller.admit_batch(7)
        assert granted == 3
        assert controller.active == 10
        assert controller.rejections == 4  # the ungranted remainder

    def test_zero_count_is_a_probe(self):
        controller = ShardedAdmissionController(5, shards=4)
        assert controller.admit_batch(0) == 0
        assert controller.requests == 0

    def test_negative_count_raises(self):
        controller = ShardedAdmissionController(5, shards=4)
        with pytest.raises(ConfigurationError, match="count >= 0"):
            controller.admit_batch(-1)

    def test_zero_grant_raises_not_partial(self):
        controller = ShardedAdmissionController(2, disks=2, shards=4)
        controller.admit_batch(4)
        with pytest.raises(AdmissionError):
            controller.admit_batch(3)
        assert controller.rejections == 3

    def test_on_grant_runs_under_the_lock_with_the_count(self):
        controller = ShardedAdmissionController(10, shards=4)
        seen = []
        controller.admit_batch(
            6, shard=2, on_grant=lambda idx, n: seen.append((idx, n)))
        assert seen == [(2, 6)]


class TestHomeStripes:
    def test_concurrent_threads_get_distinct_homes(self):
        """8 live threads on 8 stripes home on 8 different stripes (a
        modulus of the thread ident homed every one on stripe 0)."""
        controller = ShardedAdmissionController(7, disks=8, shards=8)
        barrier = threading.Barrier(8)
        homes = []

        def ask():
            barrier.wait()
            homes.append((controller.shard_for_thread(),
                          controller.shard_for_thread()))

        pool = [threading.Thread(target=ask) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert all(first == again for first, again in homes)
        assert sorted(first for first, _ in homes) == list(range(8))


class TestRebalance:
    def test_no_false_reject_when_one_stripe_is_hot(self):
        """Every admit lands on stripe 0: its slice exhausts after
        capacity/S tickets, but rebalances must carry it to the full
        global capacity."""
        controller = ShardedAdmissionController(7, disks=8, shards=8)
        for _ in range(controller.capacity):
            assert controller.admit_batch(1, shard=0) == 1
        assert controller.active == controller.capacity
        assert controller.rebalances > 0
        with pytest.raises(AdmissionError):
            controller.admit_batch(1, shard=0)
        assert_invariant(controller)

    def test_rebalance_amortises_instead_of_thrashing(self):
        """The slow path steals a reserve beyond the immediate grant,
        so a hot stripe re-enters it O(S) times, not O(capacity)."""
        controller = ShardedAdmissionController(32, disks=4, shards=8)
        for _ in range(controller.capacity):
            controller.admit_batch(1, shard=3)
        # O(S log capacity) steals, nowhere near one per ticket.
        assert controller.rebalances <= 3 * controller.shards
        assert controller.rebalances < controller.capacity // 4

    def test_epoch_bumps_on_retarget_and_rebalance(self):
        controller = ShardedAdmissionController(4, disks=4, shards=4)
        before = controller.epoch
        controller.degrade(2)
        assert controller.epoch == before + 1
        controller.restore()
        assert controller.epoch == before + 2
        for _ in range(controller.capacity):
            controller.admit_batch(1, shard=0)
        assert controller.epoch > before + 2


class TestDebt:
    def test_down_retarget_creates_debt_and_blocks_admits(self):
        controller = ShardedAdmissionController(8, disks=2, shards=4)
        controller.admit_batch(16)
        controller.degrade(3)  # capacity 6, live 16 -> debt 10
        assert controller.debt == 10
        assert controller.active == 16
        assert not controller.would_admit()
        with pytest.raises(AdmissionError):
            controller.admit()
        assert_invariant(controller)

    def test_releases_pay_debt_before_freeing_slots(self):
        controller = ShardedAdmissionController(8, disks=2, shards=4)
        controller.admit_batch(16)
        controller.degrade(3)
        for _ in range(10):
            controller.release()
            assert not controller.would_admit()
            assert_invariant(controller)
        assert controller.debt == 0
        assert controller.active == 6  # exactly at the new capacity
        with pytest.raises(AdmissionError):
            controller.admit()
        controller.release()
        controller.admit()  # real slack only once debt is paid
        assert controller.active == 6

    def test_restore_clears_debt(self):
        controller = ShardedAdmissionController(8, disks=2, shards=4)
        controller.admit_batch(16)
        controller.degrade(3)
        controller.restore()
        assert controller.debt == 0
        assert controller.capacity == 16
        assert not controller.degraded
        assert_invariant(controller)


class TestQuiescedOps:
    def test_admit_locked_picks_the_slackest_stripe(self):
        controller = ShardedAdmissionController(4, disks=2, shards=4)
        taken = []
        with controller.quiesced():
            for _ in range(controller.capacity):
                taken.append(controller.admit_locked())
            with pytest.raises(AdmissionError):
                controller.admit_locked()
        assert controller.active == controller.capacity
        assert set(taken) <= set(range(4))

    def test_release_locked_validates_the_stripe(self):
        controller = ShardedAdmissionController(4, shards=4)
        controller.admit_batch(2, shard=1)
        with controller.quiesced():
            controller.release_locked(1, 2)
            with pytest.raises(ConfigurationError):
                controller.release_locked(1, 1)
        assert controller.active == 0

    def test_release_on_callback_zero_means_untouched(self):
        controller = ShardedAdmissionController(4, shards=4)
        controller.admit_batch(1, shard=2)
        assert controller.release_on(2, on_release=lambda: 0) == 0
        assert controller.active == 1
        assert controller.release_on(2) == 1
        assert controller.active == 0

    def test_restore_state_locked_restripes_exactly(self):
        controller = ShardedAdmissionController(8, disks=2, shards=4)
        with controller.quiesced():
            controller.restore_state_locked(
                shard_actives=[5, 4, 4, 4], requests=20,
                rejections=3)
        assert controller.active == 17
        assert controller.requests == 20
        assert controller.rejections == 3
        assert controller.debt == 1  # 17 live vs capacity 16
        assert_invariant(controller)

    def test_restore_state_locked_validates_width(self):
        controller = ShardedAdmissionController(8, shards=4)
        with controller.quiesced():
            with pytest.raises(ConfigurationError, match="stripe"):
                controller.restore_state_locked(shard_actives=[1, 2])

    def test_compat_restore_state_spreads_evenly(self):
        controller = ShardedAdmissionController(8, disks=2, shards=4)
        controller.restore_state(active=10, requests=12, rejections=2)
        snap = assert_invariant(controller)
        assert snap["active"] == 10
        assert sorted(snap["shard_active"]) == [2, 2, 3, 3]


class TestCrossValidation:
    """Satellite: the sharded controller is behaviourally identical to
    the single-lock reference on the same operation sequence."""

    def drive(self, controller, script):
        decisions = []
        for op, arg in script:
            if op == "admit":
                try:
                    controller.admit()
                    decisions.append("grant")
                except AdmissionError:
                    decisions.append("reject")
            elif op == "release":
                try:
                    controller.release()
                    decisions.append("release")
                except ConfigurationError:
                    decisions.append("empty")
            elif op == "degrade":
                controller.degrade(arg)
                decisions.append(f"degrade:{arg}")
            elif op == "restore":
                controller.restore()
                decisions.append("restore")
        return decisions

    def make_script(self, rng, length=400):
        ops = []
        for _ in range(length):
            roll = rng.random()
            if roll < 0.55:
                ops.append(("admit", None))
            elif roll < 0.9:
                ops.append(("release", None))
            elif roll < 0.95:
                ops.append(("degrade", rng.randint(0, 6)))
            else:
                ops.append(("restore", None))
        return ops

    @pytest.mark.parametrize("seed", [7, 23, 1997])
    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_same_decisions_as_legacy(self, seed, shards):
        script = self.make_script(random.Random(seed))
        legacy = AdmissionController(6, disks=3)
        sharded = ShardedAdmissionController(6, disks=3,
                                             shards=shards)
        assert (self.drive(sharded, script)
                == self.drive(legacy, script))
        assert sharded.active == legacy.active
        assert sharded.requests == legacy.requests
        assert sharded.rejections == legacy.rejections
        assert sharded.degraded == legacy.degraded
        assert_invariant(sharded)

    def test_concurrent_totals_match_accounting(self):
        """8 threads hammer admit/release while a flipper retargets:
        the live count may never exceed capacity + debt, and the final
        totals must equal the per-thread accounting."""
        controller = ShardedAdmissionController(7, disks=8, shards=8)
        capacity = controller.capacity
        stop = threading.Event()
        tallies = []

        def churner(seed):
            rng = random.Random(seed)
            grants = releases = 0
            while not stop.is_set():
                if rng.random() < 0.6:
                    try:
                        got = controller.admit_batch(
                            rng.randint(1, 4))
                        grants += got
                    except AdmissionError:
                        pass
                else:
                    try:
                        controller.release()
                        releases += 1
                    except ConfigurationError:
                        pass
            tallies.append((grants, releases))

        def flipper():
            toggle = False
            while not stop.is_set():
                if toggle:
                    controller.degrade(3)
                else:
                    controller.restore()
                toggle = not toggle
                snap = controller.snapshot()
                assert snap["active"] <= (snap["capacity"]
                                          + snap["debt"])

        pool = [threading.Thread(target=churner, args=(seed,))
                for seed in range(8)]
        pool.append(threading.Thread(target=flipper))
        for thread in pool:
            thread.start()
        threading.Event().wait(0.3)
        stop.set()
        for thread in pool:
            thread.join()
        controller.restore()
        grants = sum(g for g, _ in tallies)
        releases = sum(r for _, r in tallies)
        assert controller.active == grants - releases
        assert 0 <= controller.active <= capacity
        snap = assert_invariant(controller)
        assert snap["requests"] >= grants
        # Drain: every admitted stream can be released, then empty.
        for _ in range(controller.active):
            controller.release()
        assert controller.active == 0


class TestSnapshot:
    def test_snapshot_is_a_superset_of_legacy(self):
        legacy = AdmissionController(5, disks=2)
        sharded = ShardedAdmissionController(5, disks=2, shards=4)
        for controller in (legacy, sharded):
            controller.admit()
            controller.admit()
        legacy_snap = legacy.snapshot()
        sharded_snap = sharded.snapshot()
        for key, value in legacy_snap.items():
            assert sharded_snap[key] == value, key
        for key in ("shards", "epoch", "debt", "rebalances",
                    "shard_active", "shard_limit"):
            assert key in sharded_snap


class TestLegacyThreshold:
    """Satellite: the single-lock controller's float ceil test became
    a precomputed integer threshold -- pin the admit/reject sequence
    around every retarget so the arithmetic can never drift."""

    def test_pinned_sequence_across_degrade_restore(self):
        controller = AdmissionController(2, disks=2)  # capacity 4
        outcomes = []

        def admit():
            try:
                controller.admit()
                outcomes.append("grant")
            except AdmissionError:
                outcomes.append("reject")

        for _ in range(5):
            admit()                      # 4 grants, then reject
        controller.degrade(1)            # capacity 2, live 4
        admit()                          # reject: over the new limit
        controller.release()
        controller.release()
        admit()                          # reject: live 2 == limit 2
        controller.release()
        admit()                          # grant: live 1 < limit 2
        controller.restore()             # capacity back to 4
        admit()                          # grant
        admit()                          # grant
        admit()                          # reject at 4
        assert outcomes == ["grant", "grant", "grant", "grant",
                            "reject", "reject", "reject", "grant",
                            "grant", "grant", "reject"]

    def test_threshold_recomputed_on_retarget(self):
        controller = AdmissionController(3, disks=4)
        assert controller._active_limit == 12
        controller.degrade(1)
        assert controller._active_limit == 4
        controller.restore()
        assert controller._active_limit == 12
        controller.resize(5)
        assert controller._active_limit == 20
        controller.resize(disks=2)
        assert controller._active_limit == 10

    def test_degraded_resize_defers_to_restore(self):
        controller = AdmissionController(4, disks=2)
        controller.degrade(2)
        controller.resize(6)  # new healthy point, still degraded
        assert controller._active_limit == 4
        controller.restore()
        assert controller.n_max_per_disk == 6
        assert controller._active_limit == 12
