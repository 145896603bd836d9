"""Tests of the bound cache: fingerprints, memoized bisection, the
cached-vs-uncached / probe-count contracts of the admission pipeline,
and the persistent on-disk layer (round-trips, corruption tolerance,
cross-process reuse)."""

import inspect
import json
import os
import sqlite3
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import cache
from repro.cache import (
    CACHE_DIR_ENV,
    BoundCache,
    PersistentCache,
    bisect_max_n,
    cache_disabled,
    cache_stats,
    canonical_threshold,
    clear_cache,
    default_cache_dir,
    fingerprint,
    get_persistent_cache,
    instance_fingerprint,
    persistent_cache_enabled,
)
from repro.core import (
    GlitchModel,
    RoundServiceTimeModel,
    n_max_perror,
    n_max_plate,
)
from repro.core.chernoff import ChernoffResult
from repro.distributions import (
    Deterministic,
    Empirical,
    Gamma,
    LogNormal,
    Mixture,
    Pareto,
    Truncated,
    Uniform,
)
from repro.errors import ConfigurationError


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def _call_public_methods(law) -> set[str]:
    """Call every public instance method and read every public property
    of ``law`` once, with an argument chosen by parameter name; returns
    the names called.  Calls the law refuses (no MGF, say) still count:
    they must not touch the fingerprint either."""
    theta = 0.5 * min(law.theta_sup, 1.0) if law.has_mgf() else 0.0
    arguments = {"x": law.mean(), "q": 0.5, "k": 2, "theta": theta,
                 "rng": np.random.default_rng(0), "size": 4}
    called = set()
    for name in dir(law):
        if name.startswith("_"):
            continue
        static = inspect.getattr_static(law, name)
        if isinstance(static, (classmethod, staticmethod)):
            continue  # constructors: they build a new law
        called.add(name)
        try:
            value = getattr(law, name)  # a property: this is the call
            if callable(value):
                args = [arguments[param] for param in
                        inspect.signature(value).parameters]
                if name == "log_mgf_array":
                    args = [np.array([0.0, theta])]
                value(*args)
        except repro.errors.ReproError:
            pass
    return called


class TestFingerprint:
    def test_stable_across_calls(self):
        args = ("model", 1.5, np.array([1.0, 2.0]), {"a": 1})
        assert fingerprint(*args) == fingerprint(*args)

    def test_distinguishes_values(self):
        assert fingerprint("m", 1.5) != fingerprint("m", 1.5000001)
        assert fingerprint("m", 1) != fingerprint("m", 1.0)
        assert fingerprint("m", True) != fingerprint("m", 1)

    def test_distinguishes_array_contents(self):
        a = np.array([1.0, 2.0, 3.0])
        b = a.copy()
        b[1] = 2.0000001
        assert fingerprint(a) != fingerprint(b)
        assert fingerprint(a) == fingerprint(a.copy())

    def test_equal_models_share_fingerprint(self, viking, paper_sizes):
        m1 = RoundServiceTimeModel.for_disk(viking, paper_sizes)
        m2 = RoundServiceTimeModel.for_disk(viking, paper_sizes)
        assert m1.fingerprint == m2.fingerprint

    def test_different_workloads_differ(self, viking, paper_sizes,
                                        viking_single_zone):
        m1 = RoundServiceTimeModel.for_disk(viking, paper_sizes)
        m2 = RoundServiceTimeModel.for_disk(viking_single_zone,
                                            paper_sizes)
        assert m1.fingerprint != m2.fingerprint

    @pytest.mark.parametrize("make", [
        lambda: Gamma(2.0, 3.0),
        lambda: LogNormal(0.5, 0.8),
        lambda: Pareto(1.0, 3.0),
        lambda: Uniform(0.5, 2.0),
        lambda: Deterministic(1.5),
        lambda: Truncated(LogNormal(0.5, 0.8), 0.1, 9.0),
        lambda: Empirical([0.4, 1.0, 1.3, 2.2, 3.1]),
        lambda: Mixture([(0.3, Gamma(2.0, 1.0)), (0.7, Uniform(0.5, 2.0))]),
    ])
    def test_law_fingerprint_ignores_scipy_use(self, make):
        # pdf/cdf/ppf reach scipy, and any method could cache a value
        # on the instance; either would change the fingerprint (and so
        # every persistent-store key and snapshot config key) the first
        # time the method runs.  Every public method of every law in
        # repro.distributions is called once.
        law = make()
        before = fingerprint(law)
        called = _call_public_methods(law)
        assert {"pdf", "cdf", "ppf", "sf", "sample", "mean", "var",
                "log_mgf", "log_mgf_array"} <= called
        assert fingerprint(law) == before == fingerprint(make())

    def test_instance_fingerprint_unique(self):
        assert (instance_fingerprint("x")
                != instance_fingerprint("x"))


class TestCanonicalThreshold:
    def test_absorbs_arithmetic_noise(self):
        assert canonical_threshold(0.01) == canonical_threshold(
            0.1 * 0.1)
        assert canonical_threshold(0.01) == 0.01

    def test_distinguishes_real_differences(self):
        assert canonical_threshold(0.01) != canonical_threshold(0.011)


class TestBoundCache:
    def test_hit_miss_accounting(self):
        c = BoundCache()
        calls = []
        for _ in range(3):
            c.get_or_compute("k", lambda: calls.append(1) or 42)
        assert len(calls) == 1
        assert c.stats.misses == 1
        assert c.stats.hits == 2

    def test_disabled_context_bypasses(self):
        calls = []

        def compute():
            calls.append(1)
            return 7

        cache.get_cache().get_or_compute("k", compute)
        with cache_disabled():
            cache.get_cache().get_or_compute("k", compute)
        assert len(calls) == 2
        assert cache_stats().uncached == 1


class TestBisectMaxN:
    def test_matches_full_scan_on_monotone(self):
        for boundary in (0, 1, 5, 99, 100):
            pred = lambda n, b=boundary: n <= b
            assert (bisect_max_n(pred, 100)
                    == bisect_max_n(pred, 100, full_scan=True))

    def test_probe_count_logarithmic(self):
        probes = []
        boundary = 37
        n_cap = 4096

        def pred(n):
            probes.append(n)
            return n <= boundary

        assert bisect_max_n(pred, n_cap) == boundary
        # Exponential search + bisection: O(log n_cap) probes, each n
        # probed at most once thanks to the memo.
        assert len(set(probes)) == len(probes)
        assert len(probes) <= 4 * int(np.log2(n_cap))

    def test_verify_above_detects_non_monotone(self):
        # Predicate true on [1, 10] and again on [50, 60]: the plain
        # bisection stops at 10; verification probes above must detect
        # the island and fall back to the exhaustive answer 60.
        pred = lambda n: n <= 10 or 50 <= n <= 60
        assert bisect_max_n(pred, 100) == 10
        assert bisect_max_n(pred, 100, verify_above=8) == 60
        assert bisect_max_n(pred, 100, full_scan=True) == 60


class TestAdmissionCaching:
    def test_exact_flag_agrees_with_bisection(self, viking,
                                              paper_sizes):
        model = RoundServiceTimeModel.for_disk(viking, paper_sizes)
        glitch = GlitchModel(model, 1.0)
        assert (n_max_plate(model, 1.0, 0.01)
                == n_max_plate(model, 1.0, 0.01, exact=True) == 26)
        assert (n_max_perror(glitch, 1200, 12, 0.01)
                == n_max_perror(glitch, 1200, 12, 0.01, exact=True)
                == 28)

    def test_cached_equals_uncached(self, viking, paper_sizes):
        model = RoundServiceTimeModel.for_disk(viking, paper_sizes)
        cached = n_max_plate(model, 1.0, 0.01)
        clear_cache()
        with cache_disabled():
            uncached = n_max_plate(model, 1.0, 0.01)
        assert cached == uncached

    def test_plate_scan_optimisation_count(self, viking, paper_sizes,
                                           monkeypatch):
        # Perf contract: one n_max_plate solve triggers at most
        # O(log n_cap) Chernoff optimisations.
        import repro.core.chernoff as chernoff_mod
        import repro.core.service_time as st_mod

        calls = []
        real = chernoff_mod.chernoff_tail_bound

        def counting(logmgf, t):
            calls.append(t)
            return real(logmgf, t)

        monkeypatch.setattr(st_mod, "chernoff_tail_bound", counting)
        model = RoundServiceTimeModel.for_disk(viking, paper_sizes)
        n_cap = 512
        assert n_max_plate(model, 1.0, 0.01, n_cap=n_cap) == 26
        budget = 4 * int(np.log2(n_cap))
        assert len(calls) <= budget, (
            f"{len(calls)} optimisations for one solve "
            f"(budget {budget})")

    def test_table_rebuild_is_free(self, viking, paper_sizes):
        from repro.core import AdmissionTable

        model = RoundServiceTimeModel.for_disk(viking, paper_sizes)
        table = AdmissionTable(GlitchModel(model, 1.0), m=1200, g=12)
        table.build(plate_thresholds=(0.001, 0.01, 0.1))
        misses_after_build = cache_stats().misses
        # A second model instance over the same configuration reuses
        # every cached optimisation (content-addressed fingerprint).
        model2 = RoundServiceTimeModel.for_disk(viking, paper_sizes)
        table2 = AdmissionTable(GlitchModel(model2, 1.0), m=1200, g=12)
        table2.build(plate_thresholds=(0.001, 0.01, 0.1))
        assert cache_stats().misses == misses_after_build
        assert table2.entries() == table.entries()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            bisect_max_n(lambda n: True, 0)

    def test_verify_above_noop_on_monotone(self):
        probes = []

        def pred(n):
            probes.append(n)
            return n <= 20

        assert bisect_max_n(pred, 200, verify_above=3) == 20
        # The extra probes must not degrade into a full scan.
        assert len(probes) <= 4 * int(np.log2(200)) + 3

    def test_full_scan_handles_false_at_one(self):
        pred = lambda n: 5 <= n <= 7
        assert bisect_max_n(pred, 10) == 0  # prefix assumption
        assert bisect_max_n(pred, 10, full_scan=True) == 7


@pytest.fixture
def isolated_store(tmp_path):
    """Point the process-global persistent layer at a throwaway dir and
    restore the session-scoped store afterwards."""
    store = cache.set_persistent_cache_dir(tmp_path)
    yield store
    cache.reset_persistent_cache()


class TestPersistentCache:
    def test_scalar_roundtrip(self, tmp_path):
        store = PersistentCache(tmp_path)
        assert store.get("key-a") is None
        assert store.put("key-a", 1.5)
        assert store.get("key-a") == 1.5
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.writes == 1

    def test_chernoff_result_roundtrip_exact(self, tmp_path):
        store = PersistentCache(tmp_path)
        value = ChernoffResult(bound=0.008431772015845197,
                               log_bound=-4.775742373093779,
                               theta=13.425323441, t=1.0)
        store.put("cr", value)
        # Reopen to force a real disk read, not any in-memory state.
        store.close()
        again = PersistentCache(tmp_path).get("cr")
        assert isinstance(again, ChernoffResult)
        assert again == value  # bit-exact float round-trip

    def test_wal_with_normal_sync(self, tmp_path):
        # A commit per solve must not pay an fsync; WAL keeps the store
        # consistent without it.
        store = PersistentCache(tmp_path)
        store.put("k", 1.0)
        with store._lock:
            conn = store._connect()
            assert conn.execute(
                "PRAGMA journal_mode").fetchone()[0] == "wal"
            assert conn.execute(
                "PRAGMA synchronous").fetchone()[0] == 1  # NORMAL

    def test_unpersistable_values_are_skipped(self, tmp_path):
        store = PersistentCache(tmp_path)
        assert not store.put("arr", np.arange(3))
        assert store.entry_count() == 0

    def test_entry_count_and_clear(self, tmp_path):
        store = PersistentCache(tmp_path)
        store.put("a", 1.0)
        store.put("b", 2.0)
        assert store.entry_count() == 2
        assert store.clear() == 2
        assert store.entry_count() == 0
        assert store.get("a") is None

    def test_corrupt_file_recovers(self, tmp_path):
        path = tmp_path / "bounds.sqlite"
        path.write_bytes(b"this is not a sqlite database ")
        store = PersistentCache(tmp_path)
        assert store.get("k") is None  # must not raise
        assert store.put("k", 3.0)
        assert store.get("k") == 3.0

    def test_corrupt_row_evicted(self, tmp_path):
        store = PersistentCache(tmp_path)
        store.put("good", 1.0)
        store.close()
        with sqlite3.connect(tmp_path / "bounds.sqlite") as conn:
            conn.execute(
                "INSERT INTO bounds VALUES ('bad', 'not json', 0)")
            conn.execute(
                "INSERT INTO bounds VALUES ('foreign', ?, 0)",
                (json.dumps({"kind": "dataclass", "module": "os.path",
                             "name": "PurePath", "fields": {}}),))
            conn.commit()
        reopened = PersistentCache(tmp_path)
        assert reopened.get("bad") is None
        assert reopened.get("foreign") is None  # non-repro type refused
        assert reopened.get("good") == 1.0
        # Corrupt rows are evicted on first touch, not left to fail
        # forever.
        assert reopened.entry_count() == 1

    def test_schema_version_mismatch_drops_entries(self, tmp_path):
        store = PersistentCache(tmp_path)
        store.put("k", 9.0)
        store.close()
        with sqlite3.connect(tmp_path / "bounds.sqlite") as conn:
            conn.execute("UPDATE meta SET value='999' "
                         "WHERE key='schema_version'")
            conn.commit()
        reopened = PersistentCache(tmp_path)
        assert reopened.get("k") is None
        assert reopened.entry_count() == 0

    def test_env_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERSISTENT_CACHE", "0")
        assert not persistent_cache_enabled()
        assert get_persistent_cache() is None
        monkeypatch.setenv("REPRO_PERSISTENT_CACHE", "1")
        assert persistent_cache_enabled()


class TestPreload:
    """Warm-start bulk load for the `repro serve` daemon."""

    def test_preload_serves_hits_without_sqlite(self, tmp_path):
        store = PersistentCache(tmp_path)
        store.put("a", 1.0)
        store.put("b", 2.0)
        store.close()
        reopened = PersistentCache(tmp_path)
        assert reopened.preload() == 2
        assert reopened.stats.preloaded == 2
        # Break the underlying file: preloaded reads must still work,
        # proving the hot path no longer touches sqlite.
        reopened._broken = True
        assert reopened.get("a") == 1.0
        assert reopened.get("b") == 2.0
        assert reopened.stats.hits == 2

    def test_preload_limit_keeps_most_recently_accessed(self, tmp_path):
        store = PersistentCache(tmp_path)
        for i in range(6):
            store.put(f"k{i}", float(i))
        store.get("k1")  # freshen k1's last_access past the others'
        assert store.preload(limit=1) == 1
        store._broken = True
        assert store.get("k1") == 1.0
        with pytest.raises(ConfigurationError):
            store.preload(limit=0)

    def test_put_keeps_preloaded_view_coherent(self, tmp_path):
        store = PersistentCache(tmp_path)
        store.put("a", 1.0)
        store.preload()
        store.put("fresh", 9.0)
        store._broken = True
        assert store.get("fresh") == 9.0
        assert store.get("a") == 1.0

    def test_clear_drops_preloaded_view(self, tmp_path):
        store = PersistentCache(tmp_path)
        store.put("a", 1.0)
        store.preload()
        store.clear()
        assert store.get("a") is None

    def test_preload_skips_corrupt_rows(self, tmp_path):
        store = PersistentCache(tmp_path)
        store.put("good", 1.0)
        store.close()
        with sqlite3.connect(tmp_path / "bounds.sqlite") as conn:
            conn.execute(
                "INSERT INTO bounds VALUES ('bad', 'not json', 0)")
            conn.commit()
        reopened = PersistentCache(tmp_path)
        assert reopened.preload() == 1
        assert reopened.stats.errors == 1
        assert reopened.get("good") == 1.0

    def test_preload_on_missing_store_is_empty(self, tmp_path):
        store = PersistentCache(tmp_path / "nothing-here")
        assert store.preload() == 0
        assert store.get("x") is None

    def test_dataclass_values_preload_decoded(self, tmp_path):
        store = PersistentCache(tmp_path)
        value = ChernoffResult(bound=0.01, log_bound=-4.6,
                               theta=13.4, t=1.0)
        store.put("cr", value)
        store.close()
        reopened = PersistentCache(tmp_path)
        reopened.preload()
        reopened._broken = True
        assert reopened.get("cr") == value

    def test_cache_dir_env_resolution(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"


class TestGracefulDegradation:
    """An unusable store location must never crash an admission solve:
    the persistent layer warns once, disables itself for the process,
    and the in-memory cache carries on."""

    @staticmethod
    def _file_blocked_store(tmp_path):
        # REPRO_CACHE_DIR pointing at an existing *file*: mkdir fails,
        # and so does the recovery attempt.  (Permission-bit scenarios
        # are simulated separately -- root ignores directory modes.)
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("occupied", encoding="utf-8")
        return PersistentCache(blocker)

    def test_blocked_location_degrades_to_noop(self, tmp_path):
        store = self._file_blocked_store(tmp_path)
        with pytest.warns(RuntimeWarning,
                          match="falling back to the in-memory cache"):
            assert store.get("k") is None
        assert store.put("k", 1.0) is False
        assert store.get("k") is None
        assert store.entry_count() == 0
        assert store.clear() == 0
        assert store.stats.errors >= 2  # first failure + retry failure

    def test_warns_exactly_once_per_process(self, tmp_path):
        store = self._file_blocked_store(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store.get("a")
            store.put("b", 2.0)
            store.entry_count()
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1

    def test_permission_denied_degrades(self, tmp_path, monkeypatch):
        # The read-only-directory / disk-full shape: opening the sqlite
        # file raises an OSError both times.
        store = PersistentCache(tmp_path / "denied")

        def deny(self):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(PersistentCache, "_open", deny)
        with pytest.warns(RuntimeWarning, match="PermissionError"):
            assert store.put("k", 1.0) is False
        assert store.get("k") is None

    def test_layered_cache_still_computes(self, tmp_path):
        blocker = tmp_path / "cache-as-file"
        blocker.write_text("occupied", encoding="utf-8")
        cache.set_persistent_cache_dir(blocker)
        try:
            layered = BoundCache(use_persistent=True)
            key = ("b_late", "fp-degraded", 5, (1.0).hex())
            with pytest.warns(RuntimeWarning):
                assert layered.get_or_compute(key, lambda: 0.125) == 0.125
            # The in-memory layer is intact: hit, no recompute, no
            # further warnings.
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert layered.get_or_compute(key, lambda: -1.0) == 0.125
            assert layered.stats.hits == 1
        finally:
            cache.reset_persistent_cache()

    def test_admission_solve_survives_broken_store(self, tmp_path,
                                                   viking, paper_sizes):
        blocker = tmp_path / "cache-as-file"
        blocker.write_text("occupied", encoding="utf-8")
        cache.set_persistent_cache_dir(blocker)
        try:
            model = RoundServiceTimeModel.for_disk(viking, paper_sizes)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert n_max_plate(model, 1.0, 0.01) == 26
        finally:
            cache.reset_persistent_cache()


class TestLayeredBoundCache:
    KEY = ("b_late", "fp-layered-test", 7, "0x1.0p+0")

    def test_write_through_and_disk_hit(self, isolated_store):
        calls = []

        def compute():
            calls.append(1)
            return 0.25

        first = BoundCache(use_persistent=True)
        assert first.get_or_compute(self.KEY, compute) == 0.25
        assert first.stats.misses == 1
        assert isolated_store.entry_count() == 1

        # A fresh in-process cache (new process, conceptually) answers
        # from disk without recomputing.
        second = BoundCache(use_persistent=True)
        assert second.get_or_compute(self.KEY, compute) == 0.25
        assert len(calls) == 1
        assert second.stats.misses == 0
        assert second.stats.disk_hits == 1
        # And the disk hit now lives in memory: third lookup is a pure
        # memory hit.
        assert second.get_or_compute(self.KEY, compute) == 0.25
        assert second.stats.hits == 1

    def test_instance_keys_never_persisted(self, isolated_store):
        key = (instance_fingerprint("numeric-term"), 3)
        c = BoundCache(use_persistent=True)
        c.get_or_compute(key, lambda: 1.0)
        assert isolated_store.entry_count() == 0
        fresh = BoundCache(use_persistent=True)
        calls = []
        fresh.get_or_compute(key, lambda: calls.append(1) or 1.0)
        assert calls  # recomputed: lifetime-scoped keys stay local

    def test_non_persistent_cache_leaves_disk_alone(self,
                                                    isolated_store):
        c = BoundCache()
        c.get_or_compute(self.KEY, lambda: 4.0)
        assert isolated_store.entry_count() == 0

    def test_clear_cache_keeps_disk(self, isolated_store):
        c = BoundCache(use_persistent=True)
        c.get_or_compute(self.KEY, lambda: 0.5)
        c.clear()
        assert isolated_store.entry_count() == 1
        assert c.get_or_compute(self.KEY, lambda: -1.0) == 0.5
        assert c.stats.disk_hits == 1


_RESTART_SCRIPT = """\
import json
from repro.cache import cache_stats
from repro.core import RoundServiceTimeModel, n_max_plate
from repro.disk import quantum_viking_2_1
from repro.workload import paper_fragment_sizes

model = RoundServiceTimeModel.for_disk(quantum_viking_2_1(),
                                       paper_fragment_sizes())
assert n_max_plate(model, 1.0, 0.01) == 26
stats = cache_stats()
print(json.dumps({"misses": stats.misses,
                  "disk_hits": stats.disk_hits}))
"""


class TestCrossProcessReuse:
    def test_restarted_process_solves_nothing(self, tmp_path):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env[CACHE_DIR_ENV] = str(tmp_path)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def build():
            proc = subprocess.run(
                [sys.executable, "-c", _RESTART_SCRIPT],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.strip().splitlines()[-1])

        cold = build()
        warm = build()
        assert cold["misses"] > 0
        assert cold["disk_hits"] == 0
        assert warm["misses"] == 0, (
            "warm restart must answer every probe from disk")
        assert warm["disk_hits"] > 0


class TestLRUEviction:
    """The persistent store is bounded: inserts past ``max_entries``
    evict the least-recently-*accessed* rows (gets refresh recency, so
    hot bounds survive cold ones regardless of insertion order)."""

    def test_capacity_is_enforced_on_put(self, tmp_path):
        store = PersistentCache(tmp_path, max_entries=5)
        for index in range(8):
            store.put(f"k{index}", float(index))
        assert store.entry_count() == 5
        assert store.stats.evictions == 3

    def test_eviction_is_least_recently_accessed(self, tmp_path):
        store = PersistentCache(tmp_path, max_entries=5)
        for index in range(5):
            store.put(f"k{index}", float(index))
        # Touch the oldest insert: k0 becomes the most recent access,
        # so the next eviction must fall on k1 instead.
        assert store.get("k0") == 0.0
        store.put("k5", 5.0)
        assert store.get("k0") == 0.0
        assert store.get("k1") is None
        assert store.stats.evictions == 1

    def test_overwrite_does_not_evict(self, tmp_path):
        store = PersistentCache(tmp_path, max_entries=2)
        store.put("a", 1.0)
        store.put("b", 2.0)
        store.put("a", 3.0)  # replace, not insert
        assert store.entry_count() == 2
        assert store.stats.evictions == 0
        assert store.get("a") == 3.0
        assert store.get("b") == 2.0

    def test_recency_survives_reopen(self, tmp_path):
        store = PersistentCache(tmp_path, max_entries=3)
        for index in range(3):
            store.put(f"k{index}", float(index))
        assert store.get("k0") == 0.0
        store.close()
        reopened = PersistentCache(tmp_path, max_entries=3)
        reopened.put("k3", 3.0)
        assert reopened.get("k0") == 0.0  # touched before the restart
        assert reopened.get("k1") is None

    def test_v1_schema_rebuilds_cleanly(self, tmp_path):
        """A pre-LRU (schema v1, two-column) database is dropped and
        rebuilt rather than half-migrated."""
        path = tmp_path / "bounds.sqlite"
        with sqlite3.connect(path) as conn:
            conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, "
                         "value TEXT NOT NULL)")
            conn.execute("INSERT INTO meta VALUES ('schema_version', '1')")
            conn.execute("CREATE TABLE bounds (key TEXT PRIMARY KEY, "
                         "value TEXT NOT NULL)")
            conn.execute("INSERT INTO bounds VALUES ('old', '1.0')")
            conn.commit()
        store = PersistentCache(tmp_path)
        assert store.get("old") is None
        assert store.put("new", 2.0)
        assert store.get("new") == 2.0

    def test_max_entries_validated(self, tmp_path):
        with pytest.raises(ConfigurationError):
            PersistentCache(tmp_path, max_entries=0)
