"""Memoization layer for the analytic admission pipeline.

Admission scans evaluate the same Chernoff optimisations over and over:
``n_max_plate`` probes ``b_late(n, t)`` for many ``n``, ``b_glitch``
sums ``b_late(k, t)`` over ``k <= n``, and §5 lookup-table builds repeat
both for a grid of tolerance thresholds.  The paper's remedy is
precomputation ("we suggest using a lookup table with precomputed
values of N_max"); this module supplies the machinery:

- :func:`fingerprint` -- a stable content hash of model parameters
  (disk spec + fragment-law params + ``t``), so results can be shared
  across model *instances* built from the same configuration.
- :class:`BoundCache` / :func:`get_cache` -- a process-wide memo of
  ``ChernoffResult`` values keyed by ``(model fingerprint, n, t)``,
  with hit/miss statistics and a kill switch (CLI ``--no-cache``).
- :class:`PersistentCache` -- an on-disk (sqlite) store layered under
  the in-process memo, so ``AdmissionTable`` builds and
  ``bisect_max_n`` probes warm-start across process restarts and pool
  workers (the §5 operations story: an admission server answering
  ``N_max`` queries at interactive latency from a warm cache).  Keyed
  by the same content fingerprints, versioned, corruption-tolerant;
  location from ``REPRO_CACHE_DIR`` (default ``~/.cache/repro``),
  disabled with ``REPRO_PERSISTENT_CACHE=0``; inspected with the
  ``repro cache {stats,clear,path}`` CLI.
- :func:`bisect_max_n` -- the monotone threshold search used by the
  ``N_max`` solvers: exponential search plus bisection, O(log n_cap)
  predicate probes instead of a linear scan, with a documented
  full-scan fallback for non-monotone predicates.

Everything here avoids importing other ``repro`` modules beyond
:mod:`repro.errors` and the stdlib-only :mod:`repro.obs` layer, so
that ``repro.core`` can import it without cycles; persisted dataclass
values are resolved lazily by module path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import os
import sqlite3
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import get_tracer

__all__ = [
    "fingerprint",
    "instance_fingerprint",
    "canonical_threshold",
    "CacheStats",
    "BoundCache",
    "get_cache",
    "clear_cache",
    "cache_stats",
    "set_cache_enabled",
    "cache_disabled",
    "PersistentCache",
    "PersistentCacheStats",
    "default_cache_dir",
    "persistent_cache_enabled",
    "get_persistent_cache",
    "set_persistent_cache_dir",
    "reset_persistent_cache",
    "publish_cache_metrics",
    "bisect_max_n",
]


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------

def _canonical(obj) -> str:
    """Deterministic, collision-resistant text encoding of a parameter
    bundle.  Floats are encoded exactly (``float.hex``) so nearby but
    distinct configurations never alias."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return repr(obj)
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, np.floating):
        return float(obj).hex()
    if isinstance(obj, np.integer):
        return repr(int(obj))
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha1(np.ascontiguousarray(obj).tobytes())
        return f"ndarray({obj.dtype},{obj.shape},{digest.hexdigest()})"
    if isinstance(obj, (tuple, list)):
        inner = ",".join(_canonical(x) for x in obj)
        return f"[{inner}]"
    if isinstance(obj, dict):
        inner = ",".join(
            f"{_canonical(k)}:{_canonical(v)}"
            for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0])))
        return f"{{{inner}}}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        inner = ",".join(
            f"{f.name}={_canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj) if f.compare)
        return f"{type(obj).__name__}({inner})"
    if hasattr(obj, "__dict__"):
        inner = ",".join(
            f"{name}={_canonical(value)}"
            for name, value in sorted(vars(obj).items())
            if not callable(value))
        return f"{type(obj).__name__}({inner})"
    return repr(obj)


def fingerprint(*parts) -> str:
    """Stable hash of a heterogeneous parameter bundle.

    Two calls with equal (by content) parts return the same string in
    any process on any platform; use it to key cached results by model
    configuration rather than object identity.
    """
    payload = ";".join(_canonical(p) for p in parts)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


_INSTANCE_COUNTER = itertools.count()
_INSTANCE_LOCK = threading.Lock()


def instance_fingerprint(tag: str) -> str:
    """A fingerprint unique to one object lifetime.

    Fallback for models built from opaque callables (e.g. a custom
    ``seek_bound``): caching still works for the instance itself but is
    never shared across instances, which is the only safe default when
    the configuration cannot be hashed.
    """
    with _INSTANCE_LOCK:
        serial = next(_INSTANCE_COUNTER)
    return f"instance:{tag}:{serial}"


def canonical_threshold(value: float) -> float:
    """Canonical dict-key representation of a tolerance threshold.

    Thresholds arrive as floats from CLI parsing, YAML-ish configs and
    arithmetic (``1 - 0.99``); keying lookup tables on the raw bits
    makes ``0.01`` and ``0.010000000000000002`` distinct entries.  We
    round to 12 significant digits -- far below any meaningful
    tolerance resolution, far above double-precision noise.
    """
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ConfigurationError(
            f"threshold must be a finite number, got {value!r}")
    return float(f"{float(value):.12g}")


# ----------------------------------------------------------------------
# The persistent (on-disk) layer
# ----------------------------------------------------------------------

#: Bump when the row encoding changes; a mismatched store is dropped and
#: rebuilt rather than misread.  v2 added the ``last_access`` column
#: backing LRU eviction (v1 stores are rebuilt -- they only ever held
#: recomputable bound values).
SCHEMA_VERSION = 2

#: Default row capacity of the on-disk store; beyond it the
#: least-recently-*accessed* entries are evicted on write.  Sized so a
#: store serving many admission sweeps stays a few tens of MB.
DEFAULT_PERSISTENT_MAX_ENTRIES = 100_000

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
PERSISTENT_CACHE_ENV = "REPRO_PERSISTENT_CACHE"

_DB_FILENAME = "bounds.sqlite"


def default_cache_dir() -> Path:
    """Resolve the on-disk cache directory.

    ``REPRO_CACHE_DIR`` wins; otherwise ``$XDG_CACHE_HOME/repro`` or
    ``~/.cache/repro``.
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def persistent_cache_enabled() -> bool:
    """False when ``REPRO_PERSISTENT_CACHE`` is 0/false/off/no."""
    raw = os.environ.get(PERSISTENT_CACHE_ENV, "1").strip().lower()
    return raw not in ("0", "false", "off", "no")


def _encode_value(value) -> str | None:
    """JSON payload for a cacheable value, or ``None`` if the type is
    not persistable (such values stay memory-only).

    Supported: JSON scalars, and flat dataclasses (scalar fields only)
    such as :class:`repro.core.chernoff.ChernoffResult` -- encoded with
    their import path so this module never has to import them.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return json.dumps({"kind": "scalar", "value": value})
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {}
        for f in dataclasses.fields(value):
            member = getattr(value, f.name)
            if not (member is None
                    or isinstance(member, (bool, int, float, str))):
                return None
            fields[f.name] = member
        cls = type(value)
        if "." in cls.__qualname__:  # nested class: not importable by name
            return None
        return json.dumps({"kind": "dataclass", "module": cls.__module__,
                           "name": cls.__qualname__, "fields": fields})
    return None


def _decode_value(payload: str):
    """Inverse of :func:`_encode_value`; raises on any malformed or
    suspicious payload (callers treat that as a corrupt entry)."""
    data = json.loads(payload)
    kind = data["kind"]
    if kind == "scalar":
        return data["value"]
    if kind == "dataclass":
        module = str(data["module"])
        if not module.startswith("repro."):
            raise ValueError(f"refusing to import {module!r}")
        cls = getattr(importlib.import_module(module), str(data["name"]))
        if not dataclasses.is_dataclass(cls):
            raise ValueError(f"{module}.{data['name']} is not a dataclass")
        return cls(**data["fields"])
    raise ValueError(f"unknown payload kind {kind!r}")


def _persistable_key(key) -> bool:
    """True when ``key`` survives a round-trip to another process.

    Keys containing an :func:`instance_fingerprint` token are rejected:
    the serial number is unique to one object lifetime, so persisting it
    could only ever produce dead entries (or, across restarts, false
    hits on a different opaque model).
    """
    if isinstance(key, str):
        return not key.startswith("instance:")
    if key is None or isinstance(key, (bool, int, float)):
        return True
    if isinstance(key, tuple):
        return all(_persistable_key(part) for part in key)
    return False


@dataclass
class PersistentCacheStats:
    """Counters of one process's traffic to a :class:`PersistentCache`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0
    #: Rows dropped by the LRU policy to stay under ``max_entries``.
    evictions: int = 0
    #: Rows bulk-loaded into memory by :meth:`PersistentCache.preload`.
    preloaded: int = 0

    def snapshot(self) -> "PersistentCacheStats":
        """Independent copy of the counters at this instant."""
        return PersistentCacheStats(hits=self.hits, misses=self.misses,
                                    writes=self.writes,
                                    errors=self.errors,
                                    evictions=self.evictions,
                                    preloaded=self.preloaded)


class PersistentCache:
    """Fingerprint-keyed on-disk store for bound-cache values.

    A single sqlite file (WAL mode, so pool workers and concurrent CLI
    invocations can read and write simultaneously).  All failure modes
    degrade gracefully: a corrupt or version-mismatched store is dropped
    and rebuilt; an unwritable location disables the layer for the
    process (counted in ``stats.errors``) instead of raising into the
    admission pipeline.  Connections are re-opened after ``fork`` --
    sqlite handles must not cross process boundaries.
    """

    def __init__(self, directory: str | Path | None = None,
                 max_entries: int = DEFAULT_PERSISTENT_MAX_ENTRIES
                 ) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries!r}")
        self.directory = (Path(directory).expanduser() if directory
                          else default_cache_dir())
        self.path = self.directory / _DB_FILENAME
        #: LRU capacity: every read refreshes its row's ``last_access``
        #: stamp, and writes evict the stalest rows past this count.
        self.max_entries = int(max_entries)
        self.stats = PersistentCacheStats()
        self._lock = threading.Lock()
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None
        self._broken = False
        #: Warm-start read layer: decoded rows bulk-loaded by
        #: :meth:`preload`, consulted by :meth:`get` before sqlite.
        self._preloaded: dict[str, object] | None = None

    # -- connection management -----------------------------------------
    def _init_schema(self, conn: sqlite3.Connection) -> None:
        conn.execute("PRAGMA journal_mode=WAL")
        # Under WAL, NORMAL skips the fsync on each commit yet keeps the
        # store consistent: a crash can only lose the latest bounds,
        # which are recomputed on the next miss.
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("CREATE TABLE IF NOT EXISTS meta ("
                     "key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        row = conn.execute(
            "SELECT value FROM meta WHERE key='schema_version'").fetchone()
        if row is None or row[0] != str(SCHEMA_VERSION):
            conn.execute("DROP TABLE IF EXISTS bounds")
            conn.execute("DELETE FROM meta")
            conn.execute("INSERT INTO meta VALUES ('schema_version', ?)",
                         (str(SCHEMA_VERSION),))
        conn.execute("CREATE TABLE IF NOT EXISTS bounds ("
                     "key TEXT PRIMARY KEY, value TEXT NOT NULL, "
                     "last_access REAL NOT NULL DEFAULT 0)")
        conn.execute("CREATE INDEX IF NOT EXISTS bounds_last_access "
                     "ON bounds (last_access)")
        conn.commit()

    def _open(self) -> sqlite3.Connection:
        self.directory.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path), timeout=5.0,
                               check_same_thread=False)
        try:
            self._init_schema(conn)
        except BaseException:
            conn.close()
            raise
        return conn

    def _connect(self) -> sqlite3.Connection | None:
        """Live connection for this process, or ``None`` when the layer
        is broken.  Caller holds ``self._lock``."""
        if self._broken:
            return None
        if self._conn is not None and self._pid == os.getpid():
            return self._conn
        if self._conn is not None:  # inherited across fork: abandon it
            self._conn = None
        try:
            conn = self._open()
        except (sqlite3.Error, OSError):
            # One recovery attempt: treat the file as corrupt, rebuild.
            self.stats.errors += 1
            try:
                self.path.unlink(missing_ok=True)
                conn = self._open()
            except (sqlite3.Error, OSError) as exc:
                # Unwritable location (read-only directory, disk full,
                # REPRO_CACHE_DIR pointing at a file, ...): disable the
                # on-disk layer for this process and fall back to the
                # in-memory BoundCache.  Warn exactly once -- admission
                # solves must never crash on cache plumbing.
                self.stats.errors += 1
                self._broken = True
                warnings.warn(
                    f"persistent bound cache at {self.path} is "
                    f"unavailable ({type(exc).__name__}: {exc}); "
                    f"falling back to the in-memory cache for this "
                    f"process",
                    RuntimeWarning, stacklevel=3)
                return None
        self._conn, self._pid = conn, os.getpid()
        return conn

    # -- store operations ----------------------------------------------
    def preload(self, limit: int | None = None) -> int:
        """Bulk-load the most recently accessed rows into memory.

        The §5 operations story wants a *warm* admission server: after
        ``preload()`` every hit on a loaded row is a dict lookup -- no
        sqlite round-trip, no LRU-stamp write -- so the daemon answers
        table builds and ``N_max`` probes at interactive latency right
        after a restart.  ``limit`` caps how many rows are loaded
        (default: all, up to ``max_entries``); corrupt rows are skipped
        and counted in ``stats.errors``.  Returns the number of rows
        loaded.  Writes through :meth:`put` keep the loaded view
        coherent; entries evicted on disk may linger here until the
        next ``preload`` or :meth:`clear` (stale *presence* is safe --
        values are immutable functions of their key).
        """
        if limit is not None and limit < 1:
            raise ConfigurationError(
                f"preload limit must be >= 1, got {limit!r}")
        with self._lock:
            conn = self._connect()
            if conn is None:
                return 0
            loaded: dict[str, object] = {}
            try:
                rows = conn.execute(
                    "SELECT key, value FROM bounds "
                    "ORDER BY last_access DESC, key ASC LIMIT ?",
                    (limit if limit is not None else self.max_entries,)
                ).fetchall()
            except sqlite3.Error:
                self.stats.errors += 1
                return 0
            for key_str, payload in rows:
                try:
                    loaded[key_str] = _decode_value(payload)
                except Exception:
                    self.stats.errors += 1
            self._preloaded = loaded
            self.stats.preloaded += len(loaded)
            return len(loaded)

    def get(self, key_str: str):
        """Decoded value for ``key_str``, or ``None`` on miss (corrupt
        entries are evicted and count as misses)."""
        with self._lock:
            if self._preloaded is not None:
                value = self._preloaded.get(key_str)
                if value is not None:
                    self.stats.hits += 1
                    return value
            conn = self._connect()
            if conn is None:
                return None
            try:
                row = conn.execute(
                    "SELECT value FROM bounds WHERE key=?",
                    (key_str,)).fetchone()
            except sqlite3.Error:
                self.stats.errors += 1
                return None
            if row is None:
                self.stats.misses += 1
                return None
            try:
                value = _decode_value(row[0])
            except Exception:
                self.stats.errors += 1
                try:
                    conn.execute("DELETE FROM bounds WHERE key=?",
                                 (key_str,))
                    conn.commit()
                except sqlite3.Error:
                    pass
                self.stats.misses += 1
                return None
            # Refresh the LRU stamp; a hit must protect its row from
            # eviction.  Best-effort: a locked store just skips it.
            try:
                conn.execute(
                    "UPDATE bounds SET last_access=? WHERE key=?",
                    (time.time(), key_str))
                conn.commit()
            except sqlite3.Error:
                pass
            self.stats.hits += 1
            return value

    def put(self, key_str: str, value) -> bool:
        """Persist ``value`` under ``key_str``; False when the value is
        not persistable or the store is unavailable."""
        payload = _encode_value(value)
        if payload is None:
            return False
        with self._lock:
            conn = self._connect()
            if conn is None:
                return False
            try:
                conn.execute(
                    "INSERT OR REPLACE INTO bounds VALUES (?, ?, ?)",
                    (key_str, payload, time.time()))
                excess = int(conn.execute(
                    "SELECT COUNT(*) FROM bounds").fetchone()[0]
                    ) - self.max_entries
                if excess > 0:
                    # LRU eviction: drop the least-recently-accessed
                    # rows (key as tie-break for determinism).
                    conn.execute(
                        "DELETE FROM bounds WHERE key IN ("
                        "SELECT key FROM bounds "
                        "ORDER BY last_access ASC, key ASC LIMIT ?)",
                        (excess,))
                    self.stats.evictions += excess
                conn.commit()
            except sqlite3.Error:
                self.stats.errors += 1
                return False
            self.stats.writes += 1
            if self._preloaded is not None:
                # Keep the warm-start view coherent with the store.
                self._preloaded[key_str] = value
            return True

    def entry_count(self) -> int:
        """Number of persisted entries (0 when unavailable)."""
        with self._lock:
            conn = self._connect()
            if conn is None:
                return 0
            try:
                return int(conn.execute(
                    "SELECT COUNT(*) FROM bounds").fetchone()[0])
            except sqlite3.Error:
                self.stats.errors += 1
                return 0

    def clear(self) -> int:
        """Drop every persisted entry (and any preloaded view); returns
        how many were dropped."""
        with self._lock:
            self._preloaded = None
            conn = self._connect()
            if conn is None:
                return 0
            try:
                dropped = int(conn.execute(
                    "SELECT COUNT(*) FROM bounds").fetchone()[0])
                conn.execute("DELETE FROM bounds")
                conn.commit()
            except sqlite3.Error:
                self.stats.errors += 1
                return 0
            return dropped

    def close(self) -> None:
        """Close this process's connection (the file stays)."""
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                try:
                    self._conn.close()
                except sqlite3.Error:  # pragma: no cover
                    pass
            self._conn = None
            self._pid = None


_PERSISTENT: PersistentCache | None = None
_PERSISTENT_LOCK = threading.Lock()


def get_persistent_cache() -> PersistentCache | None:
    """The process-wide persistent layer, or ``None`` when disabled via
    ``REPRO_PERSISTENT_CACHE=0``.  Created lazily on first use so the
    environment and :func:`set_persistent_cache_dir` are honoured."""
    global _PERSISTENT
    if not persistent_cache_enabled():
        return None
    with _PERSISTENT_LOCK:
        if _PERSISTENT is None:
            _PERSISTENT = PersistentCache()
        return _PERSISTENT


def set_persistent_cache_dir(directory: str | Path) -> PersistentCache:
    """Point the persistent layer at ``directory`` (CLI ``--cache-dir``,
    test isolation).  Replaces any previously opened store."""
    global _PERSISTENT
    with _PERSISTENT_LOCK:
        if _PERSISTENT is not None:
            _PERSISTENT.close()
        _PERSISTENT = PersistentCache(directory)
        return _PERSISTENT


def reset_persistent_cache() -> None:
    """Forget the current store; the next use re-resolves from the
    environment."""
    global _PERSISTENT
    with _PERSISTENT_LOCK:
        if _PERSISTENT is not None:
            _PERSISTENT.close()
        _PERSISTENT = None


# ----------------------------------------------------------------------
# The bound cache
# ----------------------------------------------------------------------

@dataclass
class CacheStats:
    """Counters for one :class:`BoundCache`.

    ``evaluations`` is the number of times the underlying computation
    actually ran (cache misses plus disabled-cache calls) -- the
    quantity the A20 bench compares cached vs uncached.  ``disk_hits``
    counts values served from the persistent layer: no new computation,
    but a (cheap) sqlite read rather than a dict lookup.
    ``evictions`` counts FIFO drops at capacity; ``solve_seconds`` is
    the wall time spent inside the underlying computations (the
    per-solve distribution lives in ``BoundCache.solve_histogram``).
    """

    hits: int = 0
    misses: int = 0
    uncached: int = 0
    disk_hits: int = 0
    evictions: int = 0
    solve_seconds: float = 0.0

    @property
    def evaluations(self) -> int:
        return self.misses + self.uncached

    def snapshot(self) -> "CacheStats":
        """Independent copy of the counters at this instant."""
        return CacheStats(hits=self.hits, misses=self.misses,
                          uncached=self.uncached,
                          disk_hits=self.disk_hits,
                          evictions=self.evictions,
                          solve_seconds=self.solve_seconds)


@dataclass
class BoundCache:
    """Process-wide memo for expensive pure computations.

    Keys must be hashable and should start with a model fingerprint so
    that distinct configurations never collide.  The cache is bounded:
    once ``max_entries`` is reached the oldest insertions are evicted
    (FIFO -- admission scans have strong locality, LRU buys nothing).

    With ``use_persistent`` the on-disk :class:`PersistentCache` is
    layered underneath: a memory miss consults the store before
    computing, and computed values are written through.  Only
    content-fingerprinted keys participate (see
    :func:`_persistable_key`); values the codec cannot encode stay
    memory-only.  ``enabled=False`` (CLI ``--no-cache``) bypasses both
    layers, reads and writes alike.
    """

    enabled: bool = True
    max_entries: int = 200_000
    use_persistent: bool = False
    stats: CacheStats = field(default_factory=CacheStats)
    #: Per-solve wall-time distribution (standalone; merged into a
    #: registry at report time by :func:`publish_cache_metrics`).
    solve_histogram: Histogram = field(
        default_factory=lambda: Histogram("bound_solve_seconds"),
        repr=False)
    _store: dict = field(default_factory=dict, repr=False)

    def _solve(self, compute):
        """Run the underlying computation, timing it into the stats,
        the solve histogram and (when tracing) a ``bound_solve``
        record."""
        start = time.perf_counter()
        value = compute()
        elapsed = time.perf_counter() - start
        self.stats.solve_seconds += elapsed
        self.solve_histogram.observe(elapsed)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit("bound_solve", seconds=elapsed)
        return value

    def get_or_compute(self, key, compute):
        """Return the cached value for ``key``, computing it on miss."""
        if not self.enabled:
            self.stats.uncached += 1
            return self._solve(compute)
        try:
            value = self._store[key]
        except KeyError:
            pass
        else:
            self.stats.hits += 1
            tracer = get_tracer()
            if tracer.enabled:
                tracer.emit("cache_hit", layer="memory")
            return value
        persistent = (get_persistent_cache()
                      if self.use_persistent and _persistable_key(key)
                      else None)
        if persistent is not None:
            key_str = _canonical(key)
            value = persistent.get(key_str)
            if value is not None:
                self.stats.disk_hits += 1
                self._insert(key, value)
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.emit("cache_hit", layer="disk")
                return value
        self.stats.misses += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit("cache_miss",
                        layer="disk" if persistent is not None
                        else "memory")
        value = self._solve(compute)
        self._insert(key, value)
        if persistent is not None:
            persistent.put(key_str, value)
        return value

    def _insert(self, key, value) -> None:
        if len(self._store) >= self.max_entries:
            self._store.pop(next(iter(self._store)))
            self.stats.evictions += 1
        self._store[key] = value

    def clear(self) -> None:
        """Drop every in-memory entry (statistics are reset too); the
        persistent layer is untouched -- that is what makes a process
        restart warm."""
        self._store.clear()
        self.stats = CacheStats()
        self.solve_histogram = Histogram("bound_solve_seconds")

    def __len__(self) -> int:
        return len(self._store)


_GLOBAL_CACHE = BoundCache(use_persistent=True)


def get_cache() -> BoundCache:
    """The process-wide bound cache used by the analytic models."""
    return _GLOBAL_CACHE


def clear_cache() -> None:
    """Drop all globally cached bounds and reset the statistics."""
    _GLOBAL_CACHE.clear()


def cache_stats() -> CacheStats:
    """Snapshot of the global cache counters."""
    return _GLOBAL_CACHE.stats.snapshot()


def set_cache_enabled(enabled: bool) -> None:
    """Globally enable/disable memoization (CLI ``--no-cache``)."""
    _GLOBAL_CACHE.enabled = bool(enabled)


def publish_cache_metrics(registry: MetricsRegistry) -> None:
    """Publish the global cache state into ``registry`` at report time.

    Layer traffic becomes ``bound_cache_*`` / ``persistent_cache_*``
    gauges (set, not incremented, so the call is idempotent for
    scalars) and the per-solve distribution is merged into the
    registry's ``bound_solve_seconds`` histogram.  Call once, when a
    run's metrics are exported -- merging the histogram twice would
    double-count.
    """
    cache = _GLOBAL_CACHE
    stats = cache.stats
    registry.gauge("bound_cache_entries").set(len(cache))
    registry.gauge("bound_cache_hits").set(stats.hits)
    registry.gauge("bound_cache_misses").set(stats.misses)
    registry.gauge("bound_cache_uncached").set(stats.uncached)
    registry.gauge("bound_cache_disk_hits").set(stats.disk_hits)
    registry.gauge("bound_cache_evictions").set(stats.evictions)
    source = cache.solve_histogram
    merged = registry.histogram("bound_solve_seconds",
                                bounds=source.bounds)
    for i, n in enumerate(source.counts):
        merged.counts[i] += n
    merged.count += source.count
    merged.sum += source.sum
    merged.min = min(merged.min, source.min)
    merged.max = max(merged.max, source.max)
    persistent = get_persistent_cache()
    if persistent is not None:
        ps = persistent.stats
        registry.gauge("persistent_cache_hits").set(ps.hits)
        registry.gauge("persistent_cache_misses").set(ps.misses)
        registry.gauge("persistent_cache_writes").set(ps.writes)
        registry.gauge("persistent_cache_errors").set(ps.errors)
        registry.gauge("persistent_cache_evictions").set(ps.evictions)
        registry.gauge("persistent_cache_preloaded").set(ps.preloaded)


@contextmanager
def cache_disabled():
    """Context manager running its body with the global cache off."""
    previous = _GLOBAL_CACHE.enabled
    _GLOBAL_CACHE.enabled = False
    try:
        yield
    finally:
        _GLOBAL_CACHE.enabled = previous


# ----------------------------------------------------------------------
# Monotone threshold search
# ----------------------------------------------------------------------

def bisect_max_n(predicate, n_cap: int, *, full_scan: bool = False,
                 verify_above: int = 0) -> int:
    """Largest ``n`` in ``[1, n_cap]`` with ``predicate(n)`` true, for
    predicates true on a prefix (monotone in ``n``).

    Exponential search locates the first failure, bisection refines it:
    O(log n_cap) probes instead of the O(n*) linear scan, and each
    probed ``n`` is evaluated exactly once.

    The prefix assumption is essential: a non-monotone predicate makes
    bisection silently wrong.  Two escape hatches:

    - ``full_scan=True`` evaluates every ``n`` up to ``n_cap`` and
      returns the true maximum (exact for *any* predicate).
    - ``verify_above=k`` probes ``k`` extra points spread between the
      found boundary and ``n_cap``; if any is true, non-monotonicity is
      detected and the helper transparently falls back to the full
      scan.  Detection is necessarily best-effort -- only probed points
      can contradict the assumption.

    Returns 0 when even ``n = 1`` fails (under the prefix assumption;
    with ``full_scan`` only when no ``n`` passes at all).
    """
    if n_cap < 1:
        raise ConfigurationError(f"n_cap must be >= 1, got {n_cap!r}")
    if verify_above < 0:
        raise ConfigurationError(
            f"verify_above must be >= 0, got {verify_above!r}")

    memo: dict[int, bool] = {}

    def probe(n: int) -> bool:
        if n not in memo:
            memo[n] = bool(predicate(n))
        return memo[n]

    def exhaustive() -> int:
        best = 0
        for n in range(1, n_cap + 1):
            if probe(n):
                best = n
        return best

    if full_scan:
        return exhaustive()

    if not probe(1):
        return 0

    # Exponential phase: double until the predicate fails or the cap is
    # reached.  ``lo`` is always a known-true point.
    lo = 1
    while lo < n_cap:
        nxt = min(lo * 2, n_cap)
        if not probe(nxt):
            break
        lo = nxt
    if lo == n_cap:
        return n_cap

    # Bisection phase on (lo, hi]: lo true, hi false.
    hi = min(lo * 2, n_cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            lo = mid
        else:
            hi = mid
    best = lo

    if verify_above and best < n_cap:
        # sorted(set()) rather than np.unique, which imports numpy.ma
        # (~15 ms) on its first call, inside the daemon's first build.
        checks = sorted(set(np.geomspace(
            best + 1, n_cap, num=verify_above).astype(int).tolist()))
        if any(probe(n) for n in checks if n > best):
            # The prefix assumption is broken; fall back to exactness.
            return exhaustive()
    return best
