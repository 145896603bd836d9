"""Shared benchmark fixtures and result recording.

Every bench regenerates one paper artifact (table/figure) or ablation.
Besides the pytest-benchmark timing, each bench writes its data table to
``<results>/<name>.txt`` so the numbers survive output capture and feed
EXPERIMENTS.md, and every bench emits a machine-readable
``<results>/BENCH_<name>.json`` (wall-clock plus its headline numbers)
for trend tracking.  ``<results>`` is :data:`_emit.RESULTS_DIR`:
``benchmarks/results/``, or its ``smoke/`` subdirectory under
``REPRO_BENCH_SMOKE``.
"""

from __future__ import annotations

import os

import pytest

import _emit
from repro import cache as cache_mod
from repro.disk import quantum_viking_2_1, single_zone_viking
from repro.workload import paper_fragment_sizes


@pytest.fixture(scope="session", autouse=True)
def _isolated_persistent_cache(tmp_path_factory):
    """Keep the on-disk bound cache away from ``~/.cache`` during
    benches (exported via the environment so pool workers and CLI
    subprocesses inherit the sandboxed store)."""
    directory = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get(cache_mod.CACHE_DIR_ENV)
    os.environ[cache_mod.CACHE_DIR_ENV] = str(directory)
    cache_mod.set_persistent_cache_dir(directory)
    yield
    if previous is None:
        os.environ.pop(cache_mod.CACHE_DIR_ENV, None)
    else:
        os.environ[cache_mod.CACHE_DIR_ENV] = previous
    cache_mod.reset_persistent_cache()


@pytest.fixture(scope="session")
def viking():
    """Table 1's Quantum Viking 2.1."""
    return quantum_viking_2_1()


@pytest.fixture(scope="session")
def viking_single_zone():
    """The §3.1 single-zone example disk."""
    return single_zone_viking()


@pytest.fixture(scope="session")
def paper_sizes():
    """Table 1's Gamma(200 KB, 100 KB) fragment-size law."""
    return paper_fragment_sizes()


@pytest.fixture(scope="session")
def record():
    """Write a result table under :data:`_emit.RESULTS_DIR` and echo
    it."""
    _emit.RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    def _record(name: str, text: str) -> None:
        path = _emit.RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[written to {path}]")

    return _record


@pytest.fixture(scope="session")
def record_json():
    """Write a machine-readable metrics payload to
    ``BENCH_<name>.json`` (delegates to :mod:`_emit`, the shared
    emission helper)."""

    def _record(name: str, payload: dict) -> None:
        _emit.emit(name, None, **payload)

    return _record
