"""Machine-readable benchmark emission: ``BENCH_<name>.json``.

Every bench writes its human-readable table through the ``record``
fixture; this helper is the companion channel for the headline
*numbers* (wall-clock, speedups, admitted-stream counts, bound/observed
probabilities) so trend tracking never has to parse rendered tables.
One JSON file per bench, schema-stamped, scalars only.

Usage inside a bench::

    import _emit

    def test_a1_...(benchmark, viking, record):
        rows = benchmark.pedantic(run, ...)
        record("a1_...", table)
        _emit.emit("a1_...", benchmark, n_max=rows[-1].n_max)

The ``benchmark`` argument is optional; when given, the pedantic
timing is included as ``wall_clock_s``.

This module owns where results go: ``benchmarks/results/`` for full
runs, ``benchmarks/results/smoke/`` (ignored by git) when
``REPRO_BENCH_SMOKE`` is set, so a shrunk gate run never overwrites the
committed full-run results.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Where benches write their results and ``report.py`` reads them.
RESULTS_DIR = Path(__file__).parent / "results"
if os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0"):
    RESULTS_DIR /= "smoke"

#: Bump when the payload envelope changes shape.
SCHEMA_VERSION = 1


def bench_seconds(benchmark) -> float | None:
    """Mean wall-clock of a finished pytest-benchmark fixture, or
    ``None`` when timing is unavailable (e.g. ``--benchmark-disable``)."""
    try:
        return float(benchmark.stats.stats.mean)
    except (AttributeError, TypeError):
        return None


def payload(benchmark=None, **metrics) -> dict:
    """The standard envelope: schema stamp, host shape, bench timing,
    then the caller's headline metrics."""
    data: dict = {"schema": SCHEMA_VERSION, "host_cores": os.cpu_count()}
    if benchmark is not None:
        seconds = bench_seconds(benchmark)
        if seconds is not None:
            data["wall_clock_s"] = seconds
    data.update(metrics)
    return data


def emit(name: str, benchmark=None, **metrics) -> Path:
    """Write ``BENCH_<name>.json`` under :data:`RESULTS_DIR` and echo
    the path."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(payload(benchmark, **metrics), indent=2,
                   sort_keys=True, default=str) + "\n",
        encoding="utf-8")
    print(f"[metrics written to {path}]")
    return path
