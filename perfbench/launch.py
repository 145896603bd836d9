"""Traced launcher: ``python perfbench/launch.py serve ARGS...``.

Runs the same process as ``python -m repro serve ARGS...`` with the
daemon-side layers wrapped by :mod:`tracing`, then writes every span,
the import time and the bound-cache counters to the JSON file named by
``PERFBENCH_SPANS`` when the daemon exits.
"""

import os
import sys
import time

start = time.perf_counter()
import repro.cli  # noqa: E402  (timed: the import is the measurement)
import repro.serve  # noqa: E402,F401
import_ms = (time.perf_counter() - start) * 1e3

import tracing  # noqa: E402


def main() -> int:
    recorder = tracing.Recorder()
    tracing.install_daemon(recorder)
    try:
        return repro.cli.main(sys.argv[1:])
    finally:
        recorder.dump(os.environ["PERFBENCH_SPANS"], extra={
            "import_ms": import_ms, "cache": tracing.cache_stats()})


if __name__ == "__main__":
    sys.exit(main())
