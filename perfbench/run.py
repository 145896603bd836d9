"""The repository benchmark: ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``, run from the root of a checkout.

Workloads (see NOTES.md for why each exists and what it predicts):
``ticket-http`` and ``batch-storm`` drive a live ``repro serve`` daemon
over HTTP; ``paper-model`` runs the paper's model pipeline.

With ``--trace 0`` the last line of standard output is one JSON object
with every end-to-end metric of BENCHMARK.json; with ``--trace 1`` the
run is traced and the object carries every per-layer metric instead.
Layers a workload never calls report 0.  Every reply and output is
checked; ``failed`` counts the checks that did not hold, and ``correct``
is true only when none failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose one of {names}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Pin the generator's hash seed: re-exec with it fixed.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *sys.argv[1:]], env)

    sys.path.insert(0, str(ROOT / "src"))
    from common import Run
    from paper_model import paper_model
    from serve_load import batch_storm, ticket_http

    workloads = {"ticket-http": ticket_http, "batch-storm": batch_storm,
                 "paper-model": paper_model}
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # A SIGTERM still runs the clean-up below: no process outlives us.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    run = Run(args.workload, args.seed)
    try:
        measured = workloads[args.workload](run, args.seconds,
                                            bool(args.trace))
    finally:
        run.finish()

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in measured:
            value, unit = measured[name]
        elif args.trace:
            value, unit = 0, metric["unit"]  # a layer this workload skips
        else:
            raise RuntimeError(f"workload measured no {name}")
        if unit != metric["unit"]:
            raise RuntimeError(f"{name}: unit {unit}, expected "
                               f"{metric['unit']}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not run.failures,
                      "attempted": max(run.attempted, len(run.failures), 1),
                      "failed": len(run.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
