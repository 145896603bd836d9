#!/usr/bin/env python
"""Collate ``BENCH_*.json`` emissions and check for perf regressions.

Every bench writes a machine-readable payload to
``BENCH_<name>.json`` in :data:`_emit.RESULTS_DIR` --
``benchmarks/results/``, or ``benchmarks/results/smoke/`` when
``REPRO_BENCH_SMOKE`` is set -- which is also the default
``--results-dir`` here.  This tool has two jobs:

``python benchmarks/report.py``
    Print a summary table of every emission found: name, wall clock,
    and the headline numeric metrics.

``python benchmarks/report.py --check a22_server_kernel``
    Compare one result against the committed baseline in
    ``benchmarks/baselines/`` and exit non-zero when the checked metric
    (default ``speedup``) regressed by more than ``--max-regression``
    (default 2x).  Ratio metrics like ``speedup`` are largely
    machine-independent, which is what makes a committed baseline
    meaningful across CI runners.

Deliberately dependency-free (no ``repro`` import): it must run before
``PYTHONPATH`` is set up and in pared-down CI legs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from _emit import RESULTS_DIR

BASELINES_DIR = Path(__file__).parent / "baselines"

#: Payload keys that are bookkeeping, not benchmark metrics.
_META_KEYS = {"schema", "host_cores"}


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")


def _metrics(payload: dict) -> dict:
    return {key: value for key, value in sorted(payload.items())
            if key not in _META_KEYS
            and isinstance(value, (int, float))
            and not isinstance(value, bool)}


def _format(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if value != 0 and abs(value) < 1e-3:
        return f"{value:.3g}"
    return f"{value:.4f}".rstrip("0").rstrip(".")


def _render(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(headers[col]), *(len(row[col]) for row in rows))
              if rows else len(headers[col])
              for col in range(len(headers))]
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "-+-".join("-" * w for w in widths)]
    lines += [" | ".join(cell.ljust(w) for cell, w in zip(row, widths))
              for row in rows]
    return "\n".join(lines)


_BAR_WIDTH = 36


def _histogram_lines(name: str, histograms: dict) -> list[str]:
    """Render one emission's per-class latency histograms.

    Expects the shape benches emit under ``latency_histograms``:
    ``{class: {"bounds": [...], "counts": [...], "mean": s,
    "count": n}}`` where ``counts`` carries one overflow bucket beyond
    the last bound.  Malformed classes are skipped, not fatal -- the
    summary must survive hand-edited or truncated emissions.
    """
    lines = [f"{name}: fragment-latency histograms"]
    for klass in sorted(histograms):
        data = histograms[klass]
        if not isinstance(data, dict):
            continue
        bounds = data.get("bounds") or []
        counts = data.get("counts") or []
        if len(counts) != len(bounds) + 1:
            continue
        total = sum(counts)
        mean = data.get("mean")
        summary = f"  {klass}: {total} fragment(s)"
        if isinstance(mean, (int, float)) and not isinstance(mean, bool):
            summary += f", mean {_format(float(mean))}s"
        lines.append(summary)
        labels = [f"<= {_format(float(b))}s" for b in bounds]
        labels.append(f" > {_format(float(bounds[-1]))}s"
                      if bounds else "all")
        width = max(len(label) for label in labels)
        peak = max(counts) or 1
        for label, count in zip(labels, counts):
            bar = "#" * round(_BAR_WIDTH * count / peak)
            lines.append(f"    {label.rjust(width)} | "
                         f"{str(count).rjust(len(str(peak)))} | {bar}")
    return lines if len(lines) > 1 else []


def summarise(results_dir: Path) -> int:
    paths = sorted(results_dir.glob("BENCH_*.json"))
    if not paths:
        print(f"no BENCH_*.json emissions under {results_dir}",
              file=sys.stderr)
        return 1
    rows = []
    histogram_sections = []
    for path in paths:
        payload = _load(path)
        name = path.stem[len("BENCH_"):]
        # A few benches emit a dict of wall clocks (one per variant);
        # the summary column only shows the scalar form.
        wall = payload.get("wall_clock_s")
        if not isinstance(wall, (int, float)) or isinstance(wall, bool):
            wall = None
        metrics = _metrics(payload)
        metrics.pop("wall_clock_s", None)
        rendered = ", ".join(f"{k}={_format(v)}"
                             for k, v in metrics.items())
        if len(rendered) > 72:
            rendered = rendered[:69] + "..."
        rows.append([name,
                     _format(wall) if wall is not None else "-",
                     rendered])
        histograms = payload.get("latency_histograms")
        if isinstance(histograms, dict) and histograms:
            histogram_sections.extend(
                ["", *_histogram_lines(name, histograms)])
    print(f"{len(rows)} benchmark emission(s) in {results_dir}\n")
    print(_render(["bench", "wall [s]", "headline metrics"], rows))
    for line in histogram_sections:
        print(line)
    return 0


def check(name: str, metric: str, max_regression: float,
          results_dir: Path, baselines_dir: Path) -> int:
    current_path = results_dir / f"BENCH_{name}.json"
    baseline_path = baselines_dir / f"BENCH_{name}.json"
    for path in (current_path, baseline_path):
        if not path.is_file():
            print(f"error: missing {path}", file=sys.stderr)
            return 2
    current = _load(current_path).get(metric)
    baseline = _load(baseline_path).get(metric)
    if current is None or baseline is None:
        print(f"error: metric {metric!r} missing from "
              f"{'current' if current is None else 'baseline'} "
              f"emission of {name}", file=sys.stderr)
        return 2
    floor = baseline / max_regression
    verdict = "OK" if current >= floor else "REGRESSION"
    print(f"{name}.{metric}: current {_format(current)}, baseline "
          f"{_format(baseline)}, floor {_format(floor)} "
          f"(baseline / {max_regression:g}) -> {verdict}")
    return 0 if current >= floor else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="append", default=[],
                        metavar="NAME",
                        help="compare BENCH_NAME.json against the "
                        "committed baseline instead of summarising "
                        "(repeatable)")
    parser.add_argument("--metric", default="speedup",
                        help="payload key compared by --check "
                        "(default: speedup)")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail when current < baseline / this "
                        "factor (default: 2)")
    parser.add_argument("--results-dir", type=Path, default=RESULTS_DIR)
    parser.add_argument("--baselines-dir", type=Path,
                        default=BASELINES_DIR)
    args = parser.parse_args(argv)
    if args.max_regression <= 1.0:
        parser.error("--max-regression must be > 1")
    if not args.check:
        return summarise(args.results_dir)
    worst = 0
    for name in args.check:
        worst = max(worst, check(name, args.metric, args.max_regression,
                                 args.results_dir, args.baselines_dir))
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
