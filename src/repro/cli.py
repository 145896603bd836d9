"""Command-line interface.

Exposes the admission-control math to operators without writing Python::

    python -m repro admission --mean-kb 200 --std-kb 100 --round 1.0
    python -m repro plate --n-from 20 --n-to 32
    python -m repro simulate --n 28 --rounds 20000
    python -m repro simulate --n 20,24,28 --rounds 5000
    python -m repro simulate --faults examples/single_disk_failure.toml \
        --trace run.jsonl --metrics run.json
    python -m repro observe run.jsonl
    python -m repro worstcase
    python -m repro approx

All commands default to the paper's Table 1 drive (Quantum Viking 2.1);
``--disk single-zone`` selects the §3.1 example disk and
``--rate-scale`` models faster drive generations.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.analysis import format_probability, render_table
from repro.cache import (
    cache_stats,
    default_cache_dir,
    get_cache,
    get_persistent_cache,
    persistent_cache_enabled,
    publish_cache_metrics,
    set_cache_enabled,
    set_persistent_cache_dir,
)
from repro.core import (
    GlitchModel,
    MultiZoneTransferModel,
    RoundServiceTimeModel,
    n_max_perror,
    n_max_plate,
    worst_case_n_max,
)
from repro.core.baselines import worst_case_components
from repro.disk import quantum_viking_2_1, scaled_viking, single_zone_viking
from repro.distributions import Gamma
from repro.errors import ConfigurationError
from repro.obs import (
    NULL_TRACER,
    RunTelemetry,
    Tracer,
    build_span_trees,
    critical_path,
    get_registry,
    get_tracer,
    read_trace_lenient,
    render_span_tree,
    set_tracer,
    slo_report_from_records,
    validate_trace,
)
from repro.server.simulation import estimate_p_error, estimate_p_late

__all__ = ["main", "build_parser"]


def _n_list(value: str) -> list[int]:
    """``--n`` argument: one level or a comma-separated sweep grid."""
    try:
        ns = [int(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or comma-separated integers, "
            f"got {value!r}") from None
    if not ns:
        raise argparse.ArgumentTypeError(
            f"expected at least one integer, got {value!r}")
    return ns


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--disk", choices=("viking", "single-zone"),
                        default="viking",
                        help="disk preset (default: Table 1 Viking)")
    parser.add_argument("--rate-scale", type=float, default=1.0,
                        help="scale the media transfer rate (drive "
                        "generations)")
    parser.add_argument("--mean-kb", type=float, default=200.0,
                        help="mean fragment size in KB (1000 bytes)")
    parser.add_argument("--std-kb", type=float, default=100.0,
                        help="fragment-size standard deviation in KB")
    parser.add_argument("--round", type=float, default=1.0, dest="t",
                        help="round length in seconds")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the process-wide Chernoff bound "
                        "cache (every b_late query re-optimises)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="directory of the persistent bound cache "
                        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")


def _spec(args: argparse.Namespace):
    if args.disk == "single-zone":
        spec = single_zone_viking()
    elif args.rate_scale != 1.0:
        spec = scaled_viking(rate_scale=args.rate_scale)
    else:
        spec = quantum_viking_2_1()
    return spec


def _model(args: argparse.Namespace) -> RoundServiceTimeModel:
    sizes = Gamma.from_mean_std(args.mean_kb * 1000.0,
                                args.std_kb * 1000.0)
    return RoundServiceTimeModel.for_disk(_spec(args), sizes)


def _cmd_admission(args: argparse.Namespace) -> int:
    model = _model(args)
    glitch = GlitchModel(model, args.t)
    plate = n_max_plate(model, args.t, args.delta)
    perror = n_max_perror(glitch, args.m, args.g, args.epsilon)
    print(render_table(
        ["criterion", "N_max"],
        [
            [f"round-level: P[round late] <= {args.delta:g}",
             str(plate)],
            [f"stream-level: P[>= {args.g} glitches in {args.m} rounds]"
             f" <= {args.epsilon:g}", str(perror)],
        ],
        title=f"admission limits ({_spec(args).name}, t={args.t:g}s)"))
    return 0


def _cmd_plate(args: argparse.Namespace) -> int:
    model = _model(args)
    rows = []
    for n in range(args.n_from, args.n_to + 1):
        result = model.p_late(n, args.t)
        rows.append([str(n), f"{model.mean(n):.4f}",
                     format_probability(result.bound)])
    print(render_table(["N", "E[T_N] [s]", "b_late(N, t)"], rows,
                       title=f"Chernoff lateness bounds "
                       f"({_spec(args).name}, t={args.t:g}s)"))
    return 0


#: Hot spots printed by ``repro simulate --profile``.
PROFILE_TOP = 15


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _spec(args)
    sizes = Gamma.from_mean_std(args.mean_kb * 1000.0,
                                args.std_kb * 1000.0)
    registry = get_registry()
    if args.metrics is not None:
        registry.reset()
    tracer = (Tracer(sink=args.trace) if args.trace is not None
              else NULL_TRACER)
    profiler = None
    if args.profile:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    scenario = (args.faults is not None or args.trick
                or args.farm_spec is not None)
    try:
        if scenario and args.engine == "kernel":
            code = _simulate_scenario_kernel(args, spec, sizes)
        elif scenario:
            code = _simulate_faults(args, spec, sizes, tracer, registry)
        else:
            code = _simulate_vectorised(args, spec, sizes, tracer,
                                        registry)
    finally:
        if profiler is not None:
            profiler.disable()
        if tracer is not NULL_TRACER:
            tracer.close()
        if args.metrics is not None:
            publish_cache_metrics(registry)
            registry.write_json(args.metrics)
    if profiler is not None:
        import io
        import pstats
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.strip_dirs().sort_stats("cumulative").print_stats(
            PROFILE_TOP)
        print(f"--- profile: top {PROFILE_TOP} by cumulative time ---")
        print(buffer.getvalue().rstrip())
    if args.trace is not None:
        print(f"trace written to {args.trace} "
              f"({tracer.emitted} records)")
    if args.metrics is not None:
        print(f"metrics written to {args.metrics}")
    return code


def _simulate_vectorised(args: argparse.Namespace, spec, sizes,
                         tracer: Tracer, registry) -> int:
    """The Monte-Carlo validation paths of ``repro simulate``: one
    ``N`` through ``estimate_p_late``, a comma-separated grid through
    the shared-pool ``sweep_*_parallel`` fan-outs."""
    if args.n is None:
        print("error: --n is required without --faults", file=sys.stderr)
        return 2
    model = RoundServiceTimeModel.for_disk(spec, sizes)
    if len(args.n) > 1:
        return _simulate_sweep(args, spec, sizes, model, tracer,
                               registry)
    n = args.n[0]
    bound = model.b_late(n, args.t)
    if tracer.enabled:
        tracer.start_run(seed=args.seed, mode="vectorised", n=n,
                         t=args.t, rounds=args.rounds,
                         bound_healthy=float(bound))
    previous = get_tracer()
    set_tracer(tracer)
    try:
        est = estimate_p_late(spec, sizes, n, args.t,
                              rounds=args.rounds, seed=args.seed,
                              jobs=args.jobs)
        pe = None
        if args.perror:
            pe = estimate_p_error(spec, sizes, n, args.t, args.m,
                                  args.g, runs=args.runs,
                                  seed=args.seed, jobs=args.jobs)
    finally:
        set_tracer(previous)
        if tracer.enabled:
            tracer.end_run()
    labels = {"n": str(n)}
    registry.gauge("sim_p_late", labels=labels).set(est.p_late)
    registry.gauge("sim_b_late", labels=labels).set(bound)
    rows = [
        ["simulated p_late", format_probability(est.p_late)],
        ["95% CI", f"[{format_probability(est.ci_low)}, "
                   f"{format_probability(est.ci_high)}]"],
        ["analytic bound", format_probability(bound)],
    ]
    if pe is not None:
        glitch = GlitchModel(model, args.t)
        registry.gauge("sim_p_error", labels=labels).set(pe.p_error)
        rows.append(["simulated p_error", format_probability(pe.p_error)])
        rows.append(["analytic p_error bound", format_probability(
            glitch.p_error(n, args.m, args.g))])
    print(render_table(
        ["quantity", "value"], rows,
        title=f"simulation at N={n} ({est.rounds} rounds)"))
    return 0


def _simulate_sweep(args: argparse.Namespace, spec, sizes, model,
                    tracer: Tracer, registry) -> int:
    """``repro simulate --n N1,N2,...``: the whole grid through one
    shared worker pool (:func:`repro.parallel.sweep_p_late_parallel`),
    per-``N`` results published through the metrics registry."""
    from repro.parallel import sweep_p_error_parallel, sweep_p_late_parallel

    ns = args.n
    if tracer.enabled:
        tracer.start_run(seed=args.seed, mode="sweep", ns=list(ns),
                         t=args.t, rounds=args.rounds)
    previous = get_tracer()
    set_tracer(tracer)
    try:
        lates = sweep_p_late_parallel(spec, sizes, ns, args.t,
                                      rounds=args.rounds,
                                      seed=args.seed, jobs=args.jobs)
        errors = None
        if args.perror:
            errors = sweep_p_error_parallel(spec, sizes, ns, args.t,
                                            args.m, args.g,
                                            runs=args.runs,
                                            seed=args.seed,
                                            jobs=args.jobs)
    finally:
        set_tracer(previous)
        if tracer.enabled:
            tracer.end_run()
    glitch = GlitchModel(model, args.t) if args.perror else None
    headers = ["N", "p_late", "95% CI", "b_late(N, t)"]
    if args.perror:
        headers += ["p_error", "b_error"]
    rows = []
    for index, est in enumerate(lates):
        bound = model.b_late(est.n, args.t)
        labels = {"n": str(est.n)}
        registry.gauge("sim_p_late", labels=labels).set(est.p_late)
        registry.gauge("sim_b_late", labels=labels).set(bound)
        row = [str(est.n), format_probability(est.p_late),
               f"[{format_probability(est.ci_low)}, "
               f"{format_probability(est.ci_high)}]",
               format_probability(bound)]
        if errors is not None:
            pe = errors[index]
            registry.gauge("sim_p_error", labels=labels).set(pe.p_error)
            row += [format_probability(pe.p_error),
                    format_probability(
                        glitch.p_error(est.n, args.m, args.g))]
        rows.append(row)
    print(render_table(
        headers, rows,
        title=f"sweep over {len(ns)} N values "
        f"({args.rounds} rounds each, shared pool)"))
    return 0


def _simulate_faults(args: argparse.Namespace, spec, sizes,
                     tracer: Tracer = NULL_TRACER,
                     registry=None) -> int:
    """``repro simulate --faults SCHEDULE.toml``: drive the event-driven
    mirrored server through the fault schedule and check the survivors
    against the degraded-mode bound."""
    from repro.server.faults import FaultSchedule, run_failover_scenario
    from repro.server.scenario import parse_farm_spec

    if args.n is not None and len(args.n) > 1:
        print("error: --faults takes a single --n, not a sweep grid",
              file=sys.stderr)
        return 2
    if args.trick:
        print("error: --trick requires --engine kernel (the event "
              "engine has no trick-mode load model)", file=sys.stderr)
        return 2
    if args.faults is None:
        print("error: --engine event needs --faults; use --engine "
              "kernel for schedule-free heterogeneous scenarios",
              file=sys.stderr)
        return 2
    specs = (parse_farm_spec(args.farm_spec)
             if args.farm_spec is not None else None)
    disks = len(specs) if specs is not None else args.disks
    schedule = FaultSchedule.from_toml(args.faults)
    result = run_failover_scenario(
        spec, sizes, specs=specs, disks=disks, t=args.t,
        delta=args.delta, rounds=args.server_rounds,
        n_per_disk=args.n[0] if args.n else None,
        shedding=not args.no_shed, shed_mode=args.shed_mode,
        schedule=schedule, seed=args.seed, tracer=tracer,
        metrics=registry if args.metrics is not None else None)
    report = result.report
    rows = [
        ["disks (mirrored pairs)", str(disks)],
        ["streams opened", str(result.streams_opened)],
        ["healthy N_max / disk", str(result.healthy_n_max)],
        ["degraded N_max / disk", str(result.degraded_n_max)],
        ["shedding", "off" if args.no_shed else args.shed_mode],
        ["failovers (mirror reads)", str(report.failovers)],
        ["dropped requests", str(report.dropped_requests)],
        ["streams shed", str(report.shed_streams)],
        ["streams resumed", str(report.resumed_streams)],
        ["survivors (never shed)", str(result.survivors)],
        ["max survivor glitch rate",
         format_probability(result.max_glitch_rate)],
        ["tolerance delta", format_probability(result.delta)],
        ["within degraded-mode bound",
         "yes" if result.within_bound else "NO"],
    ]
    print(render_table(
        ["quantity", "value"], rows,
        title=f"fault injection ({args.faults}, "
        f"{report.rounds} rounds)"))
    for when, what in report.fault_log:
        print(f"  fault: {what}")
    return 0 if result.within_bound or args.no_shed else 1


def _simulate_scenario_kernel(args: argparse.Namespace, spec,
                              sizes) -> int:
    """``repro simulate --engine kernel`` with ``--faults`` /
    ``--trick`` / ``--farm-spec``: compile the whole scenario -- any
    fault schedule (fail/recover/slow-disk/recalibration-storm),
    trick-mode segments, heterogeneous mirrored layouts -- into
    constant-state phase batches and price them on the vectorised sweep
    kernel (:mod:`repro.server.scenario`).  Orders of magnitude faster
    than the event engine and statistically cross-validated against it;
    anything the compiler cannot represent raises loudly instead of
    degrading."""
    from repro.core.farm import degraded_mode_n_max
    from repro.obs.telemetry import bound_table_from_estimate
    from repro.server.faults import FaultSchedule, SheddingPolicy
    from repro.server.scenario import (
        analytic_phase_bounds,
        compile_scenario,
        parse_farm_spec,
        parse_trick_spec,
        simulate_scenario,
    )

    if args.n is not None and len(args.n) > 1:
        print("error: scenario runs take a single --n, not a sweep "
              "grid", file=sys.stderr)
        return 2
    if args.farm_spec is not None:
        specs = parse_farm_spec(args.farm_spec)
    else:
        specs = (spec,) * args.disks
    schedule = (FaultSchedule.from_toml(args.faults)
                if args.faults is not None else None)
    trick = tuple(parse_trick_spec(text) for text in (args.trick or ()))

    # Farm admission binds at the weakest disk (core.farm rule), so the
    # shedding limit of a heterogeneous layout is the per-disk minimum.
    limits = [degraded_mode_n_max(s, sizes, args.t, args.delta)
              for s in specs]
    healthy_n_max = min(limit[0] for limit in limits)
    degraded_n_max = min(limit[1] for limit in limits)
    n_per_disk = args.n[0] if args.n else healthy_n_max
    policy = (None if args.no_shed
              else SheddingPolicy(degraded_n_max, mode=args.shed_mode))
    compiled = compile_scenario(
        specs, sizes, n_per_disk=n_per_disk, t=args.t,
        rounds=args.server_rounds, schedule=schedule, policy=policy,
        trick=trick, rejoin_rounds=args.rejoin_rounds)
    est = simulate_scenario(compiled, seed=args.seed, jobs=args.jobs)
    bounds = analytic_phase_bounds(compiled)
    rows = []
    for phase, comparison in zip(est.phases,
                                 bound_table_from_estimate(est, bounds)):
        if phase.disk_rounds == 0:
            continue
        low, high = phase.glitch_ci()
        within = comparison.within_bound
        rows.append([phase.name, str(phase.rounds),
                     str(phase.disk_rounds),
                     format_probability(phase.p_late),
                     (format_probability(comparison.bound)
                      if comparison.bound is not None else "-"),
                     "-" if within is None else ("yes" if within
                                                 else "NO"),
                     format_probability(phase.glitch_rate),
                     f"[{format_probability(low)}, "
                     f"{format_probability(high)}]"])
    source = args.faults if args.faults is not None else "no schedule"
    print(render_table(
        ["phase", "rounds", "disk-rounds", "p_late", "b_late bound",
         "within", "glitch rate", "glitch 95% CI"], rows,
        title=f"scenario kernel ({source}, {compiled.disks} disks, "
        f"n/disk={n_per_disk}, "
        f"shedding {'off' if args.no_shed else 'on'})"))
    for line in compiled.describe():
        print(f"  {line}")
    degraded = [p for p in est.phases
                if p.name.startswith("degraded") and p.disk_rounds]
    if degraded:
        worst = max(p.glitch_rate for p in degraded)
        within = worst <= args.delta
        print(f"  degraded glitch rate vs delta={args.delta:g}: "
              f"{'within bound' if within else 'VIOLATED'}")
        return 0 if within or args.no_shed else 1
    return 0


def _cmd_worstcase(args: argparse.Namespace) -> int:
    spec = _spec(args)
    sizes = Gamma.from_mean_std(args.mean_kb * 1000.0,
                                args.std_kb * 1000.0)
    rows = []
    for quantile, rate, label in ((0.99, "min", "conservative"),
                                  (0.95, "mean", "optimistic")):
        rot, seek, trans = worst_case_components(spec, sizes, quantile,
                                                 rate)
        rows.append([label, f"{1e3 * trans:.1f}",
                     str(worst_case_n_max(args.t, rot, seek, trans))])
    print(render_table(
        ["variant", "T_trans^max [ms]", "N_max^wc"], rows,
        title=f"deterministic worst case (eq. 4.1, {spec.name})"))
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.analysis.sensitivity import admission_sensitivity

    rows = admission_sensitivity(
        _spec(args), mean_size=args.mean_kb * 1000.0,
        cv=args.std_kb / args.mean_kb, t=args.t, m=args.m, g=args.g,
        epsilon=args.epsilon, rel_delta=args.rel_delta)
    print(render_table(
        [f"parameter (+-{args.rel_delta:.0%})", "N_max low",
         "N_max base", "N_max high", "swing"],
        [[r.parameter, str(r.n_max_low), str(r.n_max_base),
          str(r.n_max_high), str(r.swing)] for r in rows],
        title="admission-limit sensitivity"))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.core.tuning import tune_round_length

    tuning = tune_round_length(
        _spec(args), display_bandwidth=args.mean_kb * 1000.0,
        cv=args.std_kb / args.mean_kb,
        playback_seconds=args.playback)
    print(render_table(
        ["round t [s]", "N_max", "bandwidth [MB/s]",
         "startup delay [s]"],
        [[f"{p.t:g}", str(p.n_max), f"{p.bandwidth / 1e6:.2f}",
          f"{p.startup_delay:g}"] for p in tuning.points],
        title="round-length sweep"))
    print(f"\nknee: t = {tuning.knee.t:g} s "
          f"({tuning.knee.bandwidth / 1e6:.2f} MB/s, "
          f">= {tuning.knee_fraction:.0%} of peak)")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.distributions.fit import fit_fragment_sizes
    from repro.workload.trace_io import load_trace

    sample = load_trace(args.trace)
    results = fit_fragment_sizes(sample, cap=args.cap)
    print(render_table(
        ["law", "mean [KB]", "sd [KB]", "KS statistic", "KS p-value"],
        [[r.name, f"{r.distribution.mean() / 1e3:.1f}",
          f"{r.distribution.std() / 1e3:.1f}",
          f"{r.ks_statistic:.4f}", f"{r.ks_pvalue:.3g}"]
         for r in results],
        title=f"fragment-size fits ({sample.size} samples, "
        f"best first)"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import write_report

    target = write_report(args.output)
    print(f"report written to {target}")
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    spec = _spec(args)
    if spec.zone_map.zones == 1:
        print("single-zone disk: the Gamma transfer time is exact; "
              "nothing to approximate", file=sys.stderr)
        return 1
    sizes = Gamma.from_mean_std(args.mean_kb * 1000.0,
                                args.std_kb * 1000.0)
    transfer = MultiZoneTransferModel(spec.zone_map, sizes)
    report = transfer.approximation_report(args.t_lo * 1e-3,
                                           args.t_hi * 1e-3)
    print(render_table(
        ["quantity", "value"],
        [
            ["E[T_trans] [ms]", f"{1e3 * transfer.mean():.3f}"],
            ["sd[T_trans] [ms]", f"{1e3 * transfer.var() ** 0.5:.3f}"],
            ["max density error",
             f"{100 * report.max_relative_error:.2f} %"],
        ],
        title=f"Gamma approximation (eq. 3.2.10) on "
        f"{args.t_lo:g}-{args.t_hi:g} ms"))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.dir is not None:
        store = set_persistent_cache_dir(args.dir)
    else:
        store = get_persistent_cache()
    if args.action == "path":
        print(store.path if store is not None else default_cache_dir()
              / "bounds.sqlite")
        return 0
    if store is None:
        print("persistent cache disabled (REPRO_PERSISTENT_CACHE=0)",
              file=sys.stderr)
        return 1 if args.action == "clear" else 0
    if args.action == "clear":
        dropped = store.clear()
        print(f"cleared {dropped} cached bound(s) from {store.path}")
        return 0
    stats = store.stats.snapshot()
    print(render_table(
        ["quantity", "value"],
        [
            ["location", str(store.path)],
            ["enabled", str(persistent_cache_enabled())],
            ["entries", str(store.entry_count())],
            ["capacity (LRU)", str(store.max_entries)],
            ["session hits", str(stats.hits)],
            ["session misses", str(stats.misses)],
            ["session writes", str(stats.writes)],
            ["session errors", str(stats.errors)],
            ["session evictions (LRU)", str(stats.evictions)],
        ],
        title="persistent Chernoff-bound cache"))
    mem = cache_stats()
    hist = get_cache().solve_histogram
    rows = [
        ["entries", str(len(get_cache()))],
        ["hits", str(mem.hits)],
        ["misses", str(mem.misses)],
        ["disk hits", str(mem.disk_hits)],
        ["evictions", str(mem.evictions)],
        ["uncached evaluations", str(mem.uncached)],
        ["solves", str(hist.count)],
        ["solve time total [s]", f"{mem.solve_seconds:.4f}"],
    ]
    if hist.count:
        rows.append(["solve time mean [ms]", f"{1e3 * hist.mean:.3f}"])
        rows.append(["solve time p95 [ms]",
                     f"{1e3 * hist.quantile(0.95):.3f}"])
        rows.append(["solve time max [ms]", f"{1e3 * hist.max:.3f}"])
    print(render_table(
        ["quantity", "value"], rows,
        title="in-memory bound cache (this process)"))
    return 0


def _render_spans(records) -> None:
    """The ``--spans`` section: per-name root summary, then the
    slowest tree of each name with its critical path."""
    roots = build_span_trees(records)
    if not roots:
        print("no spans recorded (trace written without span "
              "instrumentation?)")
        return
    groups: dict[str, list] = {}
    for root in roots:
        groups.setdefault(root.name, []).append(root)
    rows = []
    for name in sorted(groups):
        group = groups[name]
        timed = [r.seconds for r in group if r.seconds is not None]
        incomplete = sum(1 for root in group
                         for node in root.walk() if not node.complete)
        rows.append([
            name, str(len(group)),
            f"{1e3 * sum(timed) / len(timed):.2f}" if timed else "-",
            f"{1e3 * max(timed):.2f}" if timed else "-",
            str(incomplete) if incomplete else ""])
    print(render_table(
        ["root span", "count", "mean [ms]", "max [ms]", "incomplete"],
        rows, title="span trees"))
    for name in sorted(groups):
        slowest = max(groups[name],
                      key=lambda root: root.seconds or 0.0)
        print(f"slowest {name}:")
        for line in render_span_tree(slowest, indent="  "):
            print(line)
        path = critical_path(slowest)
        if len(path) > 1:
            print("  critical path: "
                  + " -> ".join(node.name for node in path))


def _cmd_observe(args: argparse.Namespace) -> int:
    """``repro observe TRACE.jsonl``: reconstruct a recorded run --
    slowest sweeps, glitch timeline, bound-vs-observed table."""
    records, damage = read_trace_lenient(args.trace)
    if not records:
        detail = damage[0] if damage else "the file is empty"
        print(f"error: {args.trace} holds no readable trace records "
              f"({detail})", file=sys.stderr)
        return 1
    for problem in damage:
        print(f"trace damage: {problem}", file=sys.stderr)
    problems = validate_trace(records)
    for problem in problems:
        print(f"schema problem: {problem}", file=sys.stderr)
    if problems and args.validate:
        return 1
    telemetry = RunTelemetry.from_records(records)
    header = telemetry.header
    print(f"trace {args.trace}: {len(records)} records, "
          f"{telemetry.round_count} rounds, "
          f"schema {header.get('schema', '?')}, "
          f"seed {header.get('seed', '?')}, "
          f"mode {header.get('mode', '?')}")

    top = telemetry.top_latency(args.top)
    if top:
        print(render_table(
            ["round", "disk", "service [ms]", "late", "served",
             "glitched"],
            [[str(s.round_index), str(s.disk), f"{1e3 * s.service:.2f}",
              "yes" if s.late else "", str(s.served), str(s.glitched)]
             for s in top],
            title=f"top {len(top)} latency contributors"))
    else:
        print("no sweeps recorded (not a server trace?)")

    summary = telemetry.latency_summary()
    if summary:
        print(render_table(
            ["class", "streams", "fragments", "mean [ms]", "p50 [ms]",
             "p95 [ms]", "max [ms]"],
            [[c.klass, str(len(c.streams)), str(c.count),
              f"{1e3 * c.mean:.2f}", f"{1e3 * c.quantile(0.5):.2f}",
              f"{1e3 * c.quantile(0.95):.2f}", f"{1e3 * c.max:.2f}"]
             for c in summary],
            title="fragment-completion latency by stream class"))

    timeline = telemetry.glitch_timeline()
    if timeline:
        peak = max(count for _, count in timeline)
        print(render_table(
            ["round", "glitches", ""],
            [[str(r), str(count), "#" * max(1, round(30 * count / peak))]
             for r, count in timeline],
            title="glitch timeline"))
    else:
        print("no glitches recorded")

    comparisons = [row for row in telemetry.bound_table()
                   if row.disk_rounds]
    if comparisons:
        rendered = []
        for row in comparisons:
            if row.within_bound is None:
                verdict = "no bound recorded"
            elif row.within_bound:
                verdict = "within bound"
            else:
                verdict = "VIOLATED"
            rendered.append([
                row.phase, str(row.rounds), str(row.disk_rounds),
                str(row.late_disk_rounds),
                format_probability(row.observed_p_late),
                format_probability(row.bound) if row.bound is not None
                else "-",
                verdict])
        print(render_table(
            ["phase", "rounds", "sweeps", "late", "observed p_late",
             "b_late bound", "verdict"],
            rendered, title="bound vs observed"))

    if args.window:
        rendered = []
        for row in telemetry.windowed_bound_table(args.window):
            if not row.disk_rounds:
                continue
            if row.within_bound is None:
                verdict = "no bound recorded"
            elif row.within_bound:
                verdict = "within bound"
            else:
                verdict = "VIOLATED"
            rendered.append([
                row.phase, str(row.disk_rounds),
                str(row.late_disk_rounds),
                format_probability(row.observed_p_late),
                format_probability(row.bound) if row.bound is not None
                else "-",
                verdict])
        if rendered:
            print(render_table(
                ["window", "sweeps", "late", "observed p_late",
                 "bound", "verdict"],
                rendered,
                title=f"bound vs observed per {args.window}-round "
                      f"window"))

    for record in telemetry.faults:
        print(f"  fault: {record.get('desc', record)}")
    if telemetry.sheds:
        paused = sum(1 for r in telemetry.sheds
                     if r.get("kind") == "stream_shed")
        resumed = sum(1 for r in telemetry.sheds
                      if r.get("kind") == "stream_resume")
        print(f"  shedding: {paused} shed, {resumed} resumed")
    if args.spans:
        _render_spans(records)
    # A damaged tail still gets the prefix summarised above, but the
    # exit code must flag that the trace is not the whole story.
    return 1 if damage else 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """``repro slo TRACE.jsonl``: replay a recorded trace through the
    ε error-budget tracker and report burn rates + alert history."""
    records, damage = read_trace_lenient(args.trace)
    if not records:
        detail = damage[0] if damage else "the file is empty"
        print(f"error: {args.trace} holds no readable trace records "
              f"({detail})", file=sys.stderr)
        return 1
    for problem in damage:
        print(f"trace damage: {problem}", file=sys.stderr)
    report = slo_report_from_records(
        records, epsilon=args.epsilon, delta=args.delta,
        m=args.m, g=args.g,
        fast_window=args.fast_window, slow_window=args.slow_window)
    if not report["observed_rounds"]:
        print("error: trace has no per-round observations (need "
              "round_observe records from 'repro serve --trace' or "
              "sweep records from 'repro simulate --trace')",
              file=sys.stderr)
        return 1

    def burn(value):
        return f"{value:.3f}" if value is not None else "(no budget)"

    rows = [
        ["epsilon / delta",
         f"{report['epsilon']:g} / {report['delta']:g}"],
        ["stream shape (m, g)", f"({report['m']}, {report['g']})"],
        ["per-slot budget (healthy)",
         format_probability(report['budget_per_slot'])],
        ["per-slot budget (degraded)",
         format_probability(report['degraded_budget_per_slot'])],
        ["rounds observed", str(report["observed_rounds"])],
        ["degraded rounds", str(report["degraded_rounds"])],
        ["slots served", str(report["slots"])],
        ["slots glitched", str(report["glitched_slots"])],
        ["budget spent", burn(report["budget_spent"])],
        ["budget remaining", burn(report["budget_remaining"])],
        [f"fast burn ({report['fast_window_rounds']} rounds)",
         burn(report["fast_burn"])],
        [f"slow burn ({report['slow_window_rounds']} rounds)",
         burn(report["slow_burn"])],
        ["max fast burn",
         f"{report['max_fast_burn']:.3f}"
         + (f" (round {report['max_fast_burn_round']})"
            if report["max_fast_burn_round"] is not None else "")],
        ["final state", report["state"]],
        ["pages / warnings",
         f"{report['pages']} / {report['warnings']}"],
    ]
    if report["first_page_round"] is not None:
        rows.append(["first page round",
                     str(report["first_page_round"])])
    print(render_table(["quantity", "value"], rows,
                       title="epsilon error-budget report"))
    if report["transitions"]:
        print(render_table(
            ["round", "from", "to", "fast burn", "slow burn"],
            [[str(t["round"]), t["from"], t["to"],
              burn(t["fast_burn"]), burn(t["slow_burn"])]
             for t in report["transitions"]],
            title="alert transitions"))
    if report["pages"]:
        print(f"verdict: PAGE -- the fast window burned >= "
              f"{report['page_burn']:g}x the sustainable epsilon rate",
              file=sys.stderr)
        return 1
    print(f"verdict: {report['state']} -- budget burn within the "
          f"stream tolerance")
    return 1 if damage else 0


#: How often ``repro serve`` checks for a trapped SIGTERM/SIGINT.
_STOP_POLL_S = 0.05


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the live admission daemon until --duration elapses, a
    SIGTERM/SIGINT arrives, or the operator interrupts it."""
    import math
    import signal
    import time
    from pathlib import Path

    from repro.serve import (FaultFeed, RoundTicker, ServeConfig,
                             ServeDaemon, ServeHandle)
    from repro.server.faults import FaultSchedule

    sizes = Gamma.from_mean_std(args.mean_kb * 1000.0,
                                args.std_kb * 1000.0)
    config = ServeConfig(spec=_spec(args), size_dist=sizes, t=args.t,
                         epsilon=args.epsilon, delta=args.delta,
                         m=args.m, g=args.g, disks=args.disks,
                         shed_mode=args.shed_mode,
                         adaptive=args.adaptive,
                         snapshot_path=args.snapshot_path,
                         probe_seed=args.probe_seed,
                         slo_fast_window=args.slo_fast_window,
                         slo_slow_window=args.slo_slow_window)
    tracer = Tracer(sink=args.trace) if args.trace else NULL_TRACER
    daemon = ServeDaemon(config, tracer=tracer)
    schedule = (FaultSchedule.from_toml(args.fault_schedule)
                if args.fault_schedule else None)
    if schedule is not None:
        schedule.validate_disks(args.disks)
    handle = ServeHandle(daemon, host=args.host, port=args.port)

    # Graceful shutdown: SIGTERM/SIGINT are trapped before the server
    # accepts its first request, so a signal sent as soon as the port
    # file appears still stops the daemon cleanly.  The handler only
    # records the signal -- taking a lock there (Event.set) can
    # deadlock against the frame it interrupted -- and the wait loop
    # polls for it; the finally block snapshots the ledger and joins
    # every feed/server thread.  Registration fails with ValueError
    # off the main thread (the in-process test harness) -- interrupts
    # then fall through to the KeyboardInterrupt path below.
    received: list[int] = []
    previous: dict = {}
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(
                signum, lambda sig, frame: received.append(sig))
    except ValueError:
        previous = {}
    try:
        handle.start()
        if args.port_file:
            Path(args.port_file).write_text(f"{handle.port}\n",
                                            encoding="utf-8")
        print(f"repro serve: listening on {handle.url} "
              f"(n_max={daemon.controller.n_max_per_disk}/disk x "
              f"{args.disks} disks, degraded={daemon.degraded_n_max}, "
              f"table build {daemon.build_seconds * 1e3:.1f} ms)")
        if daemon.state()["restored"]:
            print(f"repro serve: restored snapshot "
                  f"{args.snapshot_path} "
                  f"({daemon.controller.active} active stream(s))")
        if schedule is not None:
            feed = FaultFeed(daemon, schedule,
                             time_scale=args.time_scale).start()
            handle.attach(feed)
            print(f"repro serve: replaying {len(schedule)} fault "
                  f"event(s) at time scale {args.time_scale:g}")
        interval = args.round_interval
        if interval is None:
            interval = 0.2 if args.adaptive else 0.0
        if interval > 0:
            handle.attach(RoundTicker(daemon, interval=interval).start())
            print(f"repro serve: probing one round every {interval:g}s"
                  + (" (adaptive control on)" if args.adaptive else ""))
        deadline = (math.inf if args.duration is None
                    else time.monotonic() + args.duration)
        while (not received
               and (remaining := deadline - time.monotonic()) > 0.0):
            time.sleep(min(_STOP_POLL_S, remaining))
    except KeyboardInterrupt:  # pragma: no cover - interactive mode
        received.append(signal.SIGINT)
    finally:
        handle.stop()
        written = daemon.save_snapshot(clean=True)
        if tracer.enabled:
            tracer.end_run()
            tracer.close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    snap = daemon.controller.snapshot()
    reason = "signal" if received else "duration elapsed"
    print(f"repro serve: stopped ({reason}) after "
          f"{time.time() - daemon.started_at:.1f}s -- "
          f"{snap['requests']} requests, "
          f"{snap['requests'] - snap['rejections']} admitted, "
          f"{snap['rejections']} rejected, {snap['active']} active")
    if args.adaptive:
        view = daemon.control_state()["controller"]
        print(f"repro serve: controller state={view['state']} "
              f"retunes={view['retunes']} "
              f"watchdog_trips={view['watchdog_trips']} "
              f"n_max={view['n_max']} t_mult={view['t_mult']:g}")
    if written is not None:
        print(f"repro serve: clean snapshot written to {written}")
    if args.metrics:
        daemon.registry.write_json(args.metrics)
        print(f"metrics written to {args.metrics}")
    if args.trace:
        print(f"repro serve: trace written to {args.trace} "
              f"(inspect with 'repro observe --spans' / 'repro slo')")
    return 0


def _resolve_serve_url(args: argparse.Namespace) -> str:
    from pathlib import Path

    if args.url:
        return args.url
    if args.port_file:
        port = int(Path(args.port_file).read_text().strip())
        return f"http://127.0.0.1:{port}"
    raise ConfigurationError("need --url or --port-file")


def _cmd_admit(args: argparse.Namespace) -> int:
    """Load-generation client for a running ``repro serve`` daemon."""
    import json as _json

    from repro.serve import ServeClient

    client = ServeClient(_resolve_serve_url(args))
    try:
        if args.fault:
            result = client.fault(args.fault, disk=args.disk,
                                  factor=args.factor)
            print(_json.dumps(result))
        if args.until_reject:
            admitted = client.admit_until_reject()
            print(f"admitted {admitted} stream(s) before rejection")
        elif args.count and args.batch:
            result = client.admit_many(args.count, batch=args.batch)
            print(f"admitted {result['granted']}/{args.count} "
                  f"stream(s) in batches of {args.batch}")
        elif args.count:
            admitted = sum(client.admit()["admitted"]
                           for _ in range(args.count))
            print(f"admitted {admitted}/{args.count} stream(s)")
        if args.release and args.batch:
            streams = client.state()["streams"][:args.release]
            result = client.release_many(streams, batch=args.batch)
            print(f"released {len(result['released'])} stream(s) in "
                  f"batches of {args.batch}")
        elif args.release:
            for _ in range(args.release):
                client.release()
            print(f"released {args.release} stream(s)")
        if args.snapshot:
            print(_json.dumps(client.snapshot()))
        if args.scrape:
            print(client.metrics(), end="")
        if args.state:
            print(_json.dumps(client.state(), indent=2,
                              sort_keys=True))
        if args.control:
            print(_json.dumps(client.control(), indent=2,
                              sort_keys=True))
    finally:
        client.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stochastic service guarantees for continuous data "
        "on multi-zone disks (PODS'97 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("admission", help="compute N_max limits")
    _add_common(p)
    p.add_argument("--delta", type=float, default=0.01,
                   help="round-lateness tolerance (eq. 3.1.7)")
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="stream-error tolerance (eq. 3.3.6)")
    p.add_argument("-m", type=int, default=1200,
                   help="rounds per stream (playback length)")
    p.add_argument("-g", type=int, default=12,
                   help="tolerated glitches per stream")
    p.set_defaults(func=_cmd_admission)

    p = sub.add_parser("plate", help="tabulate b_late(N, t)")
    _add_common(p)
    p.add_argument("--n-from", type=int, default=20)
    p.add_argument("--n-to", type=int, default=32)
    p.set_defaults(func=_cmd_plate)

    p = sub.add_parser("simulate", help="Monte-Carlo validation")
    _add_common(p)
    p.add_argument("--n", type=_n_list, default=None,
                   help="multiprogramming level to simulate; a "
                   "comma-separated list (e.g. 20,24,28) sweeps the "
                   "grid through one shared worker pool (with "
                   "--faults: streams per disk, default the healthy "
                   "analytic limit)")
    p.add_argument("--rounds", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the Monte-Carlo fan-out "
                   "(0 = all cores; results are bit-identical for any "
                   "value; default: historical serial path)")
    p.add_argument("--perror", action="store_true",
                   help="also estimate the stream-level p_error")
    p.add_argument("-m", type=int, default=1200)
    p.add_argument("-g", type=int, default=12)
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--faults", default=None, metavar="SCHEDULE.toml",
                   help="run the event-driven mirrored server through "
                   "this fault schedule instead of the vectorised "
                   "Monte-Carlo (see docs/ROBUSTNESS.md)")
    p.add_argument("--engine", choices=("event", "kernel"),
                   default="event",
                   help="scenario backend: the exact event-driven "
                   "server (default) or the scenario compiler on the "
                   "vectorised farm sweep kernel (statistically "
                   "equivalent, much faster; handles any fault "
                   "schedule plus --trick and --farm-spec)")
    p.add_argument("--trick", action="append", default=None,
                   metavar="START:END:NFF:K",
                   help="trick-mode segment: during rounds [START, "
                   "END) each disk serves NFF scan-mode fast-forward "
                   "streams at K-times speed (repeatable; --engine "
                   "kernel only)")
    p.add_argument("--farm-spec", default=None,
                   metavar="PRESET[,PRESET...]",
                   help="heterogeneous farm layout, one disk preset "
                   "per disk in mirror order (overrides --disks; "
                   "presets: quantum_viking_2_1, single_zone_viking, "
                   "seagate_hawk_1lp, modern_av_drive)")
    p.add_argument("--profile", action="store_true",
                   help="profile the run with cProfile and print the "
                   "top cumulative hot spots")
    p.add_argument("--disks", type=int, default=2,
                   help="farm size for --faults (even, mirrored pairs)")
    p.add_argument("--server-rounds", type=int, default=300,
                   help="rounds to run the event-driven server under "
                   "--faults")
    p.add_argument("--delta", type=float, default=0.01,
                   help="round-lateness tolerance for the degraded-mode "
                   "bound under --faults")
    p.add_argument("--no-shed", action="store_true",
                   help="disable load shedding under --faults (the "
                   "survivor absorbs the full doubled batch)")
    p.add_argument("--shed-mode", choices=("pause", "drop"),
                   default="pause",
                   help="shed by pausing (resume on recovery) or "
                   "dropping streams")
    p.add_argument("--rejoin-rounds", type=int, default=0,
                   help="--engine kernel with --shed-mode drop: ramp "
                   "the recovered-phase population from the shed level "
                   "back to n_per_disk over this many rounds (0: hold "
                   "the shed level; see docs/ROBUSTNESS.md)")
    p.add_argument("--trace", default=None, metavar="TRACE.jsonl",
                   help="record a structured event trace to this JSONL "
                   "file (inspect with 'repro observe')")
    p.add_argument("--metrics", default=None, metavar="METRICS.json",
                   help="write the run's metrics registry (counters, "
                   "gauges, histograms) to this JSON file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("worstcase",
                       help="deterministic worst case (eq. 4.1)")
    _add_common(p)
    p.set_defaults(func=_cmd_worstcase)

    p = sub.add_parser("approx",
                       help="multi-zone Gamma approximation quality")
    _add_common(p)
    p.add_argument("--t-lo", type=float, default=5.0,
                   help="range start in ms")
    p.add_argument("--t-hi", type=float, default=100.0,
                   help="range end in ms")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("sensitivity",
                       help="N_max sensitivity to parameters")
    _add_common(p)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("-m", type=int, default=1200)
    p.add_argument("-g", type=int, default=12)
    p.add_argument("--rel-delta", type=float, default=0.10)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("tune", help="round-length knee finder")
    _add_common(p)
    p.add_argument("--playback", type=float, default=1200.0,
                   help="stream length in seconds")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("fit",
                       help="fit size laws to a fragment trace CSV")
    p.add_argument("trace", help="trace file from workload.trace_io")
    p.add_argument("--cap", type=float, default=None,
                   help="truncation cap in bytes for heavy tails")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("report",
                       help="write the reproduction report markdown")
    p.add_argument("--output", default="reproduction_report.md")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("cache",
                       help="inspect or clear the persistent bound "
                       "cache")
    p.add_argument("action", choices=("stats", "clear", "path"),
                   help="stats: counters and location; clear: drop all "
                   "persisted bounds; path: print the sqlite file path")
    p.add_argument("--dir", default=None, metavar="DIR",
                   help="operate on this cache directory instead of "
                   "the default")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("serve",
                       help="run the live admission-control daemon "
                       "(HTTP /admit /release /fault /metrics "
                       "/healthz /state)")
    _add_common(p)
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="stream-error tolerance for the admission "
                   "table")
    p.add_argument("--delta", type=float, default=0.01,
                   help="round-lateness tolerance for the "
                   "degraded-mode bound")
    p.add_argument("-m", type=int, default=1200,
                   help="rounds per stream (playback length)")
    p.add_argument("-g", type=int, default=12,
                   help="tolerated glitches per stream")
    p.add_argument("--disks", type=int, default=2,
                   help="farm size the daemon admits against")
    p.add_argument("--shed-mode", choices=("pause", "drop"),
                   default="pause",
                   help="shed by pausing (resume on recovery) or "
                   "dropping streams")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: loopback)")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0: ephemeral; see --port-file)")
    p.add_argument("--port-file", default=None, metavar="FILE",
                   help="write the bound port here (for scripts using "
                   "--port 0)")
    p.add_argument("--fault-schedule", default=None,
                   metavar="SCHEDULE.toml",
                   help="replay this fault schedule against the live "
                   "daemon (times scaled by --time-scale)")
    p.add_argument("--time-scale", type=float, default=1.0,
                   help="wall seconds per schedule second when "
                   "replaying --fault-schedule")
    p.add_argument("--duration", type=float, default=None,
                   help="serve for this many seconds then exit "
                   "(default: until interrupted)")
    p.add_argument("--adaptive", action="store_true",
                   help="run the closed-loop controller: retune "
                   "(N_max, t) online from observed round lateness "
                   "(docs/ROBUSTNESS.md)")
    p.add_argument("--round-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="probe one service round this often "
                   "(default: 0.2 with --adaptive, off otherwise)")
    p.add_argument("--snapshot-path", default=None,
                   metavar="SNAPSHOT.json",
                   help="crash-safe ledger snapshot: restored on "
                   "start, refreshed on faults/retunes, written "
                   "clean on shutdown")
    p.add_argument("--probe-seed", type=int, default=0,
                   help="seed of the deterministic round probe")
    p.add_argument("--metrics", default=None, metavar="METRICS.json",
                   help="write the final metrics registry to this "
                   "JSON file on shutdown")
    p.add_argument("--trace", default=None, metavar="TRACE.jsonl",
                   help="record spans + round observations to this "
                   "JSONL file (reconstruct admit trees with 'repro "
                   "observe --spans', replay the budget with "
                   "'repro slo')")
    p.add_argument("--slo-fast-window", type=int, default=32,
                   metavar="ROUNDS",
                   help="fast burn-rate window of the epsilon error "
                   "budget, in probed rounds (storm detector -> "
                   "page)")
    p.add_argument("--slo-slow-window", type=int, default=256,
                   metavar="ROUNDS",
                   help="slow burn-rate window in probed rounds "
                   "(leak detector -> warn)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("admit",
                       help="client for a running 'repro serve' "
                       "daemon: drive admissions, inject faults, "
                       "scrape metrics")
    p.add_argument("--url", default=None,
                   help="daemon base URL (e.g. http://127.0.0.1:8080)")
    p.add_argument("--port-file", default=None, metavar="FILE",
                   help="read the daemon port from this file "
                   "(written by 'repro serve --port-file')")
    p.add_argument("--count", type=int, default=0, metavar="N",
                   help="attempt N admissions")
    p.add_argument("--batch", type=int, default=0, metavar="K",
                   help="use the batch endpoints, K tickets per "
                   "request (with --count/--release; 0: one "
                   "request per ticket)")
    p.add_argument("--until-reject", action="store_true",
                   help="admit until the daemon rejects; print the "
                   "count")
    p.add_argument("--release", type=int, default=0, metavar="N",
                   help="release N streams (oldest first)")
    p.add_argument("--fault", default=None,
                   choices=("disk_fail", "disk_recover", "slow_disk"),
                   help="inject this fault event before admitting")
    p.add_argument("--disk", type=int, default=0,
                   help="disk index for --fault")
    p.add_argument("--factor", type=float, default=1.0,
                   help="service drift factor for --fault slow_disk")
    p.add_argument("--scrape", action="store_true",
                   help="print the daemon's /metrics exposition")
    p.add_argument("--state", action="store_true",
                   help="print the daemon's /state JSON")
    p.add_argument("--control", action="store_true",
                   help="print the daemon's /control JSON (window "
                   "aggregates, controller state)")
    p.add_argument("--snapshot", action="store_true",
                   help="ask the daemon to persist its crash-safe "
                   "snapshot now")
    p.set_defaults(func=_cmd_admit)

    p = sub.add_parser("observe",
                       help="summarise a recorded trace: slow sweeps, "
                       "glitch timeline, bound vs observed")
    p.add_argument("trace", metavar="TRACE.jsonl",
                   help="trace file from 'repro simulate --trace'")
    p.add_argument("--top", type=int, default=10,
                   help="how many of the slowest sweeps to list")
    p.add_argument("--window", type=int, default=None, metavar="N",
                   help="also show bound-vs-observed over trailing "
                   "N-round windows (the live controller's view)")
    p.add_argument("--validate", action="store_true",
                   help="exit non-zero when the trace fails schema "
                   "validation")
    p.add_argument("--spans", action="store_true",
                   help="reconstruct span trees (client -> HTTP -> "
                   "admission -> ledger) and print the critical path "
                   "of the slowest tree per root name")
    p.set_defaults(func=_cmd_observe)

    p = sub.add_parser("slo",
                       help="offline epsilon error-budget report: "
                       "replay a recorded trace through the "
                       "burn-rate tracker")
    p.add_argument("trace", metavar="TRACE.jsonl",
                   help="trace file from 'repro serve --trace' or "
                   "'repro simulate --trace'")
    p.add_argument("--epsilon", type=float, default=None,
                   help="stream-error tolerance (default: the value "
                   "stamped in the trace header, else 0.01)")
    p.add_argument("--delta", type=float, default=None,
                   help="degraded-mode tolerance (default: header, "
                   "else 0.01)")
    p.add_argument("-m", type=int, default=None,
                   help="rounds per stream (default: header, else "
                   "1200)")
    p.add_argument("-g", type=int, default=None,
                   help="tolerated glitches per stream (default: "
                   "header, else 12)")
    p.add_argument("--fast-window", type=int, default=32,
                   metavar="ROUNDS",
                   help="fast burn-rate window in rounds")
    p.add_argument("--slow-window", type=int, default=256,
                   metavar="ROUNDS",
                   help="slow burn-rate window in rounds")
    p.set_defaults(func=_cmd_slo)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None:
        set_persistent_cache_dir(cache_dir)
    disabled = bool(getattr(args, "no_cache", False))
    if disabled:
        set_cache_enabled(False)
    try:
        return args.func(args)
    except Exception as exc:  # surface library errors as CLI errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if disabled:
            set_cache_enabled(True)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
