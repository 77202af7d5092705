"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``compile FILE.cstar``
    Compile a C** source file and print the access summaries, the
    reaching-unstructured-accesses results, and the placed directives.

``run FILE.cstar [--protocol P] [--nodes N] [--block-size B] [--unoptimized]``
    Compile and execute on a simulated machine; print the paper-style time
    breakdown (optionally ``--trace-stats``).

``figure {table1,fig5,fig6,fig7}``
    Regenerate a table/figure of the paper.

``ablation {coalescing,incremental,flush,blocks}``
    Run one of the design-choice ablations.

``model [APP] [--validate | --calibrate | --suite]``
    The analytical performance model (``repro.model``): predict a run's
    statistics in closed form — no event loop — from the compiler's access
    summaries, the machine parameters, and the protocol.  ``--validate``
    simulates the same configuration and prints both side by side;
    ``--calibrate`` fits the per-protocol residual coefficients from short
    reference sims; ``--suite`` cross-validates model vs. simulator over
    the full Figure-5/6/7 matrix and gates the committed error budgets
    (``--quick`` for the CI subset, ``--write``/``--check`` for the
    ``benchmarks/MODEL_validation.json`` artifact).

``sweep APP --axis name=v1,v2,... [--model] [--out FILE]``
    Cartesian machine-parameter grids.  The default backend simulates
    every point; ``--model`` predicts each point analytically —
    milliseconds for grids that take the simulator minutes, since
    cost-axis points reuse one cached walk.  Both backends emit identical
    document shapes, so exported grids (atomic ``.json``/``.csv``) are
    diffable point by point.

``audit``
    Statically audit the shipped protocols' transition tables.

``verify [--seeds N] [--replay SEED] [--dfs N]``
    Dynamically verify the shipped protocols: fuzz seeded workloads under
    adversarial message interleavings with the coherence-invariant monitor
    and the differential oracle attached; optionally model-check a few
    workloads exhaustively (bounded DFS).  Violations print a minimized,
    seed-replayable counterexample.

``faults [--plans P,Q] [--crash] [--seeds N] [--variants N] [--list-plans]``
    Run the fault-injection campaign: every bundled fault plan (message
    drops, duplicates, delays, handler stalls, schedule staleness and
    corruption) against generated workloads and the bundled traces, under
    the invariant monitor and differential oracle.  ``--crash`` selects the
    crash-stop plans instead (node failures with detection, coherence-state
    recovery, and restart).  A failing stochastic run is replayed through a
    scripted plan and shrunk to a minimal fault reproducer;
    ``--dump-scripts DIR`` archives each reproducer as replayable JSON.
    Also checks the deliberately unrecoverable plan fails fast with
    structured context.

``corpus doctor DIR [--compact] [--scrub]``
    Inspect (and optionally compact/scrub) a durable schedule corpus.
    Opening a corpus is itself the repair: torn tails are truncated and
    damaged records quarantined, so the doctor reports what a run would
    see.  ``run``, ``verify``, ``faults``, ``bench``, ``figure``, and
    ``reproduce`` all accept ``--corpus DIR`` to warm-start from (and,
    where learning is fault-free, harvest into) the same store.
"""

from __future__ import annotations

import argparse
import sys

from repro.util.errors import ReproError


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.cstar import compile_source

    source = open(args.file).read()
    program = compile_source(source)
    if args.dump_ast:
        from repro.cstar.pprint import pprint_program

        print(pprint_program(program.info.program))
        print("// --- analysis ---")
    print(program.describe())
    if args.verbose:
        analysis = program.placement.analysis
        print("\nreaching unstructured accesses (per call site):")
        from repro.cstar.flow import iter_calls

        for call in iter_calls(program.flow):
            reaching = sorted(analysis.reaching_set(call))
            needs = program.placement.needs_schedule[call.site_id]
            print(f"  {call.function}#{call.site_id}: reached by {reaching or '{}'}"
                  f"{'  [needs schedule]' if needs else ''}")
    return 0


def _simulate_file(args: argparse.Namespace, tracer=None, corpus=None):
    """Compile ``args.file`` and run it on a machine built from the common
    run/trace/profile options; returns (stats, config).

    With ``corpus``, the run warm-starts from schedules a previous run of
    the same (source, protocol, placement) persisted, and harvests what it
    learned back into the store afterwards.  The corpus key hashes the
    source text itself, so an edited program simply misses.
    """
    from repro.core import make_machine
    from repro.cstar import compile_source
    from repro.util.config import MachineConfig

    source = open(args.file).read()
    program = compile_source(source)
    cfg = MachineConfig(n_nodes=args.nodes, block_size=args.block_size,
                        page_size=max(args.page_size, args.block_size))
    warm = None
    key = None
    if corpus is not None:
        from repro.corpus import (corpus_key, placement_signature,
                                  program_signature, supports_warm)

        if supports_warm(args.protocol):
            key = corpus_key(program_signature(source), args.protocol,
                             placement_signature(cfg))
            entry = corpus.lookup(key, cfg.n_nodes)
            if entry is not None:
                warm = entry["records"]
    machine = make_machine(cfg, args.protocol, warm=warm)
    if tracer is not None:
        machine.attach_tracer(tracer)
    env = program.run(machine, optimized=not args.unoptimized)
    stats = env.finish()
    if key is not None:
        store = getattr(machine.protocol, "schedules", None)
        if store is not None:
            records = [s.to_record() for s in store.values() if s.entries]
            if records:
                corpus.store(key, {"protocol": args.protocol,
                                   "n_nodes": cfg.n_nodes,
                                   "records": records})
    return stats, cfg


def _run_meta(args: argparse.Namespace) -> dict:
    return dict(app=args.file, protocol=args.protocol, nodes=args.nodes,
                block_size=args.block_size, optimized=not args.unoptimized)


def _write_json(path: str, doc: dict) -> None:
    import pathlib

    from repro.util.atomicio import atomic_write_json

    out = pathlib.Path(path)
    if out.parent != pathlib.Path():
        out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(out, doc)


def _open_corpus(args):
    """Open the durable schedule corpus when ``--corpus DIR`` asks (else None).

    :func:`repro.corpus.open_corpus` never raises: an unusable directory
    degrades to a ``NullCorpus`` that warms nothing and stores nothing, so
    the command still runs — just cold, with a warning here.
    """
    root = getattr(args, "corpus", None)
    if not root:
        return None
    from repro.corpus import open_corpus

    corpus = open_corpus(root)
    if not corpus.ok:
        print(f"corpus: unusable ({corpus.reason}); running cold",
              file=sys.stderr)
    return corpus


def _farm_tracer(args):
    """An EventTrace for farm lifecycle events when ``--farm-events`` asks."""
    if getattr(args, "farm_events", None):
        from repro.obs import EventTrace

        return EventTrace()
    return None


def _write_farm_events(args, tracer) -> None:
    if tracer is None:
        return
    from repro.obs import write_jsonl

    n = write_jsonl(args.farm_events, tracer.events)
    print(f"farm events: {n} event(s) -> {args.farm_events}")


def _build_farm_transport(args, tracer):
    """The multi-host socket transport when ``--hosts N`` asks (else None).

    Binds immediately and prints the listen address; worker agents attach
    with ``repro farm-worker --connect HOST:PORT``.  ``--chaos-seed``
    wraps the transport in seeded drop/dup/delay/disconnect injection —
    reports must stay byte-identical regardless.
    """
    if not getattr(args, "hosts", None):
        return None
    from repro.farm import ChaosTransport, SocketTransport

    transport = SocketTransport(args.hosts, bind=args.bind, port=args.port,
                                tracer=tracer)
    print(f"farm: listening on {transport.host}:{transport.port}, waiting "
          f"for {args.hosts} worker agent(s) "
          f"(repro farm-worker --connect {transport.host}:{transport.port})")
    if args.chaos_seed is not None:
        transport = ChaosTransport(transport, seed=args.chaos_seed,
                                   tracer=tracer)
        print(f"farm: chaos injection armed (seed {args.chaos_seed})")
    return transport


def _cmd_farm_worker(args: argparse.Namespace) -> int:
    from repro.farm import worker_agent

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(f"error: --connect wants HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    return worker_agent(host, int(port), heartbeat=args.heartbeat,
                        watchdog=args.watchdog,
                        connect_timeout=args.connect_timeout,
                        max_attempts=args.connect_attempts,
                        label=args.label, progress=print)


def _export_trace(path: str, tracer, n_nodes: int) -> list[str]:
    """Write a Chrome trace and validate it; returns the problem list."""
    from repro.obs import validate_chrome_trace, write_chrome_trace

    doc = write_chrome_trace(path, tracer.events, n_nodes)
    problems = validate_chrome_trace(doc)
    print(f"trace: {len(tracer.events)} events -> {path} "
          f"({'VALID' if not problems else 'INVALID'} Chrome trace)")
    for problem in problems:
        print(f"  trace problem: {problem}", file=sys.stderr)
    return problems


def _cmd_run(args: argparse.Namespace) -> int:
    tracer = None
    if args.trace:
        from repro.obs import EventTrace

        tracer = EventTrace()
    stats, cfg = _simulate_file(args, tracer, corpus=_open_corpus(args))
    meta = _run_meta(args)

    if args.json:
        import json

        from repro.obs import run_stats_json

        doc = run_stats_json(stats, **meta)
        if args.json == "-":
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            _write_json(args.json, doc)
    if args.json != "-":
        print(f"protocol={args.protocol} nodes={args.nodes} "
              f"block={args.block_size}B optimized={not args.unoptimized}")
        from repro.util.tables import format_table

        print(format_table(["metric", "value"], stats.summary_rows(),
                           floatfmt=".6g"))
        if args.trace_stats:
            print()
            print(f"(phase count: {len(stats.phases)})")
    if args.metrics_out:
        from repro.obs import registry_from_run

        _write_json(args.metrics_out,
                    registry_from_run(stats, **meta).to_dict())
    if args.trace and _export_trace(args.trace, tracer, cfg.n_nodes):
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run a program with tracing on; export (and validate) the timeline."""
    from repro.obs import EventTrace, write_jsonl
    from repro.util.tables import format_table

    tracer = EventTrace()
    stats, cfg = _simulate_file(args, tracer)
    print(f"protocol={args.protocol} nodes={args.nodes} "
          f"block={args.block_size}B optimized={not args.unoptimized} "
          f"wall={stats.wall_time:g} cycles")
    rows = [[kind, float(n)] for kind, n in sorted(tracer.counts().items())]
    print(format_table(["event kind", "count"], rows, floatfmt=".0f"))
    if args.jsonl:
        n = write_jsonl(args.jsonl, tracer.events)
        print(f"event log: {n} events -> {args.jsonl}")
    problems = _export_trace(args.out, tracer, cfg.n_nodes)
    return 1 if problems else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run a program with tracing on; print the per-phase profile."""
    from repro.obs import EventTrace, profile_run

    tracer = EventTrace()
    stats, cfg = _simulate_file(args, tracer)
    report = profile_run(stats, tracer)
    print(f"protocol={args.protocol} nodes={args.nodes} "
          f"block={args.block_size}B optimized={not args.unoptimized} "
          f"wall={stats.wall_time:g} cycles")
    print()
    print(report.render())
    if args.json:
        _write_json(args.json, report.to_dict())
        print(f"\nprofile written to {args.json}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.bench import figures

    if args.name == "table1":
        print(figures.table1())
        return 0
    fig = {
        "fig5": figures.fig5_adaptive,
        "fig6": figures.fig6_barnes,
        "fig7": figures.fig7_water,
    }[args.name](jobs=args.jobs, corpus=_open_corpus(args))
    print(fig.render())
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.bench import ablations

    fn = {
        "coalescing": ablations.ablation_coalescing,
        "incremental": ablations.ablation_incremental,
        "flush": ablations.ablation_flush,
        "blocks": ablations.ablation_block_sweep,
    }[args.name]
    print(fn())
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """Run every table, figure, ablation, and sweep; write a full report."""
    import pathlib
    import time

    from repro.bench import ablations, figures, sweeps

    sections: list[tuple[str, str]] = []
    t0 = time.time()
    sections.append(("Table 1", figures.table1()))

    # Corpus-warmed figure runs skip pre-send learning, which shifts the
    # bar ratios the check_* shape checks assert about cold runs — so the
    # checks only gate cold reproductions.  The warmed report is still
    # written; its note lines record the warm-start.
    corpus = _open_corpus(args)
    warmed = corpus is not None

    fig5 = figures.fig5_adaptive(jobs=args.jobs, corpus=corpus)
    if not warmed:
        figures.check_fig5(fig5)
    sections.append(("Figure 5", fig5.render()))

    fig6 = figures.fig6_barnes(jobs=args.jobs, corpus=corpus)
    if not warmed:
        figures.check_fig6(fig6)
    sections.append(("Figure 6", fig6.render()))

    fig7 = figures.fig7_water(jobs=args.jobs, corpus=corpus)
    if not warmed:
        figures.check_fig7(fig7)
    sections.append(("Figure 7", fig7.render()))

    sections.append(("Ablation (a): coalescing", ablations.ablation_coalescing()))
    sections.append(("Ablation (b): incremental", ablations.ablation_incremental()))
    sections.append(("Ablation (c): flush", ablations.ablation_flush()))
    sections.append(("Ablation (d): block sizes", ablations.ablation_block_sweep()))
    sections.append(("Ablation (e): latency", ablations.ablation_latency_sweep()))
    sections.append(("Sweep: node scaling", sweeps.node_scaling()))
    sections.append(("Sweep: paper geometry", sweeps.paper_geometry_fig5()))

    report = []
    for title, body in sections:
        report.append("=" * 72)
        report.append(title)
        report.append("=" * 72)
        report.append(body)
        report.append("")
    tail = ("corpus-warmed run; shape checks skipped" if warmed
            else "all shape checks passed")
    report.append(f"({tail}; total {time.time() - t0:.1f}s)")
    text = "\n".join(report)
    print(text)
    out = pathlib.Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text + "\n")
    print(f"\nreport written to {out}")

    figure_results = [fig5, fig6, fig7]
    if args.json:
        from repro.obs import STATS_SCHEMA, run_stats_json

        doc = {
            "schema": "repro.reproduce/v1",
            "stats_schema": STATS_SCHEMA,
            "sections": [title for title, _ in sections],
            "runs": [
                run_stats_json(v.stats, figure=fig.name, version=v.spec.label,
                               protocol=v.spec.protocol,
                               optimized=v.spec.optimized,
                               block_size=v.spec.config.block_size)
                for fig in figure_results for v in fig.versions
            ],
        }
        _write_json(args.json, doc)
        print(f"figure stats written to {args.json}")
    if args.metrics_out:
        from repro.obs import MetricsRegistry

        merged = MetricsRegistry.merge_all(f.metrics() for f in figure_results)
        _write_json(args.metrics_out, merged.to_dict())
        print(f"metrics written to {args.metrics_out}")
    if args.trace:
        # Timeline of the paper's headline configuration: optimized water
        # under the predictive protocol (Figure 7's fastest bar).
        from repro.apps import water
        from repro.bench.figures import WATER_CFG, WATER_KW
        from repro.bench.harness import VersionSpec, run_version
        from repro.obs import EventTrace

        spec = VersionSpec("C** opt (32)", water, "predictive", True,
                           WATER_CFG.with_(block_size=32), dict(WATER_KW))
        tracer = EventTrace()
        run_version(spec, tracer=tracer)
        if _export_trace(args.trace, tracer, spec.config.n_nodes):
            return 1
    return 0


def _check_snapshot(args, committed_path, measured) -> int:
    """Gate a measured snapshot doc against a committed one; 0 = pass."""
    import json

    from repro.bench import perf

    if not committed_path.is_file():
        print(f"error: no committed snapshot at {committed_path}",
              file=sys.stderr)
        return 2
    problems = perf.compare_snapshots(
        perf.load_snapshot(json.loads(committed_path.read_text())),
        measured, tolerance=args.tolerance,
    )
    if problems:
        print(f"\nPERF GATE: {len(problems)} regression(s) "
              f"vs {committed_path}:")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"\nperf gate passed (tolerance {args.tolerance:.0%}, "
          f"vs {committed_path})")
    return 0


def _cmd_bench_farm(args: argparse.Namespace) -> int:
    """Measure the farm scaling curve; write/check BENCH_farm.json."""
    import pathlib

    from repro.bench import perf
    from repro.util.tables import format_table

    curve = tuple(int(x) for x in args.jobs_curve.split(","))
    doc = perf.farm_scaling(curve, progress=print)
    rows = [[w["label"], float(w["workers"]), w["sim_seconds"],
             w["speedup_sim"]] for w in doc["workloads"]]
    print(format_table(
        ["sweep", "workers", "seconds", "speedup"], rows, floatfmt=".3g",
        title=f"farm scaling (byte-identical reports; "
              f"host has {doc['host_cpus']} cpu(s))",
    ))
    path = pathlib.Path(args.dir) / "BENCH_farm.json"
    if args.write:
        _write_json(str(path), doc)
        print(f"farm snapshot written to {path}")
    if args.check:
        return _check_snapshot(args, path, doc)
    return 0


#: re-measurements a suspected perf regression must survive
BENCH_CONFIRM_RUNS = 2


def _cmd_bench(args: argparse.Namespace) -> int:
    """Time the simulator suite; write/check the normalised snapshot."""
    import json
    import pathlib

    from repro.bench import perf

    if args.farm:
        return _cmd_bench_farm(args)

    cases = perf.table1_cases("quick" if args.quick else None)
    corpus = _open_corpus(args)

    def measure() -> dict:
        return perf.snapshot(
            perf.measure(cases, repeats=args.repeats, jobs=args.jobs,
                         progress=print, corpus=corpus),
            repeats=args.repeats)

    doc = measure()
    print(perf.render(doc))
    path = pathlib.Path(args.dir) / perf.SNAPSHOT_NAME
    if args.write:
        _write_json(str(path), doc)
        print(f"snapshot written to {path}")
    if not args.check:
        return 0
    if path.is_file():
        # host speed drifts faster than the kernel can track: a regression
        # must persist across re-measurements (best row kept) to fail
        committed = perf.load_snapshot(json.loads(path.read_text()))
        for _ in range(BENCH_CONFIRM_RUNS):
            if not perf.compare_snapshots(committed, doc, args.tolerance):
                break
            print("\nre-measuring to confirm the regression ...")
            doc = perf.best_of(doc, measure())
    return _check_snapshot(args, path, doc)


_MODEL_APPS = ("adaptive", "barnes", "water")


def _resolve_app(name: str):
    """A benchmark app by name, with its Figure-5/6/7 workload defaults."""
    from repro.apps import adaptive, barnes, water
    from repro.bench import figures

    module, kwargs, cfg = {
        "adaptive": (adaptive, figures.ADAPTIVE_KW, figures.ADAPTIVE_CFG),
        "barnes": (barnes, figures.BARNES_KW, figures.BARNES_CFG),
        "water": (water, figures.WATER_KW, figures.WATER_CFG),
    }[name]
    return module, dict(kwargs), cfg


def _model_config(args, base_cfg):
    """The figure baseline config with any explicit CLI overrides."""
    cfg = base_cfg
    if args.nodes is not None:
        cfg = cfg.with_(n_nodes=args.nodes)
    if args.block_size is not None:
        cfg = cfg.with_(block_size=args.block_size)
    if args.page_size is not None:
        cfg = cfg.with_(page_size=args.page_size)
    return cfg


def _load_model_calibration(args):
    """Resolve the calibration to predict with; returns (cal, source)."""
    import pathlib

    from repro.model import default_calibration, load_calibration

    if getattr(args, "uncalibrated", False):
        return default_calibration(), "identity (--uncalibrated)"
    explicit = getattr(args, "calibration", None)
    if explicit:
        return load_calibration(explicit), explicit
    path = pathlib.Path(args.dir) / "MODEL_calibration.json"
    if path.is_file():
        return load_calibration(path), str(path)
    return default_calibration(), "identity (no committed calibration)"


def _cmd_model(args: argparse.Namespace) -> int:
    """Predict, calibrate, or cross-validate with the analytical model."""
    import pathlib

    from repro.util.tables import format_table

    if args.calibrate:
        from repro.model import calibrate, save_calibration

        cal = calibrate(progress=print)
        rows = [[p, cal.alpha[p], cal.gamma[p], cal.delta[p],
                 cal.diagnostics[p]["rms_wall_err_before"],
                 cal.diagnostics[p]["rms_wall_err_after"]]
                for p in sorted(cal.alpha)]
        print(format_table(
            ["protocol", "alpha", "gamma", "delta", "rms err before",
             "rms err after"],
            rows, title="model calibration", floatfmt=".6g"))
        path = pathlib.Path(args.dir) / "MODEL_calibration.json"
        save_calibration(path, cal)
        print(f"calibration written to {path}")
        return 0

    cal, cal_src = _load_model_calibration(args)

    if args.suite:
        from repro.model import validate as mv

        doc = mv.validate(cal, quick=args.quick, timing=args.timing,
                          progress=print)
        print()
        print(mv.render_validation(doc))
        path = pathlib.Path(args.dir) / "MODEL_validation.json"
        if args.write:
            mv.save_validation(path, doc)
            print(f"validation written to {path}")
        if args.check:
            if not path.is_file():
                print(f"error: no committed validation at {path}",
                      file=sys.stderr)
                return 2
            problems = mv.compare_validation(mv.load_validation(path), doc)
            if problems:
                print(f"\nMODEL GATE: {len(problems)} problem(s) vs {path}:")
                for prob in problems:
                    print(f"  {prob}")
                return 1
            print(f"\nmodel gate passed (vs {path})")
        return 0 if doc["passed"] else 1

    from repro.model import predict

    if args.app is None:
        print("error: an app is required unless --suite or --calibrate "
              f"is given (choose from {', '.join(_MODEL_APPS)})",
              file=sys.stderr)
        return 2
    app, kwargs, base_cfg = _resolve_app(args.app)
    cfg = _model_config(args, base_cfg)
    optimized = not args.unoptimized
    pred = predict(app, kwargs, protocol=args.protocol, optimized=optimized,
                   config=cfg, variant=args.variant, calibration=cal)
    print(f"model: {args.app} [{args.variant}] protocol={args.protocol} "
          f"nodes={cfg.n_nodes} block={cfg.block_size}B "
          f"optimized={optimized}")
    print(f"calibration: {cal_src}")
    if args.validate:
        from repro.bench.harness import VersionSpec, run_version

        sim = run_version(
            VersionSpec("validate", app, args.protocol, optimized, cfg,
                        kwargs, variant=args.variant)).stats
        sim_rows = dict((name, value) for name, value in sim.summary_rows())
        rows = []
        for name, mval in pred.stats.summary_rows():
            sval = sim_rows.get(name)
            if sval in (None, 0):
                err = "n/a" if sval is None or mval != sval else "exact"
            else:
                err = f"{(mval - sval) / sval:+.2%}"
            rows.append([name, mval, sval, err])
        print(format_table(["metric", "model", "simulated", "rel err"],
                           rows, floatfmt=".6g"))
    else:
        print(format_table(["metric", "value"], pred.stats.summary_rows(),
                           floatfmt=".6g"))
    if args.json:
        from repro.obs import run_stats_json

        _write_json(args.json, run_stats_json(
            pred.stats, app=args.app, variant=args.variant,
            protocol=args.protocol, nodes=cfg.n_nodes,
            block_size=cfg.block_size, optimized=optimized, model=True))
        print(f"\nprediction written to {args.json}")
    return 0


def _parse_axes(args) -> dict:
    """``--axis name=v1,v2,...`` flags into a sweep axes dict."""
    from repro.bench.sweeps import SWEEP_AXES
    from repro.util.errors import ConfigError

    axes: dict[str, list] = {}
    for spec in args.axis or []:
        name, _, values = spec.partition("=")
        if not values:
            raise ConfigError(
                f"bad --axis {spec!r}: expected name=v1,v2,...")
        if name not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {name!r}; expected one of "
                f"{', '.join(SWEEP_AXES)}")
        if name == "protocol":
            axes[name] = values.split(",")
        elif name == "per_byte_cost":
            axes[name] = [float(v) for v in values.split(",")]
        else:
            axes[name] = [int(v) for v in values.split(",")]
    return axes


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run a machine-parameter grid, sim- or model-backed."""
    from repro.bench.sweeps import export_grid, render_grid, sweep_grid

    if args.app is None:
        print(f"error: an app is required (choose from "
              f"{', '.join(_MODEL_APPS)})", file=sys.stderr)
        return 2
    app, kwargs, base_cfg = _resolve_app(args.app)
    cfg = _model_config(args, base_cfg)
    axes = _parse_axes(args)
    if not axes:
        print("error: no sweep axes; pass at least one "
              "--axis name=v1,v2,... "
              "(axes: protocol, n_nodes, block_size, msg_latency, "
              "per_byte_cost, fault_cost, handler_cost)", file=sys.stderr)
        return 2
    backend = "model" if args.model else "sim"
    calibration = None
    if backend == "model":
        calibration, cal_src = _load_model_calibration(args)
        print(f"calibration: {cal_src}")
    doc = sweep_grid(
        app, kwargs, base_config=cfg, axes=axes, backend=backend,
        protocol=args.protocol, optimized=not args.unoptimized,
        variant=args.variant, calibration=calibration,
        progress=print if args.verbose else None)
    print(render_grid(doc))
    if args.out:
        export_grid(args.out, doc)
        print(f"sweep grid written to {args.out}")
    return 0


def _cmd_corpus_doctor(args: argparse.Namespace) -> int:
    from repro.corpus.doctor import doctor

    report, status = doctor(args.dir, compact=args.compact, scrub=args.scrub)
    print(report)
    return status


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.core.predictive import PredictiveProtocol
    from repro.protocols.directory import DirState
    from repro.protocols.messages import MessageKind as MK
    from repro.protocols.stache import StacheProtocol
    from repro.protocols.verify import STACHE_HOME_SPEC, audit_protocol
    from repro.protocols.writeupdate import UPDATE_SHARED, WriteUpdateProtocol

    ok = True
    for cls, spec in [
        (StacheProtocol, STACHE_HOME_SPEC),
        (PredictiveProtocol, STACHE_HOME_SPEC),
        (WriteUpdateProtocol, {
            DirState.IDLE: {MK.GET_RO, MK.GET_RW},
            UPDATE_SHARED: {MK.GET_RO, MK.GET_RW},
        }),
    ]:
        result = audit_protocol(cls, spec)
        print(result.report())
        print()
        ok = ok and result.ok
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    import pathlib

    from repro.verify import (
        ALL_PROTOCOLS,
        dfs_explore_seed,
        fuzz,
        make_bundled_sessions,
        verify_trace_file,
    )

    protocols = args.protocols.split(",") if args.protocols else list(ALL_PROTOCOLS)
    unknown = set(protocols) - set(ALL_PROTOCOLS)
    if unknown:
        print(f"error: unknown protocol(s) {sorted(unknown)}; "
              f"available: {list(ALL_PROTOCOLS)}", file=sys.stderr)
        return 2

    traces_dir = pathlib.Path(args.traces)
    if args.regen_traces:
        from repro.tempest.tracefile import save_session

        traces_dir.mkdir(parents=True, exist_ok=True)
        for name, workload in make_bundled_sessions().items():
            save_session(workload.events, traces_dir / name,
                         regions=workload.regions)
            print(f"wrote {traces_dir / name} ({workload.describe()})")
        return 0

    failed = False

    if args.replay is not None:
        from repro.verify import replay_seed

        report = replay_seed(args.replay, protocols=protocols)
        print(report.summary())
        failed = not report.ok
    else:
        tracer = _farm_tracer(args)
        report = fuzz(seeds=args.seeds, protocols=protocols,
                      shrink=not args.no_shrink, progress=print,
                      jobs=args.jobs, tracer=tracer,
                      farm_transport=_build_farm_transport(args, tracer),
                      corpus=_open_corpus(args))
        print(report.summary())
        failed = not report.ok
        if args.report_out:
            _write_json(args.report_out, report.to_dict())
            print(f"report written to {args.report_out}")
        _write_farm_events(args, tracer)

    if args.dfs:
        print()
        for protocol in protocols:
            for seed in range(args.dfs_seeds):
                n, violations = dfs_explore_seed(
                    seed, protocol, max_runs=args.dfs, max_depth=args.dfs_depth)
                if n == 0 and not violations:
                    continue  # workload dialect incompatible with protocol
                status = "ok" if not violations else "VIOLATION"
                print(f"dfs [{protocol}] seed {seed}: "
                      f"{n} interleaving(s) explored — {status}")
                for rec in violations:
                    print(rec.report())
                    failed = True

    if traces_dir.is_dir() and not args.no_traces:
        print()
        for path in sorted(traces_dir.glob("*.trace")):
            trace_report = verify_trace_file(path, protocols=protocols)
            status = "ok" if trace_report.ok else "VIOLATION"
            print(f"trace {path.name}: {trace_report.runs} monitored "
                  f"replay(s) — {status}")
            for rec in trace_report.violations:
                print(rec.report())
            failed = failed or not trace_report.ok

    return 1 if failed else 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import BUNDLED_PLANS, CRASH_PLANS, run_campaign
    from repro.verify import ALL_PROTOCOLS

    registry = {**BUNDLED_PLANS, **CRASH_PLANS}
    if args.list_plans:
        for name, plan in registry.items():
            print(f"{name:16s} {plan.describe()}")
        return 0

    plans = None
    if args.crash:
        plans = dict(CRASH_PLANS)
    if args.plans:
        unknown = set(args.plans.split(",")) - set(registry)
        if unknown:
            print(f"error: unknown plan(s) {sorted(unknown)}; "
                  f"available: {list(registry)}", file=sys.stderr)
            return 2
        plans = {**(plans or {}),
                 **{name: registry[name] for name in args.plans.split(",")}}

    protocols = None
    if args.protocols:
        protocols = args.protocols.split(",")
        unknown = set(protocols) - set(ALL_PROTOCOLS)
        if unknown:
            print(f"error: unknown protocol(s) {sorted(unknown)}; "
                  f"available: {list(ALL_PROTOCOLS)}", file=sys.stderr)
            return 2

    tracer = _farm_tracer(args)
    report = run_campaign(
        plans=plans,
        seeds=args.seeds,
        protocols=protocols,
        variants=args.variants,
        traces_dir=None if args.no_traces else args.traces,
        shrink=not args.no_shrink,
        progress=print,
        dump_scripts=args.dump_scripts,
        jobs=args.jobs,
        tracer=tracer,
        farm_transport=_build_farm_transport(args, tracer),
        corpus=_open_corpus(args),
    )
    print(report.summary())
    if args.report_out:
        _write_json(args.report_out, report.to_dict())
        print(f"report written to {args.report_out}")
    _write_farm_events(args, tracer)

    if args.trace or args.metrics_out:
        # One representative traced run: the first selected plan against the
        # first generated workload, so the timeline shows faults in context.
        from repro.obs import EventTrace, registry_from_run
        from repro.verify.oracle import run_workload
        from repro.verify.workload import generate_workload

        plan_name, plan = next(iter((plans or registry).items()))
        protocol = (protocols or ["predictive"])[0]
        workload = generate_workload(0)
        tracer = EventTrace()
        obs = run_workload(workload, protocol, fault_plan=plan, tracer=tracer)
        if args.metrics_out:
            _write_json(
                args.metrics_out,
                registry_from_run(obs.stats, app="fuzz-seed0",
                                  protocol=protocol,
                                  plan=plan_name).to_dict(),
            )
            print(f"metrics written to {args.metrics_out}")
        if args.trace and _export_trace(args.trace, tracer,
                                        workload.config.n_nodes):
            return 1
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Compiler-directed Shared-Memory "
                    "Communication for Iterative Parallel Applications' (SC'96)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a C** file; show the analysis")
    p.add_argument("file")
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument("--dump-ast", action="store_true",
                   help="pretty-print the parsed program before the analysis")
    p.set_defaults(fn=_cmd_compile)

    def add_machine_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("file")
        p.add_argument("--protocol", default="predictive",
                       choices=["stache", "predictive", "write-update"])
        p.add_argument("--nodes", type=int, default=8)
        p.add_argument("--block-size", type=int, default=32)
        p.add_argument("--page-size", type=int, default=512)
        p.add_argument("--unoptimized", action="store_true",
                       help="ignore compiler directives (the paper's baseline)")

    def add_corpus_option(p: argparse.ArgumentParser) -> None:
        p.add_argument("--corpus", metavar="DIR",
                       help="durable schedule corpus directory: warm-start "
                            "schedule-learning protocols from previous runs' "
                            "persisted schedules and (where the command "
                            "learns fault-free) harvest new ones back; a "
                            "damaged corpus self-heals on open and a missing "
                            "one is created")

    p = sub.add_parser("run", help="compile and simulate a C** file")
    add_machine_options(p)
    add_corpus_option(p)
    p.add_argument("--trace-stats", action="store_true")
    p.add_argument("--json", nargs="?", const="-", metavar="PATH",
                   help="emit machine-readable run stats (repro.run-stats/v1) "
                        "to PATH, or to stdout instead of the table if PATH "
                        "is omitted or '-'")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write the run's metrics registry "
                        "(repro.metrics/v1 JSON) to PATH")
    p.add_argument("--trace", metavar="PATH",
                   help="run with event tracing on and export a Chrome/"
                        "Perfetto trace.json timeline to PATH")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "trace",
        help="run a C** file with event tracing on; export a validated "
             "Chrome/Perfetto trace.json timeline",
    )
    add_machine_options(p)
    p.add_argument("-o", "--out", default="trace.json",
                   help="output path for the Chrome trace (default: "
                        "trace.json; open in Perfetto or chrome://tracing)")
    p.add_argument("--jsonl", metavar="PATH",
                   help="also write the raw event log as JSON lines")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "profile",
        help="run a C** file with event tracing on; print the per-phase "
             "profile and schedule-quality analytics",
    )
    add_machine_options(p)
    p.add_argument("--json", metavar="PATH",
                   help="also write the profile (repro.profile/v1 JSON) "
                        "to PATH")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("figure", help="regenerate a paper table/figure")
    p.add_argument("name", choices=["table1", "fig5", "fig6", "fig7"])
    add_corpus_option(p)
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="shard the work across N farm worker processes "
                        "(repro.farm; reports are byte-identical to --jobs 1)")
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("ablation", help="run a design-choice ablation")
    p.add_argument("name", choices=["coalescing", "incremental", "flush", "blocks"])
    p.set_defaults(fn=_cmd_ablation)

    def add_model_options(p: argparse.ArgumentParser,
                          default_protocol: str) -> None:
        p.add_argument("app", nargs="?", choices=_MODEL_APPS,
                       help="benchmark app (Figure-5/6/7 workload defaults)")
        p.add_argument("--variant", default="cstar",
                       help="app variant (default: cstar; e.g. spmd, splash)")
        p.add_argument("--protocol", default=default_protocol,
                       choices=["stache", "predictive", "write-update"])
        p.add_argument("--nodes", type=int, default=None)
        p.add_argument("--block-size", type=int, default=None)
        p.add_argument("--page-size", type=int, default=None)
        p.add_argument("--unoptimized", action="store_true",
                       help="ignore compiler directives (the paper's "
                            "baseline)")
        p.add_argument("--calibration", metavar="PATH",
                       help="calibration document to predict with (default: "
                            "<--dir>/MODEL_calibration.json when present)")
        p.add_argument("--uncalibrated", action="store_true",
                       help="predict with the identity calibration even if a "
                            "committed one exists")
        p.add_argument("--dir", default="benchmarks",
                       help="artifact directory (default: benchmarks)")

    p = sub.add_parser(
        "model",
        help="predict a run's statistics in closed form (no event loop); "
             "calibrate against, or cross-validate over, the simulator",
    )
    add_model_options(p, "predictive")
    p.add_argument("--validate", action="store_true",
                   help="also simulate the same configuration and print "
                        "model vs. simulated side by side")
    p.add_argument("--calibrate", action="store_true",
                   help="fit per-protocol residual coefficients from short "
                        "reference sims; write <--dir>/MODEL_calibration.json")
    p.add_argument("--suite", action="store_true",
                   help="cross-validate model vs. sim over the full "
                        "Figure-5/6/7 matrix plus the sweep demonstration; "
                        "exit 1 outside the committed error budgets")
    p.add_argument("--quick", action="store_true",
                   help="with --suite: the scaled-down CI subset")
    p.add_argument("--timing", action="store_true",
                   help="with --suite: record measured wall-clock seconds "
                        "and sweep speedup under the 'measured' key (the "
                        "one machine-dependent part of the document)")
    p.add_argument("--write", action="store_true",
                   help="with --suite: write <--dir>/MODEL_validation.json")
    p.add_argument("--check", action="store_true",
                   help="with --suite: gate the fresh run against the "
                        "committed MODEL_validation.json; exit 1 on "
                        "regression")
    p.add_argument("--json", metavar="PATH",
                   help="write the prediction (repro.run-stats/v1 JSON) "
                        "to PATH")
    p.set_defaults(fn=_cmd_model)

    p = sub.add_parser(
        "sweep",
        help="run a Cartesian machine-parameter grid over an app; "
             "--model makes it instant (closed-form, one cached walk)",
    )
    add_model_options(p, "stache")
    p.add_argument("--axis", action="append", metavar="NAME=V1,V2,...",
                   help="one grid axis (repeatable): protocol, n_nodes, "
                        "block_size, msg_latency, per_byte_cost, "
                        "fault_cost, handler_cost")
    p.add_argument("--model", action="store_true",
                   help="predict each point with repro.model instead of "
                        "simulating it (same document shape, milliseconds "
                        "per grid)")
    p.add_argument("--out", metavar="FILE",
                   help="atomically export the grid as .json or .csv "
                        "(sim- and model-backed grids are byte-comparable)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print per-point progress")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "reproduce",
        help="run every table, figure, ablation, and sweep; write a report",
    )
    p.add_argument("--output", default="benchmarks/results/REPORT.txt")
    p.add_argument("--json", metavar="PATH",
                   help="also write per-figure run stats "
                        "(repro.reproduce/v1 JSON) to PATH")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write all figures' merged metrics registry "
                        "(repro.metrics/v1 JSON) to PATH")
    p.add_argument("--trace", metavar="PATH",
                   help="also export a Chrome trace of the optimized water "
                        "run (Figure 7's fastest bar) to PATH")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="shard the work across N farm worker processes "
                        "(repro.farm; reports are byte-identical to --jobs 1)")
    add_corpus_option(p)
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser(
        "bench",
        help="time the simulator on the Table-1 workloads, normalised by a "
             "calibration kernel; write or check the BENCH_sim.json snapshot",
    )
    p.add_argument("--quick", action="store_true",
                   help="run the scaled-down CI profile instead of the full "
                        "Table-1 matrix")
    p.add_argument("--repeats", type=int, default=3,
                   help="timing repeats per case (best-of; default 3)")
    p.add_argument("--write", action="store_true",
                   help="write the BENCH_sim.json snapshot into --dir")
    p.add_argument("--check", action="store_true",
                   help="compare kernel-normalised timings against the "
                        "committed BENCH_sim.json in --dir; exit 1 on "
                        "regression")
    p.add_argument("--tolerance", type=float, default=0.15,
                   help="fractional slowdown tolerated by --check "
                        "(default 0.15)")
    p.add_argument("--dir", default="benchmarks",
                   help="snapshot directory (default: benchmarks)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="shard the work across N farm worker processes "
                        "(repro.farm; reports are byte-identical to --jobs 1)")
    p.add_argument("--farm", action="store_true",
                   help="instead of the simulator suite, measure the farm's "
                        "worker-scaling curve (verify fuzz, fault campaign, "
                        "and quick bench sweeps at each --jobs-curve point, "
                        "asserting byte-identical reports) and write/check "
                        "BENCH_farm.json")
    p.add_argument("--jobs-curve", default="1,2,4,8", metavar="N,N,...",
                   help="worker counts measured by --farm (default: 1,2,4,8)")
    add_corpus_option(p)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("audit", help="audit protocol transition tables")
    p.set_defaults(fn=_cmd_audit)

    def add_multihost_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--hosts", type=int, default=0, metavar="N",
                       help="farm the campaign over N remote worker agents "
                            "connected via TCP (repro farm-worker); reports "
                            "are byte-identical to --jobs 1")
        p.add_argument("--bind", default="127.0.0.1",
                       help="address the farm coordinator listens on with "
                            "--hosts (default: 127.0.0.1)")
        p.add_argument("--port", type=int, default=0,
                       help="listen port for --hosts (default: 0 = "
                            "OS-assigned, printed at startup)")
        p.add_argument("--chaos-seed", type=int, default=None, metavar="SEED",
                       help="with --hosts, inject seeded drop/dup/delay/"
                            "disconnect chaos into the farm's own transport "
                            "(the report must not change)")

    p = sub.add_parser(
        "verify",
        help="fuzz the protocols under adversarial interleavings with the "
             "coherence-invariant monitor and differential oracle",
    )
    p.add_argument("--seeds", type=int, default=50,
                   help="number of fuzz seeds (each = one workload + one "
                        "interleaving per protocol)")
    p.add_argument("--protocols",
                   help="comma-separated subset of stache,write-update,predictive")
    p.add_argument("--replay", type=int, metavar="SEED",
                   help="re-run exactly one seed (as printed in a violation)")
    p.add_argument("--dfs", type=int, metavar="N", default=0,
                   help="also model-check: enumerate up to N interleavings "
                        "per protocol by bounded DFS")
    p.add_argument("--dfs-seeds", type=int, default=3,
                   help="workload seeds to model-check under --dfs")
    p.add_argument("--dfs-depth", type=int, default=10,
                   help="branching depth bound for --dfs")
    p.add_argument("--traces", default="examples/traces",
                   help="directory of bundled session traces to replay "
                        "under every protocol (skipped if missing)")
    p.add_argument("--no-traces", action="store_true",
                   help="skip bundled-trace verification")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip counterexample minimization")
    p.add_argument("--regen-traces", action="store_true",
                   help="regenerate the bundled traces under --traces and exit")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="shard the work across N farm worker processes "
                        "(repro.farm; reports are byte-identical to --jobs 1)")
    p.add_argument("--report-out", metavar="PATH",
                   help="write the campaign report as canonical JSON to PATH "
                        "(byte-identical across --jobs values; CI diffs it)")
    p.add_argument("--farm-events", metavar="PATH",
                   help="with --jobs > 1, write the farm's lifecycle events "
                        "(farm.* dispatch/steal/retry) as JSON lines to PATH")
    add_multihost_options(p)
    add_corpus_option(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "faults",
        help="run the fault-injection campaign: every fault plan against "
             "generated and bundled workloads, with minimal-reproducer "
             "shrinking for failures",
    )
    p.add_argument("--plans",
                   help="comma-separated subset of the bundled fault plans "
                        "(default: all; see --list-plans)")
    p.add_argument("--seeds", type=int, default=2,
                   help="number of generated fuzz workloads")
    p.add_argument("--variants", type=int, default=1,
                   help="reseedings of each plan per workload")
    p.add_argument("--protocols",
                   help="comma-separated subset of stache,write-update,predictive")
    p.add_argument("--traces", default="examples/traces",
                   help="directory of bundled session traces "
                        "(skipped if missing)")
    p.add_argument("--no-traces", action="store_true",
                   help="skip the bundled traces")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip minimal-reproducer shrinking on failure")
    p.add_argument("--crash", action="store_true",
                   help="run the crash-stop plans (node failures with "
                        "detection, recovery, and restart)")
    p.add_argument("--dump-scripts", metavar="DIR",
                   help="write each failure's scripted reproducer (shrunk "
                        "when possible) as JSON into DIR")
    p.add_argument("--list-plans", action="store_true",
                   help="list the bundled fault plans and exit")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write the metrics registry of one representative "
                        "faulted run (repro.metrics/v1 JSON) to PATH")
    p.add_argument("--trace", metavar="PATH",
                   help="export a Chrome trace of one representative "
                        "faulted run to PATH")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="shard the work across N farm worker processes "
                        "(repro.farm; reports are byte-identical to --jobs 1)")
    p.add_argument("--report-out", metavar="PATH",
                   help="write the campaign report as canonical JSON to PATH "
                        "(byte-identical across --jobs values; CI diffs it)")
    p.add_argument("--farm-events", metavar="PATH",
                   help="with --jobs > 1, write the farm's lifecycle events "
                        "(farm.* dispatch/steal/retry) as JSON lines to PATH")
    add_multihost_options(p)
    add_corpus_option(p)
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser(
        "farm-worker",
        help="run a farm worker agent: connect to a coordinator started "
             "with --hosts and execute campaign jobs on this machine",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="the coordinator's listen address (printed by the "
                        "campaign command when --hosts is given)")
    p.add_argument("--label", default=None,
                   help="stable identity this agent presents to the "
                        "coordinator (default: hostname-pid derived)")
    p.add_argument("--heartbeat", type=float, default=0.5,
                   help="heartbeat period in seconds (default: 0.5)")
    p.add_argument("--watchdog", type=float, default=3.0,
                   help="declare the link dead after this many seconds of "
                        "silence (default: 3.0)")
    p.add_argument("--connect-timeout", type=float, default=120.0,
                   help="give up if no coordinator is reachable for this "
                        "many seconds (default: 120)")
    p.add_argument("--connect-attempts", type=int, default=None, metavar="N",
                   help="also give up after N consecutive failed dial "
                        "attempts (default: unbounded; the attempt counter "
                        "resets every time the agent attaches)")
    p.set_defaults(fn=_cmd_farm_worker)

    p = sub.add_parser(
        "corpus",
        help="operate on a durable schedule corpus directory",
    )
    csub = p.add_subparsers(dest="corpus_command", required=True)
    d = csub.add_parser(
        "doctor",
        help="inspect a corpus: replay its segments (recovering torn tails "
             "and quarantining damaged records, exactly as a run would), "
             "report entries and quarantine contents, and exit 0 = healthy, "
             "1 = damage found/recovered, 2 = unusable",
    )
    d.add_argument("dir", help="corpus directory")
    d.add_argument("--compact", action="store_true",
                   help="rewrite live entries into one fresh segment and "
                        "drop superseded segment files")
    d.add_argument("--scrub", action="store_true",
                   help="delete quarantined records after inspection")
    d.set_defaults(fn=_cmd_corpus_doctor)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
