"""Command-line interface: regenerate any figure's data from the terminal.

Examples::

    python -m repro list
    python -m repro figure5 --scale fast --seed 3
    python -m repro figure7a --scale paper
    python -m repro serve-bench --pages 200000 --queries 5000 --shards 8
    python -m repro chaos-bench --pages 200000 --queries 2000 --fault-plan plan.json
    python -m repro sim-bench --replicates 32 --sim-mode fluid
    python -m repro sweep-bench --grid-k 10,20 --grid-r 0.0,0.1 --grid-shards 1,2
    python -m repro sweep-fig --grid-r 0.0,0.1,0.2,0.3 --telemetry-window 256
    repro figure1

Each experiment prints the same rows/series the corresponding paper figure
reports, as an ASCII table, plus shape-check notes.  ``serve-bench`` runs
the online serving engine under a streaming query workload and reports
throughput, latency and cache effectiveness against the full-re-rank
baseline.  ``sim-bench`` measures offline simulation throughput (simulated
page-days per second) for the vectorized batch engine against the looped
sequential simulator, including the bit-parity check between the two.
``sweep-bench`` replays one recorded query stream against a whole grid of
serving configurations (page length, randomization, cache staleness
budget, shard count) through the lockstep sweep engine and reports its
replayed-query throughput against running the variants one at a time,
including the per-variant bit-parity check.  ``sweep-fig`` runs one such
sweep and renders the QPC / cache-hit-rate / staleness trade-off curves
(plus, with ``--telemetry-window``, the windowed metric series) as ASCII
figures.  ``chaos-bench`` replays a recorded query trace with the
robustness layer armed under a scripted fault plan (shard crashes and
stalls, OCC write conflicts, batch drops, cache poisoning) and reports
recovery time, dead-letter counts, the degraded-serve fraction, and the
bit-identity of every crash recovery against the fault-free reference
replay.  All the benchmarks accept ``--telemetry-window`` /
``--telemetry-out`` to stream windowed telemetry rows as JSON lines.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.defaults import VALID_SCALES
from repro.experiments.registry import get_experiment, list_experiments


def add_serving_config_args(parser: argparse.ArgumentParser) -> None:
    """Declare the shared serving-configuration flags in one place.

    Every serving-tier experiment (``serve-bench``, ``chaos-bench``,
    ``sweep-bench``, ``sweep-fig``) reads the same deployment knobs —
    shards, cache, staleness, OCC retry, and the multi-tenant pool shape
    (``--tenants/--clients/--workers``) — so they are declared once here
    and folded into one :class:`~repro.serving.config.ServingConfig` by
    :func:`serving_config_from_args`.
    """
    serving = parser.add_argument_group("serving configuration")
    serving.add_argument(
        "--pages", type=int, default=20_000, help="total pages across all shards"
    )
    serving.add_argument(
        "--shards", type=int, default=4, help="number of community shards"
    )
    serving.add_argument(
        "--cache-size",
        type=int,
        default=64,
        help="result pages cached per shard; 0 disables caching",
    )
    serving.add_argument(
        "--staleness-budget",
        type=int,
        default=4,
        help="state versions a cached page may lag before invalidation",
    )
    serving.add_argument(
        "--feedback-rate",
        type=float,
        default=0.2,
        help="probability a served query feeds one visit back",
    )
    serving.add_argument(
        "--max-attempts", type=int, default=None,
        help="OCC commit attempts per feedback batch before dead-lettering "
        "(default: the RetryPolicy default of 4)",
    )
    serving.add_argument(
        "--backoff-base", type=float, default=None,
        help="base retry backoff in seconds (scheduled, not slept; "
        "default 1e-4, doubling per retry up to the policy cap)",
    )
    serving.add_argument(
        "--tenants", type=int, default=1,
        help="tenant communities hosted behind the serving front door",
    )
    serving.add_argument(
        "--clients", type=int, default=0,
        help="concurrent OCC writer processes racing feedback commits "
        "against the pool's shared-memory shards",
    )
    serving.add_argument(
        "--workers", type=int, default=None,
        help="for serve-bench, pool worker processes hosting the tenant "
        "shards (0/omitted = classic in-process router); for sim-bench, "
        "replicate blocks stepped on threads; for sweep-bench/sweep-fig, "
        "variant worker processes (omitted = auto-size from os.cpu_count())",
    )
    serving.add_argument(
        "--inbox-capacity", type=int, default=8,
        help="bounded work-queue depth per pool worker; a full inbox "
        "counts a backpressure event and blocks the submitter",
    )


def serving_config_from_args(args: argparse.Namespace, **overrides):
    """Fold the shared serving flags into one frozen ``ServingConfig``.

    Keyword ``overrides`` win over the parsed flags (drivers use them for
    experiment-specific fields like ``mode``).
    """
    from repro.serving.config import ServingConfig

    values = dict(
        n_pages=args.pages,
        n_shards=args.shards,
        cache_capacity=args.cache_size if args.cache_size > 0 else None,
        staleness_budget=args.staleness_budget,
        feedback_rate=args.feedback_rate,
        seed=args.seed,
        tenants=args.tenants,
        workers=args.workers if args.workers is not None else 0,
        clients=args.clients,
        inbox_capacity=args.inbox_capacity,
        telemetry_window=args.telemetry_window,
        telemetry_out=args.telemetry_out,
    )
    if args.max_attempts is not None:
        values["max_attempts"] = args.max_attempts
    if args.backoff_base is not None:
        values["backoff_base"] = args.backoff_base
    values.update(overrides)
    return ServingConfig(**values)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the evaluation of 'Shuffling a Stacked Deck: The Case for "
            "Partially Randomized Ranking of Search Engine Results' (VLDB 2005)."
        ),
    )
    parser.add_argument(
        "experiment",
        help="experiment to run (one of: list, serve-bench, chaos-bench, "
        "sim-bench, sweep-bench, sweep-fig, %s)" % ", ".join(list_experiments()),
    )
    parser.add_argument(
        "--scale",
        choices=list(VALID_SCALES),
        default="fast",
        help="experiment scale: 'paper' uses the paper's default community, "
        "'fast' a proportionally scaled-down one, 'smoke' a tiny sanity run",
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument(
        "--backend",
        choices=("numpy", "numba"),
        default=None,
        help="kernel backend for serve-bench/sim-bench/sweep-bench (default: "
        "the REPRO_KERNEL_BACKEND environment variable, else numpy; "
        "requesting numba without the package installed warns once and "
        "falls back to numpy)",
    )

    add_serving_config_args(parser)

    serving = parser.add_argument_group("serve-bench options")
    serving.add_argument(
        "--queries", type=int, default=2_000, help="number of queries to stream"
    )
    serving.add_argument("--k", type=int, default=20, help="result-page length")

    chaos = parser.add_argument_group("chaos-bench options")
    chaos.add_argument(
        "--fault-plan", default=None,
        help="JSON fault-plan file to replay under (default: the pinned "
        "reference plan — one crash, a conflict burst, a stall, a cache "
        "poisoning)",
    )
    chaos.add_argument(
        "--save-fault-plan", default=None,
        help="write the fault plan actually used to this JSON file "
        "(pin-and-replay workflow)",
    )
    chaos.add_argument(
        "--chaos-mode", choices=("fluid", "stochastic"), default="fluid",
        help="popularity update mode for the chaos run",
    )
    chaos.add_argument(
        "--chaos-flush", type=int, default=64,
        help="queries between feedback batch flushes in the chaos trace",
    )

    simulation = parser.add_argument_group("sim-bench options")
    simulation.add_argument(
        "--replicates", type=int, default=32,
        help="replicate runs advanced in lockstep by the batch engine",
    )
    simulation.add_argument(
        "--baseline-replicates", type=int, default=None,
        help="replicates timed through the sequential loop (default min(R, 8))",
    )
    simulation.add_argument(
        "--sim-pages", type=int, default=None,
        help="community size; defaults to the paper's default community",
    )
    simulation.add_argument(
        "--sim-warmup", type=int, default=15, help="warm-up days per run"
    )
    simulation.add_argument(
        "--sim-measure", type=int, default=25, help="measurement days per run"
    )
    simulation.add_argument(
        "--sim-mode", choices=("fluid", "stochastic"), default="fluid",
        help="simulation update mode",
    )
    simulation.add_argument(
        "--policy", choices=("selective", "uniform", "none"), default="selective",
        help="rank promotion policy to simulate",
    )
    simulation.add_argument(
        "--adaptive-rank", action="store_true",
        help="rank each day from the previous day's order via the kernel "
        "layer's near-sorted run merge (bit-identical to the full sort; "
        "falls back automatically on days that are not near-sorted)",
    )

    sweep = parser.add_argument_group("sweep-bench options")
    sweep.add_argument(
        "--sweep-pages", type=int, default=2_000,
        help="pages per variant community",
    )
    sweep.add_argument(
        "--sweep-queries", type=int, default=2_400,
        help="recorded queries replayed against every variant",
    )
    sweep.add_argument(
        "--grid-k", default="10,20",
        help="comma-separated result-page lengths, e.g. '10,20'",
    )
    sweep.add_argument(
        "--grid-r", default="0.0,0.1,0.2,0.3",
        help="comma-separated randomization degrees, e.g. '0.0,0.1'",
    )
    sweep.add_argument(
        "--grid-stale", default="0,4",
        help="comma-separated cache staleness budgets (versions of lag)",
    )
    sweep.add_argument(
        "--grid-shards", default="1,2",
        help="comma-separated shard counts per variant",
    )
    sweep.add_argument(
        "--sweep-cache-size", type=int, default=64,
        help="result pages cached per shard; 0 disables caching",
    )
    sweep.add_argument(
        "--sweep-flush", type=int, default=64,
        help="queries between feedback batch flushes in the recorded trace",
    )
    sweep.add_argument(
        "--sweep-feedback-rate", type=float, default=0.2,
        help="probability a replayed query produces one click",
    )
    sweep.add_argument(
        "--sweep-day-every", type=int, default=None,
        help="queries between lifecycle days in the trace (default: none)",
    )

    telemetry = parser.add_argument_group("telemetry options")
    telemetry.add_argument(
        "--telemetry-window", type=int, default=None,
        help="enable streaming telemetry with this sliding-window size "
        "(events for serve-bench/sweep-bench/sweep-fig, days for "
        "sim-bench); default off",
    )
    telemetry.add_argument(
        "--telemetry-out", default=None,
        help="write windowed telemetry rows to this JSON-lines file "
        "(implies telemetry on, with the default window if "
        "--telemetry-window is not given)",
    )
    return parser


def _apply_backend(args: argparse.Namespace) -> None:
    """Pin the kernel backend requested by ``--backend`` for this process.

    The name is exported through ``REPRO_KERNEL_BACKEND`` as well so
    process-pool workers (replicate/variant sharding) resolve the same
    backend as the parent.
    """
    if args.backend is None:
        return
    import os

    from repro.core.kernels import ENV_VAR, set_backend

    os.environ[ENV_VAR] = args.backend
    set_backend(args.backend)


def run_serve_bench(args: argparse.Namespace) -> int:
    """Run the serving benchmark and print its metrics table.

    With ``--workers W`` (W >= 1) this drives the multi-tenant
    process-per-shard pool (:func:`repro.serving.pool.run_pool_benchmark`)
    instead of the in-process router: ``--tenants`` communities behind
    ``W`` worker processes, with ``--clients`` extra OCC writer processes
    racing feedback commits against the shared-memory shards.
    """
    from repro.serving.bench import run_serving_benchmark
    from repro.utils.tables import Table

    _apply_backend(args)
    if args.workers is not None and args.workers > 0:
        from repro.serving.pool import run_pool_benchmark

        config = serving_config_from_args(args)
        recorder = None
        if args.telemetry_window is not None or args.telemetry_out is not None:
            from repro.telemetry import DEFAULT_WINDOW, TelemetryRecorder

            recorder = TelemetryRecorder(
                n_shards=config.n_shards,
                window=args.telemetry_window or DEFAULT_WINDOW,
                out=args.telemetry_out,
                label="pool",
            )
        try:
            report = run_pool_benchmark(
                n_queries=args.queries, config=config, telemetry=recorder
            )
        finally:
            if recorder is not None:
                recorder.close()
        table = Table(
            ["metric", "value"],
            title="serve-bench — multi-tenant pool "
            "(tenants=%d, workers=%d, clients=%d, n=%d x %d shards)"
            % (
                config.tenants,
                config.workers,
                config.clients,
                config.n_pages,
                config.n_shards,
            ),
        )
        for key in sorted(report):
            table.add_row(key, report[key])
        print(table.render())
        return 0
    report = run_serving_benchmark(
        n_pages=args.pages,
        n_queries=args.queries,
        k=args.k,
        n_shards=args.shards,
        cache_capacity=args.cache_size if args.cache_size > 0 else None,
        staleness_budget=args.staleness_budget,
        feedback_rate=args.feedback_rate,
        seed=args.seed,
        telemetry_window=args.telemetry_window,
        telemetry_out=args.telemetry_out,
    )
    table = Table(
        ["metric", "value"],
        title="serve-bench — online serving vs full re-rank (n=%d, k=%d, shards=%d)"
        % (args.pages, args.k, args.shards),
    )
    for key in sorted(report):
        table.add_row(key, report[key])
    print(table.render())
    return 0


def run_chaos_bench(args: argparse.Namespace) -> int:
    """Replay a trace under a fault plan and print the recovery metrics."""
    from repro.robustness.chaos import pinned_fault_plan, run_chaos_benchmark
    from repro.robustness.faults import FaultPlan
    from repro.robustness.occ import RetryPolicy
    from repro.utils.tables import Table

    _apply_backend(args)
    if args.fault_plan is not None:
        plan = FaultPlan.load(args.fault_plan)
    else:
        plan = pinned_fault_plan(
            args.queries, args.shards, flush_every=args.chaos_flush
        )
    if args.save_fault_plan is not None:
        plan.save(args.save_fault_plan)
    retry = None
    if args.max_attempts is not None or args.backoff_base is not None:
        defaults = RetryPolicy()
        retry = RetryPolicy(
            max_attempts=(
                args.max_attempts
                if args.max_attempts is not None
                else defaults.max_attempts
            ),
            base_backoff_seconds=(
                args.backoff_base
                if args.backoff_base is not None
                else defaults.base_backoff_seconds
            ),
        )
    report = run_chaos_benchmark(
        n_pages=args.pages,
        n_queries=args.queries,
        k=args.k,
        n_shards=args.shards,
        cache_capacity=args.cache_size if args.cache_size > 0 else None,
        staleness_budget=args.staleness_budget,
        feedback_rate=args.feedback_rate,
        flush_every=args.chaos_flush,
        mode=args.chaos_mode,
        plan=plan,
        retry=retry,
        seed=args.seed,
        telemetry_window=args.telemetry_window,
        telemetry_out=args.telemetry_out,
    )
    table = Table(
        ["metric", "value"],
        title="chaos-bench — trace replay under faults (n=%d, q=%d, shards=%d, %s)"
        % (args.pages, args.queries, args.shards, args.chaos_mode),
    )
    for key in sorted(report):
        table.add_row(key, report[key])
    print(table.render())
    return 0


def run_sim_bench(args: argparse.Namespace) -> int:
    """Run the batch-engine throughput benchmark and print its metrics."""
    from repro.community.config import DEFAULT_COMMUNITY
    from repro.core.policy import RankPromotionPolicy
    from repro.simulation.bench import run_simulation_benchmark
    from repro.utils.tables import Table

    community = DEFAULT_COMMUNITY
    if args.sim_pages is not None:
        community = community.scaled(args.sim_pages)
    policy = {
        "selective": RankPromotionPolicy("selective", 1, 0.1),
        "uniform": RankPromotionPolicy("uniform", 1, 0.1),
        "none": RankPromotionPolicy("none", 1, 0.0),
    }[args.policy]
    _apply_backend(args)
    report = run_simulation_benchmark(
        community=community,
        policy=policy,
        replicates=args.replicates,
        baseline_replicates=args.baseline_replicates,
        warmup_days=args.sim_warmup,
        measure_days=args.sim_measure,
        mode=args.sim_mode,
        seed=args.seed,
        n_workers=args.workers,
        adaptive_rank=args.adaptive_rank,
        telemetry_window=args.telemetry_window,
        telemetry_out=args.telemetry_out,
    )
    table = Table(
        ["metric", "value"],
        title="sim-bench — batch engine vs looped simulator (n=%d, R=%d, %s)"
        % (community.n_pages, args.replicates, args.sim_mode),
    )
    for key in sorted(report):
        table.add_row(key, report[key])
    print(table.render())
    return 0


def run_sweep_bench(args: argparse.Namespace) -> int:
    """Run the batched serving-replay sweep benchmark and print its metrics."""
    from repro.serving.sweep import (
        parse_grid_values,
        run_sweep_benchmark,
        variant_grid,
    )
    from repro.utils.tables import Table

    variants = variant_grid(
        ks=parse_grid_values(args.grid_k, int, name="--grid-k", minimum=1),
        rs=parse_grid_values(
            args.grid_r, float, name="--grid-r", minimum=0.0, maximum=1.0
        ),
        staleness_budgets=parse_grid_values(
            args.grid_stale, int, name="--grid-stale", minimum=0
        ),
        shard_counts=parse_grid_values(
            args.grid_shards, int, name="--grid-shards", minimum=1
        ),
        cache_capacity=args.sweep_cache_size if args.sweep_cache_size > 0 else None,
    )
    _apply_backend(args)
    report = run_sweep_benchmark(
        n_pages=args.sweep_pages,
        n_queries=args.sweep_queries,
        variants=variants,
        seed=args.seed,
        feedback_rate=args.sweep_feedback_rate,
        flush_every=args.sweep_flush,
        day_every=args.sweep_day_every,
        n_workers=args.workers,
        telemetry_window=args.telemetry_window,
        telemetry_out=args.telemetry_out,
    )
    table = Table(
        ["metric", "value"],
        title="sweep-bench — lockstep sweep vs %d independent replays "
        "(n=%d, %d queries)"
        % (len(variants), args.sweep_pages, args.sweep_queries),
    )
    for key in sorted(report):
        table.add_row(key, report[key])
    print(table.render())
    return 0


def run_sweep_fig(args: argparse.Namespace) -> int:
    """Render the serving trade-off figures from one lockstep sweep run."""
    from repro.community.config import DEFAULT_COMMUNITY
    from repro.serving.figures import (
        sweep_tradeoff_figures,
        telemetry_series_figure,
    )
    from repro.serving.sweep import parse_grid_values, run_sweep, variant_grid
    from repro.serving.workload import (
        StreamingWorkload,
        WorkloadConfig,
        record_trace,
    )
    from repro.utils.rng import derive_seed

    variants = variant_grid(
        ks=parse_grid_values(args.grid_k, int, name="--grid-k", minimum=1),
        rs=parse_grid_values(
            args.grid_r, float, name="--grid-r", minimum=0.0, maximum=1.0
        ),
        staleness_budgets=parse_grid_values(
            args.grid_stale, int, name="--grid-stale", minimum=0
        ),
        shard_counts=parse_grid_values(
            args.grid_shards, int, name="--grid-shards", minimum=1
        ),
        cache_capacity=args.sweep_cache_size if args.sweep_cache_size > 0 else None,
    )
    _apply_backend(args)
    community = DEFAULT_COMMUNITY.scaled(args.sweep_pages)
    workload = StreamingWorkload(
        WorkloadConfig(
            n_distinct_queries=256,
            k=max(variant.k for variant in variants),
            feedback_rate=args.sweep_feedback_rate,
            flush_every=args.sweep_flush,
        ),
        seed=derive_seed(args.seed, "sweep-stream"),
    )
    trace = record_trace(workload, args.sweep_queries, day_every=args.sweep_day_every)

    recorder = None
    if args.telemetry_window is not None or args.telemetry_out is not None:
        from repro.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder(
            window=args.telemetry_window or trace.flush_every,
            out=args.telemetry_out,
            label="sweep-fig",
        )
        recorder.install_kernel_spans()
    try:
        result = run_sweep(
            community,
            variants,
            trace,
            seed=args.seed,
            n_workers=args.workers,
            warm_awareness=True,
            telemetry=recorder,
        )
    finally:
        if recorder is not None:
            recorder.close()

    figures = sweep_tradeoff_figures(result)
    if recorder is not None:
        series = telemetry_series_figure(recorder.rows, kind="sweep")
        if series is not None:
            figures.append(series)
    for figure in figures:
        print(figure.render())
        print()
    print(
        "swept %d variants over %d recorded queries (%.2fs)"
        % (len(variants), args.sweep_queries, result.elapsed_seconds)
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in list_experiments():
            print(name)
        return 0

    if args.experiment == "serve-bench":
        started = time.time()
        code = run_serve_bench(args)
        print()
        print("completed serve-bench in %.1fs" % (time.time() - started))
        return code

    if args.experiment == "chaos-bench":
        started = time.time()
        code = run_chaos_bench(args)
        print()
        print("completed chaos-bench in %.1fs" % (time.time() - started))
        return code

    if args.experiment == "sim-bench":
        started = time.time()
        code = run_sim_bench(args)
        print()
        print("completed sim-bench in %.1fs" % (time.time() - started))
        return code

    if args.experiment == "sweep-bench":
        started = time.time()
        code = run_sweep_bench(args)
        print()
        print("completed sweep-bench in %.1fs" % (time.time() - started))
        return code

    if args.experiment == "sweep-fig":
        started = time.time()
        code = run_sweep_fig(args)
        print()
        print("completed sweep-fig in %.1fs" % (time.time() - started))
        return code

    try:
        driver = get_experiment(args.experiment)
    except KeyError as error:
        print(str(error), file=sys.stderr)
        return 2

    started = time.time()
    result = driver(scale=args.scale, seed=args.seed)
    elapsed = time.time() - started
    print(result.render())
    print()
    print("completed %s at scale %r in %.1fs" % (args.experiment, args.scale, elapsed))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
