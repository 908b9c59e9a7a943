"""End-to-end benchmark of the reproduction, with a traced per-layer split.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one at a time

With ``--workload`` the run measures that one workload (``sim``, ``serve``
or ``sweep``) for ``--seconds`` seconds and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it holds drift diagnostics,
which are not metrics: host, versions, backend, workload shape, two fixed
host-reference timings, and per-unit figures (fluid and stochastic
page-days/s of ``sim``; ``router.serve`` p50 and p99.9 of ``serve``, each
over the unit's queries).  Without ``--workload`` every workload runs in its
own fresh process, one after another, and one table prints the end-to-end
metrics and figures under their per-workload names.

Everything runs in one single-threaded process on the numpy kernel backend,
in process: no worker pool, no ``ServingPool``, robustness and telemetry off.

A run repeats one *unit* — set-up, one timed call into the program, output
checks — until its time is spent, and reports the slow-side quartile over
the units: the lower quartile of throughputs and the upper quartile of
times.  On a shared 2-vCPU host the speed of one vCPU alternates between a
common contended state and bursts of up to twice the speed; the median moves
with the share of bursts in a run, while the slow-side quartile stays on the
contended state.

``work_per_s``
    Work of the timed call / its wall seconds.  The work unit is the
    page-day for ``sim`` (replicates x pages x days, fluid and stochastic
    ``BatchSimulator.run`` together), the query for ``serve`` (trace length,
    flushes included) and the replayed query for ``sweep`` (variants x trace
    length of ``ServingSweep.run``).
``setup_s``
    In-process construction after imports: the two simulators (``sim``);
    the router, its steady-state awareness, each shard's lazy first sort and
    the recorded trace (``serve``); the recorded trace and ``ServingSweep``
    (``sweep``).
``peak_rss_mb``
    ``ru_maxrss`` of the workload's process.

The traced run (``--trace 1``) alternates untraced and traced units on the
same inputs.  Their counters and output digests must be equal; the traced
units give the per-layer split (see ``tracing.py``) and the difference of
the two medians is the tracing overhead.  The spans of the first traced
unit are written to ``perfbench/out/``.

Out of scope:

* the figure drivers at smoke scale, ``analysis/`` and ``livestudy/``:
  interpreter-bound single calls that drifted 7-13% between two sets of
  identical code on a 2-vCPU host;
* ``serving.pool``: its 2 workers and 2 clients exceed 2 cores;
* ``robustness/`` and ``telemetry/``: off by default;
* spans inside the program: only calls into each layer are traced here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SPANS_DIR = Path(__file__).resolve().parent / "out"

# The program under test is this checkout's src/, and numeric libraries run
# single-threaded: both must be settled before numpy and repro are imported.
sys.path.insert(0, str(ROOT / "src"))
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np
import repro
from repro.core.kernels import get_backend, set_backend

import tracing
import workloads

if ROOT / "src" not in Path(repro.__file__).resolve().parents:
    raise SystemExit("repro was imported from %s, not from this checkout" % repro.__file__)

#: Fewest units (trace 0) or untraced/traced pairs (trace 1) in one run.
MIN_UNITS = 3
MIN_PAIRS = 2

#: Name each workload's ``work_per_s`` goes by in the all-workloads table.
THROUGHPUT_NAMES = {
    "sim": "pagedays_per_s",
    "serve": "queries_per_s",
    "sweep": "replayed_queries_per_s",
}

#: Units of the all-workloads table's throughputs and per-unit figures.
TABLE_UNITS = {
    "pagedays_per_s": "page-days/s",
    "fluid_pagedays_per_s": "page-days/s",
    "stochastic_pagedays_per_s": "page-days/s",
    "queries_per_s": "queries/s",
    "replayed_queries_per_s": "queries/s",
    "query_p50_us": "us",
    "query_p999_us": "us",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (default: all, one at a time)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_reference():
    """Fixed host timings that tell a slow host phase from a regression."""
    keys = np.random.default_rng(400_000).random(400_000)
    argsort = []
    for _ in range(5):
        started = time.perf_counter()
        np.argsort(keys)
        argsort.append(time.perf_counter() - started)
    loop = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(1_000_000):
            total += value & 7
        loop.append(time.perf_counter() - started)
    return {
        "argsort_400k_ms": statistics.median(argsort) * 1e3,
        "python_loop_1m_ms": statistics.median(loop) * 1e3,
    }


class Unit:
    """One set-up + timed call + output check."""

    def __init__(self, workload, tracer=None):
        gc.collect()
        clock = time.perf_counter
        started = clock()
        state = workload.setup()
        self.setup_s = clock() - started
        before = workload.counters(state)
        if tracer is None:
            started = clock()
            outcome = workload.run(state)
            ended = clock()
        else:
            with tracing.installed(tracer):
                started = clock()
                outcome = workload.run(state)
                ended = clock()
            tracer.spans.append((tracing.DRIVER_SPAN, started, ended, 0))
        self.wall_s = ended - started
        after = workload.counters(state)
        self.counters = {name: after[name] - before[name] for name in after}
        self.verdict = workload.check(state, outcome, self.counters)
        self.figures = workload.figures(outcome)
        self.traced = tracer is not None

    def judge(self, reference: "Unit"):
        """Operations attempted and failed; the outputs must repeat ``reference``'s."""
        verdict, expected = self.verdict, reference.verdict
        ok = verdict.ok.copy()
        if verdict.fingerprint.shape == expected.fingerprint.shape:
            ok &= (verdict.fingerprint == expected.fingerprint).reshape(ok.size, -1).all(axis=1)
        else:
            ok[:] = False
        if (
            verdict.digest != expected.digest
            or verdict.observed != expected.observed
            or self.counters != reference.counters
        ):
            ok[:] = False
        return int(ok.size), int(ok.size - np.count_nonzero(ok))


def measure(workload, seconds, traced, spec):
    """Units until ``seconds`` are spent; with ``traced``, untraced/traced pairs.

    Returns the units, the span summary of the traced ones, and the counts
    of operations attempted and failed.
    """
    percentile_spans = {
        metric["name"].rsplit(".", 1)[0]
        for metric in spec["per_layer"]
        if metric["name"].endswith("_us")
    }
    summary = tracing.SpanSummary(percentile_spans)
    units = []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        if traced:
            # Alternate which side of a pair runs first, so drift favours neither.
            order = (False, True) if len(units) % 4 == 0 else (True, False)
        else:
            order = (False,)
        for with_tracer in order:
            tracer = tracing.Tracer() if with_tracer else None
            unit = Unit(workload, tracer)
            units.append(unit)
            reference = units[0]
            ops, bad = unit.judge(reference)
            attempted += ops
            failed += bad
            if unit is not reference:
                unit.verdict.fingerprint = None  # only the reference's is compared
            if tracer is not None:
                ordered, parents, self_seconds = tracing.nest(tracer.spans)
                summary.add(ordered, self_seconds)
                if summary.units == 1:
                    SPANS_DIR.mkdir(exist_ok=True)
                    path = SPANS_DIR / ("spans-%s.jsonl" % workload.name)
                    tracing.write_spans(path, ordered, parents)
        done = len(units) // len(order)
        minimum = MIN_PAIRS if traced else MIN_UNITS
        elapsed = time.perf_counter() - started
        if done >= minimum and elapsed * (done + 1) / done > seconds:
            return units, summary, attempted, failed


def slow_side(values, higher_is_better):
    """The run's figure: the quartile on the slow side of the per-unit values."""
    lower, _, upper = statistics.quantiles(values, n=4)
    return lower if higher_is_better else upper


def end_to_end(workload, units, spec):
    values = {
        "work_per_s": slow_side([workload.work / unit.wall_s for unit in units], True),
        "setup_s": slow_side([unit.setup_s for unit in units], False),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def per_layer(units, summary, spec):
    traced = [unit.wall_s for unit in units if unit.traced]
    untraced = [unit.wall_s for unit in units if not unit.traced]
    overhead = statistics.median(traced) - statistics.median(untraced)
    reference = units[0]
    values = dict(reference.counters)
    values.update(reference.verdict.observed)
    hits, misses = values["cache.hits"], values["cache.misses"]
    values["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values.setdefault("sweep.cache_hit_ratio_mean", 0.0)  # no sweep in this workload
    values["bench.trace_overhead_s"] = overhead
    values["bench.trace_overhead_pct"] = 100.0 * overhead / statistics.median(untraced)
    spans = tracing.known_spans()
    metrics = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name not in values:
            span, _, field = name.rpartition(".")
            if span not in spans:
                raise KeyError("per-layer metric %r names no span or counter" % name)
            values[name] = summary.value(span, field)
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
    return metrics


def run_workload(args, spec):
    set_backend("numpy")
    workload = workloads.build(args.workload, args.seed)
    diagnostics = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": get_backend().name,
        "shape": workload.shape,
        "host_reference": host_reference(),
    }
    workload.prepare()
    units, summary, attempted, failed = measure(workload, args.seconds, bool(args.trace), spec)
    diagnostics["units"] = len(units)
    diagnostics["work_per_s_units"] = [workload.work / unit.wall_s for unit in units]
    diagnostics["setup_s_units"] = [unit.setup_s for unit in units]
    untraced = [unit for unit in units if not unit.traced]
    diagnostics["figure_units"] = len(untraced)
    diagnostics["figures"] = {
        name: slow_side([unit.figures[name] for unit in untraced], name.endswith("_per_s"))
        for name in untraced[0].figures
    }
    if args.trace:
        metrics = per_layer(units, summary, spec)
        diagnostics["traced_units"] = summary.units
        diagnostics["percentile_samples"] = {
            name: len(samples) for name, samples in summary.durations.items()
        }
    else:
        metrics = end_to_end(workload, units, spec)
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def run_all(args, spec):
    """Every workload in its own fresh process, one at a time; one table."""
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    rows = []
    for entry in spec["workloads"]:
        name = entry["name"]
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0",
        ]
        process = subprocess.run(command, capture_output=True, text=True, check=False)
        if process.returncode != 0:
            sys.stderr.write(process.stderr)
            return process.returncode
        lines = process.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        diagnostics = json.loads(lines[-2].split(" ", 1)[1])
        metrics = result["metrics"]
        figures = {THROUGHPUT_NAMES[name]: metrics["work_per_s"]["value"]}
        figures.update(diagnostics["figures"])
        rows.extend((name, figure, value, TABLE_UNITS[figure]) for figure, value in figures.items())
        for metric in ("setup_s", "peak_rss_mb"):
            rows.append((name, metric, metrics[metric]["value"], metrics[metric]["unit"]))
        rows.append((name, "correct", result["correct"], "%d ops" % result["attempted"]))
    for name, metric, value, unit in rows:
        shown = str(value) if isinstance(value, bool) else "%.6g" % value
        print("%-16s %-28s %-14s %s" % (name, metric, shown, unit))
    return 0


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    if args.workload is None:
        return run_all(args, spec)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
