"""The benchmark's workloads: inputs derived from the seed, one timed unit, output checks.

Each workload builds fresh program objects per unit (``setup``), runs one
timed call into the program (``run``), and checks the outputs afterwards
(``check``).  Every input comes from the workload seed through
``derive_seed``, ``spawn_rngs`` or ``variant_seed``, and every object is
built through the public construction surface (``ServingConfig`` /
``build_router``, ``BatchSimulator``, ``ServingSweep`` / ``variant_grid`` /
``build_variant_router``, ``record_trace``).

All units of one run use the same inputs, so their outputs, counters and
digests must be identical; ``run.py`` checks that against the first unit,
which is also what proves a traced unit executed exactly as an untraced one.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List

import numpy as np

from repro import (
    DEFAULT_COMMUNITY,
    RECOMMENDED_POLICY,
    BatchSimulator,
    ServingConfig,
    ServingSweep,
    SimulationConfig,
    Simulator,
    StreamingWorkload,
    WorkloadConfig,
    build_router,
    record_trace,
    variant_grid,
)
from repro.core.kernels import ROUTE_STATS
from repro.serving.bench import seed_steady_state_awareness
from repro.serving.sweep import build_variant_router, variant_seed
from repro.simulation.replay import replay_trace
from repro.utils.rng import derive_seed, spawn_rngs
from repro.visits.attention import PowerLawAttention

#: Exact counters recorded around every timed call (per-layer metric names).
COUNTERS = (
    "kernels.route_full",
    "kernels.route_run_merge",
    "kernels.route_windowed",
    "kernels.route_copy",
    "router.flushes",
    "router.occ_conflicts",
    "router.occ_retries",
    "router.dead_letter_events",
    "cache.hits",
    "cache.misses",
    "cache.stale_evictions",
    "engine.full_sorts",
    "engine.repairs",
    "state.committed_events",
)

_ROUTER_STATS = {
    "router.flushes": "flushes",
    "router.occ_conflicts": "occ_conflicts",
    "router.occ_retries": "occ_retries",
    "router.dead_letter_events": "dead_letter_events",
    "cache.hits": "cache_hits",
    "cache.misses": "cache_misses",
    "cache.stale_evictions": "cache_stale_evictions",
}


def _counters(routers=(), committed_events: int = 0) -> Dict[str, int]:
    """Current totals of :data:`COUNTERS` over ``routers`` and the route stats."""
    counts = dict.fromkeys(COUNTERS, 0)
    counts["kernels.route_full"] = ROUTE_STATS.full
    counts["kernels.route_run_merge"] = ROUTE_STATS.run_merge
    counts["kernels.route_windowed"] = ROUTE_STATS.windowed
    counts["kernels.route_copy"] = ROUTE_STATS.copy
    for router in routers:
        stats = router.stats()
        for name, key in _ROUTER_STATS.items():
            counts[name] += int(stats[key])
        for engine in router.engines:
            counts["engine.full_sorts"] += engine.full_sorts
            counts["engine.repairs"] += engine.repairs
    counts["state.committed_events"] = committed_events
    return counts


def _crc(*arrays: np.ndarray) -> int:
    digest = 0
    for array in arrays:
        digest = zlib.crc32(np.ascontiguousarray(array).tobytes(), digest)
    return digest


@dataclass
class Verdict:
    """Checked outputs of one unit.

    ``ok`` has one entry per operation (replicate, query or variant);
    ``fingerprint`` one row per operation, compared with the first unit's;
    ``digest`` covers the final program state; ``observed`` holds further
    exact outputs (a count, a mean ratio) that must also repeat.
    """

    ok: np.ndarray
    fingerprint: np.ndarray
    digest: int
    observed: Dict[str, float] = field(default_factory=dict)


@dataclass
class SimOutcome:
    results: List[list]
    seconds: List[float]


class SimWorkload:
    """``BatchSimulator.run()`` of the paper's default community, fluid then stochastic."""

    name = "sim"
    replicates = 32
    phases = (("fluid", 30), ("stochastic", 12))

    def __init__(self, seed: int) -> None:
        self.community = DEFAULT_COMMUNITY
        self.configs = [
            SimulationConfig(
                warmup_days=days // 2,
                measure_days=days - days // 2,
                mode=mode,
                snapshot_awareness=False,
            )
            for mode, days in self.phases
        ]
        self.streams = [derive_seed(seed, "sim-" + mode) for mode, _ in self.phases]
        self.phase_work = [
            self.replicates * self.community.n_pages * days for _, days in self.phases
        ]
        self.work = sum(self.phase_work)
        self.shape = {
            "replicates": self.replicates,
            "n_pages": self.community.n_pages,
            "days": dict(self.phases),
            "work_unit": "page-days",
        }
        self.oracles = []

    def prepare(self) -> None:
        """Replicate 0 of each phase through the sequential ``Simulator`` on the same stream."""
        for config, stream in zip(self.configs, self.streams, strict=True):
            rng = spawn_rngs(stream, self.replicates)[0]
            simulator = Simulator(
                self.community, RECOMMENDED_POLICY.build_ranker(), config.with_seed(rng)
            )
            self.oracles.append(simulator.run().qpc_absolute)

    def setup(self) -> List[BatchSimulator]:
        return [
            BatchSimulator(
                self.community,
                RECOMMENDED_POLICY.build_ranker(),
                config,
                rngs=spawn_rngs(stream, self.replicates),
            )
            for config, stream in zip(self.configs, self.streams, strict=True)
        ]

    def run(self, simulators: List[BatchSimulator]) -> SimOutcome:
        outcome = SimOutcome(results=[], seconds=[])
        for simulator in simulators:
            started = perf_counter()
            outcome.results.append(simulator.run())
            outcome.seconds.append(perf_counter() - started)
        return outcome

    def counters(self, simulators: List[BatchSimulator]) -> Dict[str, int]:
        return _counters()

    def check(self, simulators: List[BatchSimulator], outcome: SimOutcome, delta) -> Verdict:
        qpc = np.array(
            [[result.qpc_absolute for result in results] for results in outcome.results]
        )
        ok = np.isfinite(qpc) & (qpc > 0)
        ok[:, 0] &= qpc[:, 0] == np.array(self.oracles)
        state = [array for sim in simulators for array in (sim.pool.aware_count, sim.pool.page_ids)]
        return Verdict(ok=ok.ravel(), fingerprint=qpc.reshape(-1, 1), digest=_crc(qpc, *state))

    def figures(self, outcome: SimOutcome) -> Dict[str, float]:
        return {
            "%s_pagedays_per_s" % mode: work / seconds
            for (mode, _), work, seconds in zip(
                self.phases, self.phase_work, outcome.seconds, strict=True
            )
        }


@dataclass
class ServeState:
    router: object
    query_ids: List[int]
    coins: List[float]
    positions: List[float]
    latencies: List[float]
    pages: List[np.ndarray]
    submitted: int = 0
    committed: int = 0
    dead_lettered: int = 0


class ServeWorkload:
    """One closed-loop client replaying a recorded Zipf stream through a router."""

    name = "serve"
    n_queries = 20_000
    k = 20

    def __init__(self, seed: int) -> None:
        self.config = ServingConfig(
            n_pages=200_000,
            n_shards=4,
            cache_capacity=64,
            staleness_budget=4,
            seed=derive_seed(seed, "serve-router"),
        )
        self.warm_seed = derive_seed(seed, "serve-warm")
        self.stream_seed = derive_seed(seed, "serve-stream")
        self.stream = WorkloadConfig(
            n_distinct_queries=25_000,
            zipf_exponent=1.1,
            k=self.k,
            feedback_rate=0.2,
            flush_every=64,
        )
        self.click_cdf = np.cumsum(PowerLawAttention().visit_shares(self.k)).tolist()
        self.work = self.n_queries
        self.shape = {
            "n_pages": self.config.n_pages,
            "n_shards": self.config.n_shards,
            "queries": self.n_queries,
            "distinct_queries": self.stream.n_distinct_queries,
            "k": self.k,
            "work_unit": "queries",
        }

    def prepare(self) -> None:
        pass

    def setup(self) -> ServeState:
        router = build_router(self.config)
        seed_steady_state_awareness(router, rng=self.warm_seed)
        for engine in router.engines:
            engine.top_k(self.k)  # the lazy first sort of each shard's order
        trace = record_trace(
            StreamingWorkload(self.stream, seed=self.stream_seed), self.n_queries
        )
        return ServeState(
            router=router,
            query_ids=trace.query_ids.tolist(),
            coins=trace.coin_u.tolist(),
            positions=trace.position_u.tolist(),
            latencies=[0.0] * self.n_queries,
            pages=[None] * self.n_queries,
        )

    def run(self, state: ServeState) -> ServeState:
        clock = perf_counter
        router = state.router
        serve = router.serve
        submit = router.submit_feedback
        flush = router.flush_feedback
        k = self.k
        rate = self.stream.feedback_rate
        every = self.stream.flush_every
        cdf = self.click_cdf
        latencies = state.latencies
        pages = state.pages
        for index, (query, coin, position) in enumerate(
            zip(state.query_ids, state.coins, state.positions, strict=True)
        ):
            started = clock()
            page = serve(query, k)
            latencies[index] = clock() - started
            pages[index] = page
            if coin < rate:
                submit(query, int(page[min(bisect_right(cdf, position), page.size - 1)]))
                state.submitted += 1
            if (index + 1) % every == 0:
                report = flush()
                state.committed += report.committed
                state.dead_lettered += report.dead_letter_events
        report = flush()
        state.committed += report.committed
        state.dead_lettered += report.dead_letter_events
        return state

    def counters(self, state: ServeState) -> Dict[str, int]:
        return _counters([state.router], state.committed)

    def check(self, state: ServeState, outcome: ServeState, delta) -> Verdict:
        router = state.router
        sizes = np.fromiter((page.size for page in state.pages), int, self.n_queries)
        ok = sizes == self.k
        if ok.all():
            pages = np.stack(state.pages).astype(np.int64, copy=False)
        else:
            pages = np.zeros((self.n_queries, self.k), dtype=np.int64)
            for index in np.flatnonzero(ok):
                pages[index] = state.pages[index]
        shard_sizes = np.array([engine.state.n for engine in router.engines])
        shard_of = {query: router.shard_for(query) for query in set(state.query_ids)}
        shards = np.array([shard_of[query] for query in state.query_ids])
        ok &= (pages >= 0).all(axis=1)
        ok &= (pages < shard_sizes[shards][:, None]).all(axis=1)
        ok &= (np.diff(np.sort(pages, axis=1), axis=1) > 0).all(axis=1)
        # Run-level accounting: a failure fails every query of the unit.
        lookups_balance = delta["cache.hits"] + delta["cache.misses"] == self.n_queries
        feedback_balance = state.submitted == state.committed + state.dead_lettered
        if not (lookups_balance and feedback_balance):
            ok[:] = False
        awareness = [engine.state.pool.aware_count for engine in router.engines]
        return Verdict(
            ok=ok,
            fingerprint=pages,
            digest=_crc(pages, *awareness),
            observed={"feedback_submitted": state.submitted},
        )

    def figures(self, state: ServeState) -> Dict[str, float]:
        """Per-call ``router.serve`` latency of this unit (``n_queries`` samples)."""
        p50, p999 = np.percentile(state.latencies, (50, 99.9))
        return {"query_p50_us": p50 * 1e6, "query_p999_us": p999 * 1e6}


@dataclass
class SweepState:
    sweep: ServingSweep
    trace: object


class SweepWorkload:
    """``ServingSweep.run`` of the 32-variant default grid (the paper-size sweep)."""

    name = "sweep"
    n_queries = 12_000
    checked = (0, 13, 22, 31)

    def __init__(self, seed: int) -> None:
        self.community = DEFAULT_COMMUNITY.scaled(20_000)
        self.variants = variant_grid()
        self.seed = derive_seed(seed, "sweep")
        self.stream_seed = derive_seed(seed, "sweep-stream")
        self.stream = WorkloadConfig(
            n_distinct_queries=256,
            zipf_exponent=1.1,
            k=max(variant.k for variant in self.variants),
            feedback_rate=0.2,
            flush_every=64,
        )
        self.work = len(self.variants) * self.n_queries
        self.shape = {
            "n_pages": self.community.n_pages,
            "variants": len(self.variants),
            "queries": self.n_queries,
            "distinct_queries": self.stream.n_distinct_queries,
            "work_unit": "replayed queries",
        }
        self.oracle = {}

    def _trace(self):
        return record_trace(
            StreamingWorkload(self.stream, seed=self.stream_seed), self.n_queries
        )

    def prepare(self) -> None:
        """Standalone per-variant replays of the checked variants."""
        trace = self._trace()
        for index in self.checked:
            variant = self.variants[index]
            router = build_variant_router(
                self.community, variant, variant_seed(self.seed, index), warm_awareness=True
            )
            self.oracle[index] = replay_trace(router, trace, variant.k)

    def setup(self) -> SweepState:
        trace = self._trace()
        sweep = ServingSweep(
            self.community, self.variants, seed=self.seed, warm_awareness=True
        )
        return SweepState(sweep=sweep, trace=trace)

    def run(self, state: SweepState):
        return state.sweep.run(state.trace)

    def counters(self, state: SweepState) -> Dict[str, int]:
        return _counters(state.sweep.routers)

    def figures(self, results) -> Dict[str, float]:
        return {}  # work_per_s is the sweep's only figure

    def check(self, state: SweepState, results, delta) -> Verdict:
        ok = np.ones(len(self.variants), dtype=bool)
        for index in self.checked:
            ok[index] = results[index].matches(self.oracle[index])
        fingerprint = np.array(
            [
                [
                    result.pages_crc,
                    result.clicked_crc,
                    result.feedback_events,
                    sum(result.final_versions),
                    _crc(*result.final_awareness),
                ]
                for result in results
            ],
            dtype=np.int64,
        )
        hit_rates = [result.stats.get("cache_hit_rate", 0.0) for result in results]
        return Verdict(
            ok=ok,
            fingerprint=fingerprint,
            digest=_crc(fingerprint),
            observed={"sweep.cache_hit_ratio_mean": float(np.mean(hit_rates))},
        )


def build(name: str, seed: int):
    """The workload called ``name`` with inputs derived from ``seed``."""
    workloads = {"sim": SimWorkload, "serve": ServeWorkload, "sweep": SweepWorkload}
    if name not in workloads:
        raise ValueError("unknown workload %r" % name)
    return workloads[name](seed)
