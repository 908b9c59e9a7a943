"""Per-kernel micro-benchmarks for the backend-dispatched kernel layer.

Each benchmark times one kernel of the active backend (selected by
``REPRO_KERNEL_BACKEND``, the CI matrix sets it per leg) against the
*unfused* sequential reference — the per-row/per-lane single-community
code the kernel replaced — on identical inputs, asserts bit parity
between the two paths, and exports the fused-vs-unfused throughput ratio
in ``extra_info``.  The ratios are in-process comparisons of two code
paths doing identical work, so they are machine-independent and safe to
gate: ``benchmarks/baselines/bench-floor.json`` carries their floors and
``check_regression.py`` fails CI when one drops.

When numba is installed, :func:`test_bench_kernel_numba_day_throughput`
additionally measures whole batch-day throughput numba-vs-numpy and
asserts the acceptance bar of the kernel-dispatch PR: the fused backend
must sustain **>= 1.5x** the numpy backend's day throughput on the 1-core
reference container, with bit-identical results.  (Not gated in the
baseline file — it only exists on the numba CI leg.)

Every timed region runs after ``backend.warmup()`` plus one untimed call
of both paths, so JIT compilation never lands inside a measurement.
"""

import time

import numpy as np
import pytest

from repro.community.config import DEFAULT_COMMUNITY
from repro.community.page import awareness_gain
from repro.core.kernels import available_backends, get_backend, use_backend
from repro.core.kernels.numpy_backend import merge_repair
from repro.core.merge import randomized_merge
from repro.core.policy import RankPromotionPolicy
from repro.core.rankers import _deterministic_order
from repro.simulation import BatchSimulator, SimulationConfig
from repro.utils.rng import spawn_rngs
from repro.visits.allocation import allocate_monitored_visits, rank_visit_shares
from repro.visits.attention import PowerLawAttention

from conftest import BENCH_SCALE, BENCH_SEED, run_report_once

#: (R, n) for the (R, n)-shaped kernels, per scale level.
KERNEL_BENCH_SIZES = {
    "smoke": (32, 2_000),
    "fast": (32, 10_000),
    "paper": (64, 20_000),
}

#: (lanes, n, dirty per lane, feedback events per lane) for the sweep-shaped
#: kernels, per scale level.
LANE_BENCH_SIZES = {
    "smoke": (24, 2_000, 40, 200),
    "fast": (24, 10_000, 120, 400),
    "paper": (48, 20_000, 240, 800),
}

REPEATS = 5

KERNEL_INFO_KEYS = (
    "kernel_backend",
    "replicates",
    "n_pages",
    "speedup_rank_day_vs_perrow",
    "speedup_promotion_merge_vs_perrow",
    "speedup_day_tail_vs_perrow",
    "speedup_lane_repair_vs_perlane",
    "speedup_feedback_flush_vs_perlane",
    "speedup_numba_vs_numpy_day",
    "adaptive_vs_full_rank_ratio",
    "fluid_windowed_rank_ratio",
    "windowed_route_rows",
    "windowed_displacement_max",
    "blocked_vs_unblocked_tail_ratio",
    "parity_bit_identical",
)

#: Acceptance bar for the numba backend's whole-day throughput (the
#: kernel-dispatch PR's criterion, asserted on the numba CI leg).
MIN_NUMBA_DAY_SPEEDUP = 1.5

#: Acceptance bar for the adaptive rank_day path on near-sorted fluid days
#: at R=32/n=10k.  Asserted on the numba CI leg, whose fused per-row
#: detection + re-insertion merge turns the O(n log n) argsort into one
#: O(n + d log d) pass; the pure-numpy adaptive path runs the same
#: algorithm as ~a dozen batched array passes, which on the 1-core
#: container is memory-bound at roughly break-even with the full sort (its
#: floor below guards that routing through the hint never regresses).
MIN_ADAPTIVE_RANK_SPEEDUP = 1.5

#: Acceptance bars for the displacement-bounded windowed route on a dense
#: fluid day (every page jitters within a narrow rank band) at R=32/n=10k.
#: The numpy leg's strided block-sort beats the full argsort by >= 1.15x
#: (the bench-floor.json reference, gated with the shared 25% runner
#: tolerance; the in-test hard assert pins "never loses" at 1.0 because
#: the measured ~1.2-1.3x leaves too little margin for a shared runner's
#: worst noise spikes).  The numba leg's fused bounded-insertion pass
#: must hard-beat >= 1.4x.
MIN_WINDOWED_RANK_SPEEDUP_NUMPY = 1.0
MIN_WINDOWED_RANK_SPEEDUP_NUMBA = 1.4

#: The acceptance shape for the adaptive-rank and blocked-tail benches:
#: both effects are regime-dependent (the day tail's temporaries only
#: leave cache at large R*n), so these two benches pin the ISSUE's
#: R=32/n=10k point instead of scaling with REPRO_BENCH_SCALE.
ADAPTIVE_BENCH_SHAPE = (32, 10_000)


def _shape():
    return KERNEL_BENCH_SIZES.get(BENCH_SCALE, KERNEL_BENCH_SIZES["smoke"])


def _lane_shape():
    return LANE_BENCH_SIZES.get(BENCH_SCALE, LANE_BENCH_SIZES["smoke"])


def _best_of(fn, repeats=REPEATS):
    """Best wall time of ``repeats`` runs (one untimed warm-up call first)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _realistic_scores(rng, R, n):
    """Popularity-shaped scores: unique values plus a zero-awareness block.

    This is the tie structure the engines actually see (the big tie run
    sits at popularity zero), and what the batched sort + tie-run repair
    was designed for; a uniformly coarse grid would instead benchmark a
    pathological hundred-runs-per-row regime no workload produces.
    """
    scores = rng.random((R, n))
    scores[rng.random((R, n)) < 0.3] = 0.0
    return scores


def bench_rank_day():
    backend = get_backend()
    backend.warmup()
    rng = np.random.default_rng(BENCH_SEED)
    R, n = _shape()
    scores = _realistic_scores(rng, R, n)

    batched = backend.rank_day(scores, None, "random", spawn_rngs(BENCH_SEED, R))
    perrow = np.stack(
        [
            _deterministic_order(scores[row], None, "random", generator)
            for row, generator in enumerate(spawn_rngs(BENCH_SEED, R))
        ]
    )
    parity = bool(np.array_equal(batched, perrow))

    seq_rngs = spawn_rngs(BENCH_SEED, R)
    batch_rngs = spawn_rngs(BENCH_SEED, R)
    seq_seconds = _best_of(
        lambda: [
            _deterministic_order(scores[row], None, "random", seq_rngs[row])
            for row in range(R)
        ]
    )
    batch_seconds = _best_of(
        lambda: backend.rank_day(scores, None, "random", batch_rngs)
    )
    return {
        "kernel_backend": backend.name,
        "replicates": float(R),
        "n_pages": float(n),
        "parity_bit_identical": 1.0 if parity else 0.0,
        "speedup_rank_day_vs_perrow": seq_seconds / batch_seconds,
    }


def bench_promotion_merge():
    backend = get_backend()
    backend.warmup()
    rng = np.random.default_rng(BENCH_SEED)
    R, n = _shape()
    k, r = 1, 0.2
    perms = np.argsort(-rng.random((R, n)), axis=1)
    mask = rng.random((R, n)) < 0.2

    def perrow(rngs):
        merged = []
        for row in range(R):
            order = perms[row]
            by_rank = mask[row][order]
            merged.append(
                randomized_merge(
                    order[~by_rank], order[by_rank], k, r, rngs[row]
                )
            )
        return np.stack(merged)

    batched = backend.promotion_merge(perms, mask, k, r, spawn_rngs(BENCH_SEED, R))
    parity = bool(np.array_equal(batched, perrow(spawn_rngs(BENCH_SEED, R))))

    seq_rngs = spawn_rngs(BENCH_SEED, R)
    batch_rngs = spawn_rngs(BENCH_SEED, R)
    seq_seconds = _best_of(lambda: perrow(seq_rngs))
    batch_seconds = _best_of(
        lambda: backend.promotion_merge(perms, mask, k, r, batch_rngs)
    )
    return {
        "kernel_backend": backend.name,
        "replicates": float(R),
        "n_pages": float(n),
        "parity_bit_identical": 1.0 if parity else 0.0,
        "speedup_promotion_merge_vs_perrow": seq_seconds / batch_seconds,
    }


def bench_day_tail():
    backend = get_backend()
    backend.warmup()
    rng = np.random.default_rng(BENCH_SEED)
    R, n = _shape()
    rate, m = 25.0, 100
    attention = PowerLawAttention()
    quality = rng.random((R, n))
    aware0 = np.floor(rng.random((R, n)) * m)
    rankings = np.argsort(-(aware0 / m * quality), axis=1)
    rngs = spawn_rngs(BENCH_SEED, R)

    def perrow(aware):
        for row in range(R):
            shares = rank_visit_shares(rankings[row], attention)
            monitored = allocate_monitored_visits(shares, rate, "fluid", rngs[row])
            gained = awareness_gain(aware[row], m, monitored, mode="fluid")
            aware[row] = np.minimum(m, aware[row] + gained)

    def batched(aware):
        backend.day_tail(
            rankings, attention.visit_shares(n), rate, "fluid", rngs, aware, m
        )

    check_seq = aware0.copy()
    check_batch = aware0.copy()
    perrow(check_seq)
    batched(check_batch)
    parity = bool(np.array_equal(check_seq, check_batch))

    aware_seq = aware0.copy()
    aware_batch = aware0.copy()
    seq_seconds = _best_of(lambda: perrow(aware_seq))
    batch_seconds = _best_of(lambda: batched(aware_batch))
    return {
        "kernel_backend": backend.name,
        "replicates": float(R),
        "n_pages": float(n),
        "parity_bit_identical": 1.0 if parity else 0.0,
        "speedup_day_tail_vs_perrow": seq_seconds / batch_seconds,
    }


def _lane_repair_inputs():
    rng = np.random.default_rng(BENCH_SEED)
    lanes, n, dirty_size, _ = _lane_shape()
    orders, pops, dirties = [], [], []
    for _ in range(lanes):
        pop = np.round(rng.random(n), 2)
        order = np.lexsort((rng.random(n), -pop))
        dirty = np.sort(rng.choice(n, size=dirty_size, replace=False))
        pop[dirty] = np.round(rng.random(dirty_size), 2)
        orders.append(order)
        pops.append(pop)
        dirties.append(dirty)
    return orders, pops, dirties


def bench_lane_repair():
    backend = get_backend()
    backend.warmup()
    orders, pops, dirties = _lane_repair_inputs()
    lanes, n, dirty_size, _ = _lane_shape()

    def perlane():
        scratch = None
        repaired = []
        for order, pop, dirty in zip(orders, pops, dirties, strict=True):
            merged, scratch = merge_repair(order, pop, dirty, scratch)
            repaired.append(merged)
        return repaired

    grouped = backend.lane_repair(orders, pops, dirties)
    parity = all(
        np.array_equal(ours, theirs) for ours, theirs in zip(grouped, perlane(), strict=True)
    )

    seq_seconds = _best_of(perlane)
    batch_seconds = _best_of(lambda: backend.lane_repair(orders, pops, dirties))
    return {
        "kernel_backend": backend.name,
        "replicates": float(lanes),
        "n_pages": float(n),
        "parity_bit_identical": 1.0 if parity else 0.0,
        "speedup_lane_repair_vs_perlane": seq_seconds / batch_seconds,
    }


def bench_feedback_flush():
    backend = get_backend()
    backend.warmup()
    rng = np.random.default_rng(BENCH_SEED)
    lanes, n, _, events = _lane_shape()
    m = 100
    quality = rng.random((lanes, n))
    aware0 = np.floor(rng.random((lanes, n)) * m)
    indices = [rng.integers(0, n, size=events) for _ in range(lanes)]
    visits = [rng.random(events) * 3 for _ in range(lanes)]

    def perlane(aware, popularity, dirty):
        for lane in range(lanes):
            touched, inverse = np.unique(indices[lane], return_inverse=True)
            summed = np.zeros(touched.size)
            np.add.at(summed, inverse, visits[lane])
            gained = awareness_gain(aware[lane, touched], m, summed, mode="fluid")
            aware[lane, touched] = np.minimum(m, aware[lane, touched] + gained)
            popularity[lane, touched] = (
                aware[lane, touched] / m
            ) * quality[lane, touched]
            dirty[lane, touched] = True

    def grouped(aware, popularity, dirty):
        keys = np.concatenate(
            [indices[lane] + lane * n for lane in range(lanes)]
        )
        summed_visits = np.concatenate(visits)
        touched, inverse = np.unique(keys, return_inverse=True)
        summed = np.zeros(touched.size)
        np.add.at(summed, inverse, summed_visits)
        backend.feedback_flush(
            aware.ravel(), popularity.ravel(), quality.ravel(), dirty.ravel(),
            touched, summed, m,
        )

    state_seq = (aware0.copy(), np.zeros((lanes, n)), np.zeros((lanes, n), bool))
    state_batch = (aware0.copy(), np.zeros((lanes, n)), np.zeros((lanes, n), bool))
    perlane(*state_seq)
    grouped(*state_batch)
    parity = all(
        np.array_equal(ours, theirs)
        for ours, theirs in zip(state_seq, state_batch, strict=True)
    )

    seq_seconds = _best_of(
        lambda: perlane(aware0.copy(), np.zeros((lanes, n)),
                        np.zeros((lanes, n), bool))
    )
    batch_seconds = _best_of(
        lambda: grouped(aware0.copy(), np.zeros((lanes, n)),
                        np.zeros((lanes, n), bool))
    )
    return {
        "kernel_backend": backend.name,
        "replicates": float(lanes),
        "n_pages": float(n),
        "parity_bit_identical": 1.0 if parity else 0.0,
        "speedup_feedback_flush_vs_perlane": seq_seconds / batch_seconds,
    }


def _near_sorted_fluid_day(rng, R, n):
    """Yesterday's permutation plus today's drifted scores.

    The drift mirrors what leaves a fluid day near-sorted: surviving pages
    grow by a monotone map of their popularity (relative order preserved),
    a small set of pages is promoted/demoted to fresh scores, and a few
    lifecycle replacements reset to popularity zero.
    """
    scores_prev = rng.random((R, n))
    prev_perm = np.argsort(-scores_prev, axis=1)
    scores = scores_prev * 1.02
    moved = max(4, n // 400)
    for row in range(R):
        hot = rng.choice(n, size=moved, replace=False)
        scores[row, hot] = rng.random(moved)
        scores[row, hot[: max(1, moved // 4)]] = 0.0
    return scores, prev_perm


def bench_adaptive_rank():
    """Adaptive (prev_perm hint) vs full-argsort rank_day, with bit parity."""
    backend = get_backend()
    backend.warmup()
    R, n = ADAPTIVE_BENCH_SHAPE
    rng = np.random.default_rng(BENCH_SEED)
    scores, prev_perm = _near_sorted_fluid_day(rng, R, n)

    full = backend.rank_day(scores, None, "random", spawn_rngs(BENCH_SEED, R))
    adaptive = backend.rank_day(
        scores, None, "random", spawn_rngs(BENCH_SEED, R), prev_perm=prev_perm
    )
    parity = bool(np.array_equal(full, adaptive))

    full_rngs = spawn_rngs(BENCH_SEED, R)
    adaptive_rngs = spawn_rngs(BENCH_SEED, R)
    full_seconds = _best_of(
        lambda: backend.rank_day(scores, None, "random", full_rngs)
    )
    adaptive_seconds = _best_of(
        lambda: backend.rank_day(
            scores, None, "random", adaptive_rngs, prev_perm=prev_perm
        )
    )
    return {
        "kernel_backend": backend.name,
        "replicates": float(R),
        "n_pages": float(n),
        "parity_bit_identical": 1.0 if parity else 0.0,
        "adaptive_vs_full_rank_ratio": full_seconds / adaptive_seconds,
    }


def _dense_fluid_day(rng, R, n, scale=1e-4):
    """The fluid steady state at density: everything jitters, nothing travels.

    Unlike :func:`_near_sorted_fluid_day` (a few pages teleport, the rest
    keep exact order — the run-merge route's regime), here *every* page
    wiggles by a multiplicative jitter small enough that displacements stay
    inside a narrow band of yesterday's rank.  This is the regime the
    displacement-bounded windowed route exists for: too many breaks for the
    run-merge heal, but a tight bound for the block/insertion sorts.

    Ranks are scattered over a random page layout: near-sortedness lives in
    *rank space* (reachable only through ``prev_perm``), never in raw column
    order, exactly as in a real community — a tiled pre-sorted base would
    hand the full-argsort baseline an O(n) nearly-sorted-input shortcut no
    workload provides.
    """
    values = np.sort(rng.random(n))[::-1]
    pages = rng.permutation(n)
    scores_prev = np.empty((R, n))
    scores_prev[:, pages] = values
    prev_perm = np.argsort(-scores_prev, axis=1)
    scores = scores_prev * (1.0 + rng.normal(0.0, scale, (R, n)))
    return scores, prev_perm


def bench_fluid_windowed_rank():
    """Windowed-route rank_day vs full argsort on a dense fluid day.

    Timed under the ``index`` tie breaker: fluid jitter leaves the keys
    effectively unique, and the ``random`` breaker's per-day tie-key draw
    adds the same ~milliseconds to *both* legs, diluting the route ratio
    this bench exists to pin.
    """
    from repro.core.kernels.numpy_backend import ROUTE_STATS

    backend = get_backend()
    backend.warmup()
    R, n = ADAPTIVE_BENCH_SHAPE
    rng = np.random.default_rng(BENCH_SEED)
    scores, prev_perm = _dense_fluid_day(rng, R, n)

    full = backend.rank_day(scores, None, "index", spawn_rngs(BENCH_SEED, R))
    ROUTE_STATS.reset()
    adaptive = backend.rank_day(
        scores, None, "index", spawn_rngs(BENCH_SEED, R), prev_perm=prev_perm
    )
    stats = ROUTE_STATS.as_dict()
    parity = bool(np.array_equal(full, adaptive))

    full_rngs = spawn_rngs(BENCH_SEED, R)
    adaptive_rngs = spawn_rngs(BENCH_SEED, R)

    def run_full():
        backend.rank_day(scores, None, "index", full_rngs)

    def run_adaptive():
        backend.rank_day(
            scores, None, "index", adaptive_rngs, prev_perm=prev_perm
        )

    # Interleave the two legs' repeats: a noisy-neighbor stall then hits
    # both mins alike instead of sinking whichever leg it landed on, which
    # is what lets the hard per-leg ratio bars below hold on a shared
    # runner.
    run_full()
    run_adaptive()
    full_seconds = adaptive_seconds = float("inf")
    for _ in range(3 * REPEATS):
        started = time.perf_counter()
        run_full()
        full_seconds = min(full_seconds, time.perf_counter() - started)
        started = time.perf_counter()
        run_adaptive()
        adaptive_seconds = min(adaptive_seconds, time.perf_counter() - started)
    return {
        "kernel_backend": backend.name,
        "replicates": float(R),
        "n_pages": float(n),
        "parity_bit_identical": 1.0 if parity else 0.0,
        "fluid_windowed_rank_ratio": full_seconds / adaptive_seconds,
        "windowed_route_rows": float(stats["rank_route_windowed"]),
        "windowed_displacement_max": float(stats["rank_displacement_max"]),
    }


def bench_blocked_tail():
    """Row-blocked numpy day tail vs the unblocked chain, with bit parity.

    Pinned to the numpy backend on every CI leg (the blocked tail is a
    numpy-backend optimization; the numba backend fuses the tail into JIT
    nests instead), so the gated ratio measures the same two code paths
    everywhere.
    """
    from repro.core.kernels.api import KernelBackend
    from repro.core.kernels.numpy_backend import BACKEND as numpy_backend

    rng = np.random.default_rng(BENCH_SEED)
    R, n = ADAPTIVE_BENCH_SHAPE
    rate, m = 25.0, 100
    attention = PowerLawAttention()
    quality = rng.random((R, n))
    aware0 = np.floor(rng.random((R, n)) * m)
    rankings = np.argsort(-(aware0 / m * quality), axis=1)
    shares_by_rank = attention.visit_shares(n)
    rngs = spawn_rngs(BENCH_SEED, R)

    def unblocked(aware):
        return KernelBackend.day_tail(
            numpy_backend, rankings, shares_by_rank, rate, "fluid", rngs,
            aware, m,
        )

    def blocked(aware):
        return numpy_backend.day_tail(
            rankings, shares_by_rank, rate, "fluid", rngs, aware, m
        )

    check_a, check_b = aware0.copy(), aware0.copy()
    shares_a = unblocked(check_a)
    shares_b = blocked(check_b)
    parity = bool(
        np.array_equal(shares_a, shares_b) and np.array_equal(check_a, check_b)
    )

    aware_a, aware_b = aware0.copy(), aware0.copy()
    unblocked_seconds = _best_of(lambda: unblocked(aware_a))
    blocked_seconds = _best_of(lambda: blocked(aware_b))
    return {
        "kernel_backend": get_backend().name,
        "replicates": float(R),
        "n_pages": float(n),
        "parity_bit_identical": 1.0 if parity else 0.0,
        "blocked_vs_unblocked_tail_ratio": unblocked_seconds / blocked_seconds,
    }


def bench_numba_day_throughput():
    """Whole-day throughput, numba backend vs numpy backend, with parity."""
    R, n = _shape()
    days = 12
    community = DEFAULT_COMMUNITY.scaled(n)
    policy = RankPromotionPolicy("selective", 1, 0.1)
    config = SimulationConfig(warmup_days=0, measure_days=days, mode="fluid",
                              seed=BENCH_SEED)
    seconds = {}
    aware = {}
    for name in ("numpy", "numba"):
        with use_backend(name):
            backend = get_backend()
            backend.warmup()
            # Untimed warm run: touches every kernel at the bench shape.
            # One replicate block on both legs: numpy would otherwise step
            # default_workers(R) blocks on threads while numba runs one, and
            # the ratio would compare core counts instead of kernels.
            warm = BatchSimulator(community, policy.build_ranker(), config,
                                  replicates=R, n_workers=1)
            warm.step()
            # Best-of repeats, like every other bench here: one noisy-
            # neighbor stall inside a single timed loop must not flake the
            # hard 1.5x acceptance assert on a shared CI runner.
            best = float("inf")
            for _ in range(3):
                simulator = BatchSimulator(
                    community, policy.build_ranker(), config, replicates=R,
                    n_workers=1,
                )
                started = time.perf_counter()
                for _ in range(days):
                    simulator.step()
                best = min(best, time.perf_counter() - started)
            seconds[name] = best
            aware[name] = simulator.pool.aware_count.copy()
    parity = bool(np.array_equal(aware["numpy"], aware["numba"]))
    return {
        "kernel_backend": "numba",
        "replicates": float(R),
        "n_pages": float(n),
        "parity_bit_identical": 1.0 if parity else 0.0,
        "speedup_numba_vs_numpy_day": seconds["numpy"] / seconds["numba"],
    }


def test_bench_kernel_rank_day(benchmark):
    report = run_report_once(benchmark, bench_rank_day, KERNEL_INFO_KEYS)
    assert report["parity_bit_identical"] == 1.0
    assert report["speedup_rank_day_vs_perrow"] > 1.0


def test_bench_kernel_promotion_merge(benchmark):
    report = run_report_once(benchmark, bench_promotion_merge, KERNEL_INFO_KEYS)
    assert report["parity_bit_identical"] == 1.0
    assert report["speedup_promotion_merge_vs_perrow"] > 1.0


def test_bench_kernel_day_tail(benchmark):
    report = run_report_once(benchmark, bench_day_tail, KERNEL_INFO_KEYS)
    assert report["parity_bit_identical"] == 1.0
    # The numpy backend's row-blocked tail lifted this from ~0.8-1x (the
    # old unfused chain streamed full (R, n) temporaries through L2 while
    # the per-row reference stayed L1-resident) to ~1.7x on the reference
    # container; the floor stays conservative because a runner whose
    # last-level cache holds the whole working set sees both paths
    # converge.  The numba leg fuses the tail into JIT nests instead.
    assert report["speedup_day_tail_vs_perrow"] > 0.5


def test_bench_kernel_lane_repair(benchmark):
    report = run_report_once(benchmark, bench_lane_repair, KERNEL_INFO_KEYS)
    assert report["parity_bit_identical"] == 1.0
    # The numpy backend's grouped call does the same per-lane work (shared
    # scratch, one dispatch); the floor guards against the grouped path
    # growing overhead.  The numba backend runs it as one JIT loop nest.
    assert report["speedup_lane_repair_vs_perlane"] > 0.7


def test_bench_kernel_feedback_flush(benchmark):
    report = run_report_once(benchmark, bench_feedback_flush, KERNEL_INFO_KEYS)
    assert report["parity_bit_identical"] == 1.0
    assert report["speedup_feedback_flush_vs_perlane"] > 1.0


def test_bench_kernel_adaptive_rank(benchmark):
    """Adaptive rank_day: bit parity everywhere; >=1.5x on the numba leg.

    The ISSUE's acceptance bar (>= 1.5x rank_day throughput on near-sorted
    fluid days at R=32/n=10k) is met by the fused numba adaptive kernel
    and asserted on the numba CI leg; the pure-numpy path runs the same
    merge as batched array passes, which is memory-bound near break-even
    on the 1-core container — its assert (and the gate floor) guards that
    the hint never meaningfully regresses the numpy rank.
    """
    report = run_report_once(benchmark, bench_adaptive_rank, KERNEL_INFO_KEYS)
    assert report["parity_bit_identical"] == 1.0
    if report["kernel_backend"] == "numba":
        assert report["adaptive_vs_full_rank_ratio"] >= MIN_ADAPTIVE_RANK_SPEEDUP
    else:
        assert report["adaptive_vs_full_rank_ratio"] > 0.5


def test_bench_kernel_fluid_windowed_rank(benchmark):
    """Windowed route: bit parity + the ISSUE's per-leg speedup bars.

    The R=32/n=10k dense fluid day must take the windowed route on every
    row (the bench is a specification of the regime, not just a timing),
    stay bit-identical to the full sort, and beat it by >= 1.15x through
    the numpy strided block-sort and >= 1.4x through the numba fused
    bounded-insertion pass.  bench-floor.json gates the ratio in CI.
    """
    report = run_report_once(
        benchmark, bench_fluid_windowed_rank, KERNEL_INFO_KEYS
    )
    assert report["parity_bit_identical"] == 1.0
    assert report["windowed_route_rows"] == float(ADAPTIVE_BENCH_SHAPE[0])
    if report["kernel_backend"] == "numba":
        assert (
            report["fluid_windowed_rank_ratio"]
            >= MIN_WINDOWED_RANK_SPEEDUP_NUMBA
        )
    else:
        assert (
            report["fluid_windowed_rank_ratio"]
            >= MIN_WINDOWED_RANK_SPEEDUP_NUMPY
        )


def test_bench_kernel_blocked_tail(benchmark):
    """Row-blocked day tail must beat the unblocked chain, bit-identically."""
    report = run_report_once(benchmark, bench_blocked_tail, KERNEL_INFO_KEYS)
    assert report["parity_bit_identical"] == 1.0
    # ~1.7-1.8x on the 1-core reference container; on a runner whose L3
    # holds the whole (R, n) working set the two paths converge, so the
    # hard assert only pins "blocking never loses" and the gate floor
    # (bench-floor.json) watches the ratio itself.
    assert report["blocked_vs_unblocked_tail_ratio"] > 0.85


@pytest.mark.skipif(
    "numba" not in available_backends(),
    reason="numba not installed (optional backend)",
)
def test_bench_kernel_numba_day_throughput(benchmark):
    """Acceptance bar: fused numba day >= 1.5x numpy day, bit-identical."""
    report = run_report_once(
        benchmark, bench_numba_day_throughput, KERNEL_INFO_KEYS
    )
    assert report["parity_bit_identical"] == 1.0
    assert report["speedup_numba_vs_numpy_day"] >= MIN_NUMBA_DAY_SPEEDUP
