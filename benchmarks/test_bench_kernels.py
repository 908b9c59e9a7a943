"""Per-kernel micro-benchmarks for the numpy kernel layer.

Each benchmark times one kernel against the *unbatched* sequential
reference — the per-row/per-lane single-community code the kernel
replaced — on identical inputs, asserts bit parity between the two
paths, and exports the batched-vs-unbatched throughput ratio in
``extra_info``.  The ratios are in-process comparisons of two code paths
doing identical work, so they are machine-independent and safe to gate:
``benchmarks/baselines/bench-floor.json`` carries their floors and
``check_regression.py`` fails CI when one drops.

Every timed region runs after one untimed call of both paths.
"""

import time

import numpy as np

from repro.community.page import awareness_gain
from repro.core.kernels import get_backend
from repro.core.kernels.numpy_backend import merge_repair
from repro.core.merge import randomized_merge
from repro.core.rankers import _deterministic_order
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
    "replicates",
    "n_pages",
    "speedup_rank_day_vs_perrow",
    "speedup_promotion_merge_vs_perrow",
    "speedup_day_tail_vs_perrow",
    "speedup_lane_repair_vs_perlane",
    "speedup_feedback_flush_vs_perlane",
    "blocked_vs_unblocked_tail_ratio",
    "parity_bit_identical",
)

#: The blocked-tail bench's shape: the day tail's temporaries only leave
#: cache at large R*n, so this bench pins R=32/n=10k instead of scaling
#: with REPRO_BENCH_SCALE.
BLOCKED_TAIL_SHAPE = (32, 10_000)


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
        "replicates": float(R),
        "n_pages": float(n),
        "parity_bit_identical": 1.0 if parity else 0.0,
        "speedup_rank_day_vs_perrow": seq_seconds / batch_seconds,
    }


def bench_promotion_merge():
    backend = get_backend()
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
        "replicates": float(R),
        "n_pages": float(n),
        "parity_bit_identical": 1.0 if parity else 0.0,
        "speedup_promotion_merge_vs_perrow": seq_seconds / batch_seconds,
    }


def bench_day_tail():
    backend = get_backend()
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
        "replicates": float(lanes),
        "n_pages": float(n),
        "parity_bit_identical": 1.0 if parity else 0.0,
        "speedup_lane_repair_vs_perlane": seq_seconds / batch_seconds,
    }


def bench_feedback_flush():
    backend = get_backend()
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
        "replicates": float(lanes),
        "n_pages": float(n),
        "parity_bit_identical": 1.0 if parity else 0.0,
        "speedup_feedback_flush_vs_perlane": seq_seconds / batch_seconds,
    }


def bench_blocked_tail():
    """Row-blocked numpy day tail vs the unblocked chain, with bit parity."""
    from repro.core.kernels.numpy_backend import BACKEND as numpy_backend

    rng = np.random.default_rng(BENCH_SEED)
    R, n = BLOCKED_TAIL_SHAPE
    rate, m = 25.0, 100
    attention = PowerLawAttention()
    quality = rng.random((R, n))
    aware0 = np.floor(rng.random((R, n)) * m)
    rankings = np.argsort(-(aware0 / m * quality), axis=1)
    shares_by_rank = attention.visit_shares(n)
    rngs = spawn_rngs(BENCH_SEED, R)

    def unblocked(aware):
        shares, monitored = numpy_backend.visit_allocate(
            rankings, shares_by_rank, rate, "fluid", rngs
        )
        numpy_backend.awareness_update(aware, m, monitored, "fluid", rngs)
        return shares

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
        "replicates": float(R),
        "n_pages": float(n),
        "parity_bit_identical": 1.0 if parity else 0.0,
        "blocked_vs_unblocked_tail_ratio": unblocked_seconds / blocked_seconds,
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
    # converge.
    assert report["speedup_day_tail_vs_perrow"] > 0.5


def test_bench_kernel_lane_repair(benchmark):
    report = run_report_once(benchmark, bench_lane_repair, KERNEL_INFO_KEYS)
    assert report["parity_bit_identical"] == 1.0
    # The numpy backend's grouped call does the same per-lane work (shared
    # scratch, one dispatch); the floor guards against the grouped path
    # growing overhead.
    assert report["speedup_lane_repair_vs_perlane"] > 0.7


def test_bench_kernel_feedback_flush(benchmark):
    report = run_report_once(benchmark, bench_feedback_flush, KERNEL_INFO_KEYS)
    assert report["parity_bit_identical"] == 1.0
    assert report["speedup_feedback_flush_vs_perlane"] > 1.0


def test_bench_kernel_blocked_tail(benchmark):
    """Row-blocked day tail must beat the unblocked chain, bit-identically."""
    report = run_report_once(benchmark, bench_blocked_tail, KERNEL_INFO_KEYS)
    assert report["parity_bit_identical"] == 1.0
    # ~1.7-1.8x on the 1-core reference container; on a runner whose L3
    # holds the whole (R, n) working set the two paths converge, so the
    # hard assert only pins "blocking never loses" and the gate floor
    # (bench-floor.json) watches the ratio itself.
    assert report["blocked_vs_unblocked_tail_ratio"] > 0.85
