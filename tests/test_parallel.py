"""Tests for worker-count resolution, the block pool and their wiring into run_batch."""

import multiprocessing
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest

import repro
from repro.core.policy import RECOMMENDED_POLICY
from repro.simulation import BatchSimulator, SimulationConfig, run_batch
from repro.utils.parallel import (
    MIN_TASKS_PER_WORKER,
    default_workers,
    run_blocks,
)
from repro.utils.rng import spawn_rngs


class TestDefaultWorkers:
    def test_explicit_request_honoured_and_clamped(self):
        assert default_workers(100, requested=4) == 4
        assert default_workers(3, requested=8) == 3  # never more than tasks
        assert default_workers(10, requested=0) == 1
        assert default_workers(10, requested=-2) == 1

    def test_trivial_task_counts(self):
        assert default_workers(0) == 1
        assert default_workers(1) == 1
        assert default_workers(1, requested=16) == 1

    def test_auto_respects_cpu_count(self):
        with mock.patch("repro.utils.parallel.os.cpu_count", return_value=4):
            # Plenty of tasks: one worker per core.
            assert default_workers(64) == 4
            # Too few tasks per prospective worker: stay in-process.
            assert default_workers(MIN_TASKS_PER_WORKER - 1) == 1
            # Exactly one worker's worth engages no pool.
            assert default_workers(MIN_TASKS_PER_WORKER) == 1
            # Two workers' worth engages two.
            assert default_workers(2 * MIN_TASKS_PER_WORKER) == 2

    def test_auto_single_core_stays_in_process(self):
        with mock.patch("repro.utils.parallel.os.cpu_count", return_value=1):
            assert default_workers(1000) == 1

    def test_cpu_count_unknown_falls_back_to_one(self):
        with mock.patch("repro.utils.parallel.os.cpu_count", return_value=None):
            assert default_workers(1000) == 1

    def test_min_tasks_per_worker_validated(self):
        with pytest.raises(ValueError):
            default_workers(10, min_tasks_per_worker=0)


class TestMaxWorkersEnvOverride:
    """REPRO_MAX_WORKERS caps auto-sizing (container CPU quotas lie)."""

    def test_override_caps_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        with mock.patch("repro.utils.parallel.os.cpu_count", return_value=16):
            assert default_workers(1000) == 2

    def test_override_above_cpu_count_is_not_a_raise(self, monkeypatch):
        # The override is a cap, not a target: a generous quota never
        # engages more workers than the host reports.
        monkeypatch.setenv("REPRO_MAX_WORKERS", "64")
        with mock.patch("repro.utils.parallel.os.cpu_count", return_value=4):
            assert default_workers(1000) == 4

    def test_explicit_request_wins_over_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
        assert default_workers(100, requested=4) == 4

    @pytest.mark.parametrize("raw", ["", "  ", "zero", "-3", "0"])
    def test_invalid_or_nonpositive_values_ignored(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_MAX_WORKERS", raw)
        with mock.patch("repro.utils.parallel.os.cpu_count", return_value=4):
            assert default_workers(1000) == 4


class TestRunBatchAutoWorkers:
    def test_auto_workers_results_identical(self, tiny_community):
        """run_batch(n_workers=None) auto-shards without changing results.

        The ROADMAP bugfix: ``None`` used to silently mean single-process;
        it now means "size the pool from os.cpu_count()" — and because each
        replicate keeps its own generator wherever it runs, the results are
        identical whatever the resolved worker count is.
        """
        config = SimulationConfig(warmup_days=2, measure_days=3, seed=11)
        ranker = RECOMMENDED_POLICY.build_ranker()
        auto = run_batch(tiny_community, ranker, config, replicates=4)
        forced = run_batch(
            tiny_community, ranker, config, replicates=4, n_workers=2
        )
        assert [r.qpc_absolute for r in auto] == [
            r.qpc_absolute for r in forced
        ]


class TestRunBlocks:
    def test_results_in_task_order_first_task_on_caller(self):
        caller = threading.get_ident()
        threads = run_blocks([threading.get_ident for _ in range(3)])
        assert threads[0] == caller
        assert caller not in threads[1:]
        assert run_blocks([lambda i=i: i * i for i in range(4)]) == [0, 1, 4, 9]
        assert run_blocks([]) == []

    def test_joins_every_task_before_raising(self):
        finished = threading.Event()

        def slow():
            finished.wait(0.05)
            finished.set()
            return 1

        def fail():
            raise RuntimeError("block failed")

        with pytest.raises(RuntimeError, match="block failed"):
            run_blocks([fail, slow])
        assert finished.is_set()
        with pytest.raises(RuntimeError, match="block failed"):
            run_blocks([slow, fail])


def _two_block_qpc(community):
    config = SimulationConfig(warmup_days=3, measure_days=3, seed=4)
    simulator = BatchSimulator(
        community, RECOMMENDED_POLICY.build_ranker(), config,
        rngs=spawn_rngs(4, 4), n_workers=2,
    )
    return [result.qpc_absolute for result in simulator.run()]


def _child_run(community, queue):
    queue.put(_two_block_qpc(community))


class TestBlockPoolForkSafety:
    def test_forked_child_builds_its_own_pool(self, tiny_community):
        """A fork child inherits the pool object but none of its threads."""
        expected = _two_block_qpc(tiny_community)  # the parent's pool is live
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=_child_run, args=(tiny_community, queue))
        child.start()
        try:
            got = queue.get(timeout=60)
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
        assert got == expected
        assert child.exitcode == 0

    def test_imports_where_fork_is_missing(self):
        """Platforms without fork have no ``os.register_at_fork``."""
        result = subprocess.run(
            [sys.executable, "-c", "import os; del os.register_at_fork; import repro"],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
                "PATH": "/usr/bin:/bin",
            },
        )
        assert result.returncode == 0, result.stderr
