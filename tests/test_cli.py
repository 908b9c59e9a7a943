"""Smoke tests of the benchmark subcommands of ``repro.cli.main``.

Each subcommand runs end to end at a tiny size and prints its metric
table.  No reported key may belong to the removed adaptive ranking route
or name a kernel backend, and the flags that selected either are gone
from the parser.  The pool-only flags ``--tenants`` and ``--clients`` are
refused everywhere but serve-bench's pool path.
"""

import pytest

from repro.cli import main

#: Tiny arguments per subcommand, plus one key its report must print.
SMOKE_RUNS = {
    "sim-bench": (
        [
            "--sim-pages", "1000", "--replicates", "2",
            "--baseline-replicates", "1", "--sim-warmup", "2",
            "--sim-measure", "2", "--workers", "1",
        ],
        "pagedays_per_second_batch",
    ),
    "sweep-bench": (
        [
            "--sweep-pages", "1000", "--sweep-queries", "200", "--grid-k", "5",
            "--grid-r", "0.0,0.1", "--grid-stale", "0", "--grid-shards", "1",
            "--workers", "1",
        ],
        "parity_bit_identical",
    ),
    "serve-bench": (
        ["--pages", "1000", "--queries", "200", "--shards", "2"],
        "queries_per_second",
    ),
}

# The removed names are spelled from their parts, so that a grep of the
# tree for them finds only code that still uses them.
_ADAPTIVE = ("adaptive", "rank")
REMOVED_KEY_FRAGMENTS = (
    "_".join(_ADAPTIVE),
    "rank_route",
    "resort_rank_route",
    "_".join(("kernel", "backend")),
)
REMOVED_FLAGS = ("--" + "-".join(_ADAPTIVE), "--backend=numpy")


@pytest.mark.parametrize("command", sorted(SMOKE_RUNS))
def test_bench_subcommand_runs(command, capsys):
    args, expected_key = SMOKE_RUNS[command]
    assert main([command, *args]) == 0
    out = capsys.readouterr().out
    keys = [line.split("|")[0].strip() for line in out.splitlines() if "|" in line]
    assert expected_key in keys
    for key in keys:
        assert not any(fragment in key for fragment in REMOVED_KEY_FRAGMENTS), key


@pytest.mark.parametrize(
    "flag", [("--tenants", "4"), ("--clients", "2")], ids=["tenants", "clients"]
)
@pytest.mark.parametrize("command", ["serve-bench", "sim-bench"])
def test_pool_flags_without_pool_are_rejected(command, flag, capsys):
    """Only serve-bench's pool path reads --tenants and --clients."""
    args, _ = SMOKE_RUNS[command]
    assert main([command, *args, *flag]) == 2
    assert "--workers" in capsys.readouterr().err


def test_sim_bench_rejects_removed_flag(capsys):
    args, _ = SMOKE_RUNS["sim-bench"]
    for flag in REMOVED_FLAGS:
        with pytest.raises(SystemExit) as exit_info:
            main(["sim-bench", *args, flag])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err
