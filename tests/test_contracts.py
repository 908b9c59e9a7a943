"""Tests for the AST contract linter (repro.contracts).

Three layers:

* fixture-driven rule tests — every file rule has a firing, a clean and
  a suppressed fixture under ``tests/fixtures/contracts/<rule-id>/``;
  the rule must flag the first, stay quiet on the second, and mark the
  third suppressed (never active);
* project-rule tests over synthetic temp trees (telemetry schema
  lockfile, bench floor keys);
* end-to-end checks — the repository itself lints clean, the CLI's
  injected-violation self-test still catches corrupted state code, the
  cache round-trips, and the CLI surfaces findings with exit code 1.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.contracts import FILE_RULES, PROJECT_RULES, check_file, lint_paths
from repro.contracts.cache import ResultCache, content_key
from repro.contracts.cli import main as cli_main
from repro.contracts.cli import run_self_test
from repro.contracts.core import (
    Finding,
    apply_suppressions,
    check_project,
    parse_suppressions,
)
from repro.contracts.rules.telemetry_lock import (
    LOCKFILE_REL,
    RECORDER_REL,
    read_base_fields,
    read_lockfile,
    write_lockfile,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "contracts"

#: rule id -> repo-relative path the fixture pretends to live at (so the
#: rule's path scoping applies to it).
FIXTURE_REL = {
    "no-unseeded-rng": "src/repro/example.py",
    "no-wall-clock-in-kernels": "src/repro/core/example.py",
    "occ-write-discipline": "src/repro/serving/state.py",
    "stateless-batch-hooks": "src/repro/core/example.py",
    "frozen-config-mutation": "src/repro/serving/example.py",
    "kernel-registry-discipline": "src/repro/serving/example.py",
}

#: Minimum active findings each firing fixture must produce (each fixture
#: exercises several distinct trigger shapes).
FIRING_MINIMUM = {
    "no-unseeded-rng": 4,
    "no-wall-clock-in-kernels": 5,
    "occ-write-discipline": 5,
    "stateless-batch-hooks": 8,
    "frozen-config-mutation": 5,
    "kernel-registry-discipline": 3,
}


def run_fixture(rule_id, name):
    path = FIXTURES / rule_id / name
    return check_file(
        path, REPO_ROOT, rel=FIXTURE_REL[rule_id], rule_ids=[rule_id]
    )


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_REL))
    def test_firing_fixture_fires(self, rule_id):
        findings = run_fixture(rule_id, "firing.py")
        active = [f for f in findings if not f.suppressed and f.rule == rule_id]
        assert len(active) >= FIRING_MINIMUM[rule_id], [f.render() for f in findings]

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_REL))
    def test_clean_fixture_is_quiet(self, rule_id):
        findings = run_fixture(rule_id, "clean.py")
        assert findings == [], [f.render() for f in findings]

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_REL))
    def test_suppressed_fixture_is_silenced_with_reason(self, rule_id):
        findings = run_fixture(rule_id, "suppressed.py")
        active = [f for f in findings if not f.suppressed]
        suppressed = [f for f in findings if f.suppressed]
        assert active == [], [f.render() for f in active]
        assert suppressed, "suppressed fixture must still produce the finding"
        assert all(f.reason for f in suppressed)

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_REL))
    def test_rule_out_of_scope_path_is_ignored(self, rule_id):
        path = FIXTURES / rule_id / "firing.py"
        findings = check_file(
            path, REPO_ROOT, rel="benchmarks/example.py", rule_ids=[rule_id]
        )
        assert findings == []

    def test_every_shipped_rule_has_fixtures(self):
        assert set(FIXTURE_REL) == set(FILE_RULES)
        for rule_id in FIXTURE_REL:
            for name in ("firing.py", "clean.py", "suppressed.py"):
                assert (FIXTURES / rule_id / name).is_file()

    def test_registry_is_complete(self):
        assert set(PROJECT_RULES) == {
            "telemetry-schema-append-only",
            "bench-extra-info-keys",
        }


class TestSuppressions:
    def test_reasonless_suppression_is_itself_a_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n"
            "rng = np.random.default_rng()  # contracts: ignore[no-unseeded-rng]\n"
        )
        findings = check_file(bad, tmp_path, rel="src/repro/bad.py")
        rules = {f.rule for f in findings if not f.suppressed}
        assert "bad-suppression" in rules
        # The reasonless comment silences nothing: the violation stays active.
        assert "no-unseeded-rng" in rules

    def test_wildcard_and_multi_rule_lists(self):
        sups = parse_suppressions(
            "x = 1  # contracts: ignore[*] -- everything\n"
            "y = 2  # contracts: ignore[a-rule, b-rule] -- both\n"
        )
        assert sups[0].covers("anything-at-all")
        assert sups[1].covers("a-rule") and sups[1].covers("b-rule")
        assert not sups[1].covers("c-rule")

    def test_own_line_comment_covers_next_line_only(self):
        source = (
            "# contracts: ignore[some-rule] -- covered below\n"
            "a = 1\n"
            "b = 2\n"
        )
        findings = [
            Finding(rule="some-rule", path="p", line=2, col=1, message="m"),
            Finding(rule="some-rule", path="p", line=3, col=1, message="m"),
        ]
        out = apply_suppressions(findings, parse_suppressions(source), "p")
        assert [f.suppressed for f in out] == [True, False]


def make_recorder(tmp_path, fields):
    recorder = tmp_path / RECORDER_REL
    recorder.parent.mkdir(parents=True, exist_ok=True)
    recorder.write_text("BASE_FIELDS = (%s)\n" % "".join("%r, " % f for f in fields))
    return recorder


class TestTelemetryLock:
    FIELDS = ("queries", "cache_hits", "flushes")

    def run_rule(self, root):
        return [
            f
            for f in check_project(root, [], rule_ids=["telemetry-schema-append-only"])
            if f.rule == "telemetry-schema-append-only"
        ]

    def lock(self, root, fields):
        lock = root / LOCKFILE_REL
        lock.parent.mkdir(parents=True, exist_ok=True)
        write_lockfile(lock, tuple(fields))

    def test_matching_lock_is_quiet(self, tmp_path):
        make_recorder(tmp_path, self.FIELDS)
        self.lock(tmp_path, self.FIELDS)
        assert self.run_rule(tmp_path) == []

    def test_missing_lockfile_is_flagged(self, tmp_path):
        make_recorder(tmp_path, self.FIELDS)
        findings = self.run_rule(tmp_path)
        assert len(findings) == 1 and "missing" in findings[0].message

    def test_reorder_and_rename_are_flagged_positionally(self, tmp_path):
        make_recorder(tmp_path, ("cache_hits", "queries", "flushes"))
        self.lock(tmp_path, self.FIELDS)
        messages = [f.message for f in self.run_rule(tmp_path)]
        assert len(messages) == 2  # positions 0 and 1 both moved
        assert all("append-only" in m for m in messages)

    def test_removal_is_flagged(self, tmp_path):
        make_recorder(tmp_path, self.FIELDS[:2])
        self.lock(tmp_path, self.FIELDS)
        findings = self.run_rule(tmp_path)
        assert len(findings) == 1 and "dropped" in findings[0].message

    def test_append_without_lock_refresh_is_flagged(self, tmp_path):
        make_recorder(tmp_path, self.FIELDS + ("repairs",))
        self.lock(tmp_path, self.FIELDS)
        findings = self.run_rule(tmp_path)
        assert len(findings) == 1 and "refreshed" in findings[0].message

    def test_append_plus_refresh_is_quiet(self, tmp_path):
        make_recorder(tmp_path, self.FIELDS + ("repairs",))
        self.lock(tmp_path, self.FIELDS + ("repairs",))
        assert self.run_rule(tmp_path) == []

    def test_repo_lockfile_matches_live_base_fields(self):
        live = read_base_fields(REPO_ROOT / RECORDER_REL)
        locked = read_lockfile(REPO_ROOT / LOCKFILE_REL)
        assert live == locked


class TestBenchKeys:
    def make_tree(self, tmp_path, floors, literals):
        floor = tmp_path / "benchmarks" / "baselines" / "bench-floor.json"
        floor.parent.mkdir(parents=True)
        floor.write_text(json.dumps({"benchmarks": {"bench": floors}}))
        src = tmp_path / "src" / "driver.py"
        src.parent.mkdir(parents=True)
        src.write_text(
            "KEYS = [%s]\n" % ", ".join(repr(lit) for lit in literals)
        )

    def run_rule(self, root):
        return check_project(root, [], rule_ids=["bench-extra-info-keys"])

    def test_known_keys_are_quiet(self, tmp_path):
        self.make_tree(tmp_path, {"speedup": 1.0}, ["speedup"])
        assert self.run_rule(tmp_path) == []

    def test_orphaned_key_is_flagged(self, tmp_path):
        self.make_tree(tmp_path, {"speedup": 1.0, "bogus_metric": 2.0}, ["speedup"])
        findings = self.run_rule(tmp_path)
        assert len(findings) == 1 and "bogus_metric" in findings[0].message

    def test_prefix_literal_covers_runtime_families(self, tmp_path):
        self.make_tree(tmp_path, {"qps_shard_3": 1.0}, ["qps_shard_"])
        assert self.run_rule(tmp_path) == []

    def test_repo_floor_keys_all_resolve(self):
        findings = check_project(REPO_ROOT, [], rule_ids=["bench-extra-info-keys"])
        assert findings == [], [f.render() for f in findings]


class TestEndToEnd:
    def test_repository_lints_clean(self):
        report = lint_paths([REPO_ROOT / "src"], REPO_ROOT, use_cache=False)
        assert report.active == [], [f.render() for f in report.active]
        # The one sanctioned suppression (journal replay rng) is present
        # and carries its rationale.
        assert any(
            f.rule == "no-unseeded-rng" and f.reason for f in report.suppressed
        )

    def test_self_test_catches_injected_violations(self):
        assert run_self_test(REPO_ROOT) == 0

    def test_injected_unlocked_store_is_rejected(self, tmp_path):
        source = (REPO_ROOT / "src/repro/serving/state.py").read_text()
        corrupted = tmp_path / "state.py"
        corrupted.write_text(
            source + "\n\ndef sneak(state):\n    state._header[0] = 99\n"
        )
        findings = check_file(
            corrupted, REPO_ROOT, rel="src/repro/serving/state.py"
        )
        assert any(
            f.rule == "occ-write-discipline" and not f.suppressed
            for f in findings
        )

    def test_syntax_error_reports_instead_of_crashing(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        findings = check_file(broken, tmp_path, rel="src/repro/broken.py")
        assert [f.rule for f in findings] == ["syntax-error"]


class TestCache:
    def test_second_run_is_served_from_cache(self, tmp_path):
        tree = tmp_path / "src"
        tree.mkdir()
        (tree / "mod.py").write_text("VALUE = 1\n")
        first = lint_paths([tree], tmp_path)
        second = lint_paths([tree], tmp_path)
        assert first.cached_files == 0
        assert second.cached_files == 1
        assert (tmp_path / ".contracts-cache.json").is_file()

    def test_content_change_invalidates(self, tmp_path):
        tree = tmp_path / "src"
        tree.mkdir()
        (tree / "mod.py").write_text("VALUE = 1\n")
        lint_paths([tree], tmp_path)
        (tree / "mod.py").write_text("VALUE = 2\n")
        report = lint_paths([tree], tmp_path)
        assert report.cached_files == 0

    def test_findings_round_trip_through_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        finding = Finding(
            rule="r", path="p", line=3, col=7, message="m",
            suppressed=True, reason="because",
        )
        key = content_key(b"data", ("*",))
        cache.put(key, [finding])
        cache.save()
        reloaded = ResultCache(tmp_path)
        assert reloaded.get(key) == [finding]

    def test_corrupt_cache_is_discarded(self, tmp_path):
        (tmp_path / ".contracts-cache.json").write_text("{not json")
        cache = ResultCache(tmp_path)
        assert cache.get(content_key(b"x", ("*",))) is None


class TestCli:
    def run_cli(self, *argv):
        return cli_main(list(argv))

    def test_list_rules_exits_zero(self, capsys):
        assert self.run_cli("--list-rules") == 0
        out = capsys.readouterr().out
        for rule_id in FILE_RULES:
            assert rule_id in out

    def test_unknown_rule_id_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            self.run_cli("--rules", "no-such-rule", "src")
        assert excinfo.value.code == 2

    def test_findings_exit_one_and_render_json(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        out_file = tmp_path / "report.json"
        code = self.run_cli(
            "--root", str(tmp_path), "--format", "json",
            "--output", str(out_file), "--no-cache", str(tmp_path / "src"),
        )
        assert code == 1
        payload = json.loads(out_file.read_text())
        assert payload["checked_files"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["no-unseeded-rng"]

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "src" / "repro" / "good.py"
        good.parent.mkdir(parents=True)
        good.write_text("VALUE = 1\n")
        code = self.run_cli("--root", str(tmp_path), "--no-cache", str(tmp_path / "src"))
        assert code == 0

    def test_write_locks_round_trips(self, tmp_path, capsys):
        make_recorder(tmp_path, ("a", "b"))
        assert self.run_cli("--root", str(tmp_path), "--write-locks") == 0
        assert read_lockfile(tmp_path / LOCKFILE_REL) == ("a", "b")

    def test_module_entry_point_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.contracts", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        assert "no-unseeded-rng" in result.stdout
