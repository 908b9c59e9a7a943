"""The contract linter's core: findings, rules, suppressions, file checks.

The repository's load-bearing invariants — every RNG draw comes from a
caller-threaded seeded generator, the batch hooks that replicate-block
threads share keep no per-call state, shared popularity arrays mutate
only through the OCC commit contract, the telemetry schema is
append-only — have historically lived in docstrings and runtime tests.
This package turns each of them into an AST-based static check that runs
*before* the test suite, the way production stacks wire sanitizers and
custom lints into CI.

Two rule shapes exist:

:class:`FileRule`
    Checked once per parsed source file against its AST
    (:class:`FileContext`).  Scoped by repository-relative path prefixes
    so e.g. the wall-clock ban applies to the deterministic core but not
    to the benchmark drivers that legitimately time themselves.
:class:`ProjectRule`
    Checked once per run against the whole tree
    (:class:`ProjectContext`) — schema lockfiles and cross-file key
    consistency live here.

A violation is silenced inline with::

    offending_call()  # contracts: ignore[rule-id] -- why this is safe

The rationale after ``--`` is mandatory: a suppression without one is
itself reported (rule id ``bad-suppression``), so every exemption in the
tree carries its justification next to the code it exempts.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Bump when rule semantics change: invalidates every cached file result.
CONTRACTS_VERSION = "2"

_SUPPRESSION_RE = re.compile(
    r"#\s*contracts:\s*ignore\[(?P<rules>[a-z0-9*,\s-]+)\]"
    r"(?:\s*--\s*(?P<reason>.*\S))?"
)


@dataclass(frozen=True)
class Finding:
    """One contract violation (or suppressed would-be violation)."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    reason: str = ""

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "Finding":
        return cls(**payload)

    def render(self) -> str:
        tag = " [suppressed: %s]" % self.reason if self.suppressed else ""
        return "%s:%d:%d: %s %s%s" % (
            self.path, self.line, self.col, self.rule, self.message, tag
        )


@dataclass
class Suppression:
    """One parsed ``# contracts: ignore[...]`` comment."""

    line: int
    rules: Tuple[str, ...]
    reason: str
    own_line: bool  # comment-only line: covers the next code line too

    def covers(self, rule_id: str) -> bool:
        return "*" in self.rules or rule_id in self.rules


@dataclass
class FileContext:
    """Everything a :class:`FileRule` sees about one source file.

    ``rel`` is the repository-relative posix path used for rule scoping;
    the fixture suite overrides it to exercise path-scoped rules on
    files that live elsewhere.
    """

    path: Path
    rel: str
    source: str
    tree: ast.AST
    repo_root: Path

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule_id,
            path=self.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


@dataclass
class ProjectContext:
    """What a :class:`ProjectRule` sees: the root and the scanned files."""

    repo_root: Path
    files: List[Path] = field(default_factory=list)

    def rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.repo_root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()


class FileRule:
    """Base class: one per-file AST check with path-prefix scoping."""

    rule_id: str = ""
    description: str = ""
    #: Where the invariant came from (PR / paper discipline) — rendered
    #: by ``--list-rules`` and the README rule table.
    origin: str = ""
    #: Repo-relative posix prefixes the rule applies to.
    include: Tuple[str, ...] = ("src/repro/",)
    #: Prefixes exempted even when included (the rule's allowlist).
    exclude: Tuple[str, ...] = ()

    def applies_to(self, rel: str) -> bool:
        if not any(rel.startswith(prefix) for prefix in self.include):
            return False
        return not any(rel.startswith(prefix) for prefix in self.exclude)

    def check(self, ctx: FileContext) -> List[Finding]:  # pragma: no cover
        raise NotImplementedError


class ProjectRule:
    """Base class: one whole-tree check (lockfiles, cross-file keys)."""

    rule_id: str = ""
    description: str = ""
    origin: str = ""

    def check_project(self, ctx: ProjectContext) -> List[Finding]:  # pragma: no cover
        raise NotImplementedError


#: Registry: rule id -> instance.  Populated by the ``register``
#: decorator as ``repro.contracts.rules`` imports its rule modules.
FILE_RULES: Dict[str, FileRule] = {}
PROJECT_RULES: Dict[str, ProjectRule] = {}


def register(cls):
    """Class decorator adding one rule instance to the registry."""
    instance = cls()
    if not instance.rule_id:
        raise ValueError("rule %r has no rule_id" % cls.__name__)
    target = FILE_RULES if isinstance(instance, FileRule) else PROJECT_RULES
    if instance.rule_id in FILE_RULES or instance.rule_id in PROJECT_RULES:
        raise ValueError("duplicate rule id %r" % instance.rule_id)
    target[instance.rule_id] = instance
    return cls


def all_rules() -> List:
    """Every registered rule, file rules first, sorted by id."""
    return [FILE_RULES[k] for k in sorted(FILE_RULES)] + [
        PROJECT_RULES[k] for k in sorted(PROJECT_RULES)
    ]


def parse_suppressions(source: str) -> List[Suppression]:
    """Extract every ``contracts: ignore`` comment with its location."""
    suppressions = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION_RE.search(line)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        reason = (match.group("reason") or "").strip()
        own_line = line.lstrip().startswith("#")
        suppressions.append(
            Suppression(line=lineno, rules=rules, reason=reason, own_line=own_line)
        )
    return suppressions


def apply_suppressions(
    findings: Sequence[Finding], suppressions: Sequence[Suppression], rel: str
) -> List[Finding]:
    """Mark suppressed findings; flag suppressions lacking a rationale.

    A suppression on a code line covers that line; a comment-only
    suppression line covers the immediately following line (so multi-line
    statements can carry the comment above them).  Suppressions without a
    ``-- reason`` trailer never silence anything and are reported as
    ``bad-suppression`` findings of their own.
    """
    out: List[Finding] = []
    by_line: Dict[int, List[Suppression]] = {}
    for sup in suppressions:
        if not sup.reason:
            out.append(
                Finding(
                    rule="bad-suppression",
                    path=rel,
                    line=sup.line,
                    col=1,
                    message=(
                        "suppression of %s has no rationale; write "
                        "'# contracts: ignore[%s] -- <why this is safe>'"
                        % (", ".join(sup.rules), ", ".join(sup.rules))
                    ),
                )
            )
            continue
        by_line.setdefault(sup.line, []).append(sup)
        if sup.own_line:
            by_line.setdefault(sup.line + 1, []).append(sup)
    for finding in findings:
        for sup in by_line.get(finding.line, ()):
            if sup.covers(finding.rule):
                finding = replace(finding, suppressed=True, reason=sup.reason)
                break
        out.append(finding)
    return out


def check_file(
    path: Path,
    repo_root: Path,
    rel: Optional[str] = None,
    rule_ids: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run every applicable file rule over one source file.

    Returns the full finding list including suppressed entries;
    callers filter on ``suppressed`` for the exit status.  A file that
    fails to parse yields a single ``syntax-error`` finding rather than
    crashing the run.
    """
    if rel is None:
        try:
            rel = path.resolve().relative_to(repo_root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return [
            Finding(
                rule="syntax-error",
                path=rel,
                line=error.lineno or 1,
                col=(error.offset or 0) + 1,
                message="file does not parse: %s" % error.msg,
            )
        ]
    ctx = FileContext(
        path=path, rel=rel, source=source, tree=tree, repo_root=repo_root
    )
    wanted = set(rule_ids) if rule_ids is not None else None
    findings: List[Finding] = []
    for rule in FILE_RULES.values():
        if wanted is not None and rule.rule_id not in wanted:
            continue
        if not rule.applies_to(rel):
            continue
        findings.extend(rule.check(ctx))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return apply_suppressions(findings, parse_suppressions(source), rel)


def check_project(
    repo_root: Path,
    files: Sequence[Path],
    rule_ids: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run every project-level rule once over the scanned tree."""
    ctx = ProjectContext(repo_root=repo_root, files=list(files))
    wanted = set(rule_ids) if rule_ids is not None else None
    findings: List[Finding] = []
    for rule in PROJECT_RULES.values():
        if wanted is not None and rule.rule_id not in wanted:
            continue
        findings.extend(rule.check_project(ctx))
    return findings


def call_name(node: ast.Call) -> str:
    """Dotted name of a call target (``''`` for non-name targets)."""
    try:
        return ast.unparse(node.func)
    except Exception:  # pragma: no cover - unparse is total on parse output
        return ""


__all__ = [
    "CONTRACTS_VERSION",
    "FileContext",
    "FileRule",
    "Finding",
    "ProjectContext",
    "ProjectRule",
    "FILE_RULES",
    "PROJECT_RULES",
    "all_rules",
    "apply_suppressions",
    "call_name",
    "check_file",
    "check_project",
    "parse_suppressions",
    "register",
]
