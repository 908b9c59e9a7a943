"""occ-write-discipline: popularity state mutates only through the OCC door.

The serving pool's shared-memory popularity arrays follow Laux & Laiho's
SQL access pattern: a writer presents the version it read, the
version-check-and-apply runs atomically under the per-shard lock inside
``commit_visits_at``, and a conflicting commit is rejected without
touching state.  Any *other* store into the version word, the commit
counters, the awareness/quality arrays or the dirty mask is a write that
bypassed the conflict check — exactly the class of bug that silently
loses visits under concurrency.

This is a lockset-style static check over the modules that own the
state: a store into a protected field is legal only

* inside one of the contract methods (``commit_visits_at``,
  ``bump_version``, the constructors, the checkpoint capture/restore
  path, the dirty-set consumer), or
* lexically within a ``with self._lock:`` (or ``with <x>._lock:``)
  block.

Everything else — a helper that "just fixes up" ``aware_count``, a test
hook poking ``_header`` — is a violation.
"""

from __future__ import annotations

import ast
from typing import List

from repro.contracts.core import FileContext, FileRule, Finding, register

#: Attribute names whose stores are guarded.  ``version`` covers the
#: base class's plain counter, ``_header`` the shared block's words.
PROTECTED_FIELDS = {
    "_header",
    "_dirty_mask",
    "_popularity",
    "aware_count",
    "quality",
    "version",
}

#: Methods that ARE the write contract: the OCC commit itself, the
#: constructors that lay out a block nothing else can see yet, the
#: single-consumer dirty drain, and checkpoint capture/restore (which
#: rebuild a private state before it is published).  ``version`` is the
#: SharedPopularityState property setter whose body IS the shared word.
ALLOWED_METHODS = {
    "__init__",
    "create",
    "attach",
    "close",
    "version",
    "commit_visits_at",
    "bump_version",
    "apply_visits_at",
    "apply_visit_feedback",
    "set_awareness",
    "note_replaced",
    "consume_dirty",
    "_mark_changed",
    "restore_state",
    "capture",
}


def _is_lock_with(stmt: ast.With) -> bool:
    for item in stmt.items:
        try:
            expr = ast.unparse(item.context_expr)
        except Exception:  # pragma: no cover - unparse is total here
            continue
        if expr.endswith("._lock") or expr.endswith("._lock()"):
            return True
    return False


def _store_field(target: ast.AST) -> str:
    """Protected-field name a store target hits, or ``''``.

    Handles plain attribute stores (``state.version = ...``), subscript
    stores through an attribute (``pool.aware_count[idx] = ...``), and
    the same shapes under ``+=``.
    """
    node = target
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in PROTECTED_FIELDS:
        return node.attr
    return ""


@register
class OccWriteDiscipline(FileRule):
    rule_id = "occ-write-discipline"
    description = (
        "stores to PopularityState/SharedPopularityState array fields and "
        "header words only inside the OCC contract methods or under the "
        "shard lock"
    )
    origin = "PR 7-8: Laux & Laiho version-check commit; shared-memory pool"
    include = (
        "src/repro/serving/state.py",
        "src/repro/serving/pool.py",
        "src/repro/robustness/occ.py",
        "src/repro/robustness/journal.py",
        "src/repro/robustness/supervisor.py",
    )

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        self._walk(ctx, ctx.tree, in_allowed=False, in_lock=False, findings=findings)
        return findings

    def _walk(
        self,
        ctx: FileContext,
        node: ast.AST,
        in_allowed: bool,
        in_lock: bool,
        findings: List[Finding],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            child_allowed = in_allowed
            child_lock = in_lock
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested def starts a fresh context: the lock held by
                # the enclosing function is not held when the closure runs.
                child_allowed = child.name in ALLOWED_METHODS
                child_lock = False
            elif isinstance(child, ast.With) and _is_lock_with(child):
                child_lock = True
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    field = _store_field(target)
                    if field and not (child_allowed or child_lock):
                        findings.append(
                            ctx.finding(
                                self.rule_id,
                                child,
                                "store to protected field %r outside the OCC "
                                "contract methods and outside any 'with "
                                "...._lock' block; route the mutation through "
                                "commit_visits_at (or hold the shard lock)"
                                % field,
                            )
                        )
            self._walk(ctx, child, child_allowed, child_lock, findings)
