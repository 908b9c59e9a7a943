"""stateless-batch-hooks: batch hooks keep no per-call state on ``self``.

``BatchSimulator`` steps its replicate blocks on threads, and every block
calls the one shared ranker, promotion rule and lifecycle at once: their
``rank_batch``, ``select_batch`` and ``step_batch`` methods run
concurrently on the same object.  A store into ``self`` inside one of
them is per-call state that another block's call can overwrite mid-day,
so results would stop being identical for every block count.  This rule
flags such stores: attribute, subscript, augmented and annotated
assignments rooted at ``self`` (also as ``for``/``with`` targets and
``del`` statements), and ``setattr``/``object.__setattr__`` on ``self``.
Keep the state in locals, or on the arrays the caller passes in.
"""

from __future__ import annotations

import ast
from typing import List

from repro.contracts.core import FileContext, FileRule, Finding, call_name, register

#: The batch entry points that replicate-block threads call concurrently.
_BATCH_HOOKS = ("rank_batch", "select_batch", "step_batch")

_SETATTR_CALLS = ("setattr", "object.__setattr__")


def _rooted_at_self(node: ast.AST) -> bool:
    """True for ``self.a``, ``self[i]``, ``self.a.b[i]`` and the like."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


@register
class StatelessBatchHooks(FileRule):
    rule_id = "stateless-batch-hooks"
    description = (
        "forbid stores rooted at self inside rank_batch/select_batch/"
        "step_batch (replicate-block threads share these objects)"
    )
    origin = "BatchSimulator steps replicate blocks on threads over shared hooks"
    include = ("src/repro/",)

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for scope in ast.walk(ctx.tree):
            if (
                isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
                and scope.name in _BATCH_HOOKS
            ):
                findings.extend(self._check_hook(ctx, scope))
        return findings

    def _check_hook(self, ctx: FileContext, hook: ast.AST) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(hook):
            if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                stored = _rooted_at_self(node)
            elif isinstance(node, ast.Call) and call_name(node) in _SETATTR_CALLS:
                stored = bool(node.args) and _rooted_at_self(node.args[0])
            else:
                continue
            if stored:
                findings.append(
                    ctx.finding(
                        self.rule_id,
                        node,
                        "store into self inside %s: replicate-block threads "
                        "call this method on one shared object at once; keep "
                        "per-call state in locals" % hook.name,
                    )
                )
        return findings
