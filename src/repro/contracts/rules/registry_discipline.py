"""kernel-registry-discipline: the backend resolves through the registry.

Telemetry's span proxy wraps the kernel backend at dispatch time, in
``repro.core.kernels.get_backend``.  A module that imports
``numpy_backend`` symbols directly bypasses that instrumentation hook, so
its kernel calls vanish from the span table.  Shared helpers the engines
legitimately need (``merge_repair``, ``ROUTE_STATS``) are re-exported by
``repro.core.kernels`` itself; import them from there.

Tests and benchmarks are exempt by scope: parity suites and the
benchmark tracer reach the raw backend module on purpose.
"""

from __future__ import annotations

import ast
from typing import List

from repro.contracts.core import FileContext, FileRule, Finding, register

_BACKEND_MODULES = ("numpy_backend",)


@register
class KernelRegistryDiscipline(FileRule):
    rule_id = "kernel-registry-discipline"
    description = (
        "obtain the backend via get_backend; never import numpy_backend "
        "symbols outside core/kernels"
    )
    origin = "PR 4: kernel dispatch registry with fallback + instrumentation"
    include = ("src/repro/",)
    exclude = ("src/repro/core/kernels/",)

    def check(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[-1] in _BACKEND_MODULES:
                    findings.append(self._finding(ctx, node, module))
                elif module.endswith("core.kernels") or module == "kernels":
                    for alias in node.names:
                        if alias.name in _BACKEND_MODULES:
                            findings.append(self._finding(ctx, node, alias.name))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[-1] in _BACKEND_MODULES:
                        findings.append(self._finding(ctx, node, alias.name))
        return findings

    def _finding(self, ctx: FileContext, node: ast.AST, module: str) -> Finding:
        return ctx.finding(
            self.rule_id,
            node,
            "direct import of %s bypasses the registry's instrumentation "
            "hook; use repro.core.kernels.get_backend (shared helpers are "
            "re-exported by repro.core.kernels)" % module,
        )
