"""ERR — broad exception handlers must not swallow.

``except Exception`` (or bare ``except:``) is legal here only when the
handler visibly *does something* with the failure: re-raises, returns a
value the caller interprets, or records the error into a structured
result (``JobResult``/``warnings.warn`` — the recorder set is
configurable).  A broad handler whose body merely ``pass``es or
``continue``s turns a worker crash, a corrupt record, or a genuine bug
into silence — which is exactly how a sweep quietly stops being
bit-identical.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from .base import LintContext, Rule

_BROAD = ("Exception", "BaseException")


def _is_broad(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:
        return True
    if isinstance(node, ast.Name):
        return node.id in _BROAD
    if isinstance(node, ast.Tuple):
        return any(isinstance(e, ast.Name) and e.id in _BROAD for e in node.elts)
    return False


class ErrRule(Rule):
    FAMILY = "ERR"

    def run(self, ctx: LintContext) -> list[Finding]:
        recorders = set(ctx.config.err_recorders)
        findings: list[Finding] = []
        for src in ctx.parsed():
            for node in ast.walk(src.tree):
                if not isinstance(node, ast.ExceptHandler) or not _is_broad(node):
                    continue
                if self._handles(node.body, recorders):
                    continue
                caught = ("bare except" if node.type is None
                          else f"except {ast.unparse(node.type)}")
                findings.append(Finding(
                    rule=self.FAMILY, code="ERR001", path=src.rel,
                    line=node.lineno, col=node.col_offset,
                    message=f"{caught} swallows the error (no raise, no "
                            "return, no structured record)",
                    hint="narrow the exception type, re-raise, or attach the "
                         "error to a structured result (JobResult)",
                ))
        return findings

    @staticmethod
    def _handles(body: list[ast.stmt], recorders: set[str]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Raise, ast.Return)):
                    return True
                if isinstance(node, ast.Call):
                    func = node.func
                    name = (func.id if isinstance(func, ast.Name)
                            else func.attr if isinstance(func, ast.Attribute)
                            else None)
                    if name in recorders:
                        return True
        return False
