"""EQV — engine observable parity.

The reference interpreter (``Machine.run``) defines the observable
surface of an execution: every attribute it writes on its ``RunResult``
is a promise that ``run_fast`` reproduces bit-for-bit.  The runtime
equivalence suite checks *values*; this rule checks *coverage*: a
counter added to ``Machine.run`` that the mirror engine never writes (or
aggregates) is flagged before any test can probabilistically miss it.

Mechanically: collect attribute writes (plus constructor keywords) on
variables bound to ``RunResult(...)`` inside the source method, then
require each such attribute to be written somewhere in every mirror
file.  Mirrors may write more (engine telemetry); they may not write
less.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..sources import SourceFile
from .base import LintContext, Rule


def result_writes(nodes: list[ast.stmt], result_class: str) -> tuple[set[str], int]:
    """Attributes written on ``result_class`` instances within ``nodes``.

    Returns the attribute set and the line of the first construction
    (0 when no instance is built here).
    """
    tracked: set[str] = set()
    attrs: set[str] = set()
    first_line = 0
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign):
                value = node.value
                if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                        and value.func.id == result_class):
                    first_line = first_line or value.lineno
                    attrs.update(kw.arg for kw in value.keywords if kw.arg)
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            tracked.add(target.id)
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in tracked):
                    attrs.add(target.attr)
    return attrs, first_line


class EqvRule(Rule):
    FAMILY = "EQV"

    def run(self, ctx: LintContext) -> list[Finding]:
        config = ctx.config
        source_suffix, class_name, method_name = config.eqv_source
        source = self._find(ctx, source_suffix)
        if source is None:
            return []
        method = self._method(source, class_name, method_name)
        if method is None:
            return [Finding(
                rule=self.FAMILY, code="EQV000", path=source.rel, line=1, col=0,
                message=f"cannot find {class_name}.{method_name} in {source.rel}",
                hint="update eqv_source in the lint configuration",
            )]
        observables, _ = result_writes(method.body, config.eqv_result_class)
        findings: list[Finding] = []
        for suffix in config.eqv_mirrors:
            mirror = self._find(ctx, suffix)
            if mirror is None:
                continue
            mirrored, line = result_writes(
                mirror.tree.body, config.eqv_result_class,
            )
            for attr in sorted(observables - mirrored):
                findings.append(Finding(
                    rule=self.FAMILY, code="EQV001", path=mirror.rel,
                    line=line or 1, col=0,
                    message=f"{class_name}.{method_name} writes "
                            f"{config.eqv_result_class}.{attr} but this engine "
                            "never writes it",
                    hint="mirror (or aggregate) the new observable here so "
                         "run/run_fast stay bit-identical, then extend the "
                         "engine-equivalence tests",
                ))
        return findings

    @staticmethod
    def _find(ctx: LintContext, suffix: str) -> SourceFile | None:
        for src in ctx.parsed():
            if src.path.as_posix().endswith(suffix):
                return src
        return None

    @staticmethod
    def _method(src: SourceFile, class_name: str, method_name: str) -> ast.FunctionDef | None:
        for node in src.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and item.name == method_name):
                        return item
        return None
