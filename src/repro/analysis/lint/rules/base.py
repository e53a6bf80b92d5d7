"""The rule contract.

A rule is a class with a ``FAMILY`` (the prefix of its finding codes,
and its key in ``RULES``) and a ``run(ctx)`` returning findings.
Rules see the whole project (:class:`LintContext`), so cross-file checks
(EQV) and scope-aware checks (DET) are first-class rather than bolted on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..findings import Finding
from ..sources import LintConfig, SourceFile


@dataclass
class LintContext:
    """Everything a rule may inspect."""

    files: list[SourceFile]
    config: LintConfig
    #: Dotted module names inside the determinism closure (see scope.py).
    det_scope: set[str] = field(default_factory=set)

    def parsed(self) -> list[SourceFile]:
        return [f for f in self.files if f.tree is not None]


class Rule:
    """Base class; subclasses set ``FAMILY`` and implement ``run``."""

    FAMILY = "?"

    def run(self, ctx: LintContext) -> list[Finding]:
        raise NotImplementedError


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
