"""Determinism scope: which modules the DET rule applies to.

The DET invariant is not "nothing in the repo may call ``hash()``" — it
is "nothing *reachable from* seed derivation, cache fingerprints,
journal records, or cell execution may be nondeterministic".  This module
makes that reachability machine-checked: it builds the intra-package
import graph from the parsed ASTs (including imports deferred inside
functions) and computes the closure of a configured root set.  A module
inside the closure is DET-scoped; everything else (benchmarks, CLI
presentation, the linter itself) is not, and may freely use wall clocks.
"""

from __future__ import annotations

import ast
from collections import deque
from pathlib import Path


def module_name(path: Path) -> str | None:
    """The dotted module name of ``path``, or ``None`` for a file that is
    not part of a package (no ``__init__.py`` chain above it)."""
    path = path.resolve()
    parts: list[str] = []
    if path.name == "__init__.py":
        current = path.parent
    else:
        if not (path.parent / "__init__.py").exists():
            return None
        parts.append(path.stem)
        current = path.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(reversed(parts)) if parts else None


def _resolve_relative(module: str, is_package: bool, node: ast.ImportFrom) -> str | None:
    """The absolute module an ``ImportFrom`` refers to, or ``None``."""
    if node.level == 0:
        return node.module
    # Level 1 from inside a package __init__ means the package itself;
    # from a plain module it means the containing package.
    parts = module.split(".")
    anchor = parts if is_package else parts[:-1]
    drop = node.level - 1
    if drop > len(anchor):
        return None
    base = anchor[: len(anchor) - drop]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def import_edges(tree: ast.AST, module: str, is_package: bool,
                 known: set[str]) -> set[str]:
    """Modules (within ``known``) that ``module`` imports.

    ``from pkg import name`` contributes both ``pkg`` (its ``__init__``
    runs) and ``pkg.name`` when that is itself a known module.
    """
    edges: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name
                while name:
                    if name in known:
                        edges.add(name)
                    name = name.rpartition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(module, is_package, node)
            if base is None:
                continue
            if base in known:
                edges.add(base)
            for alias in node.names:
                candidate = f"{base}.{alias.name}"
                if candidate in known:
                    edges.add(candidate)
    return edges


def det_closure(graph: dict[str, set[str]], roots: tuple[str, ...]) -> set[str]:
    """Every module reachable from ``roots`` over the import graph
    (roots included, unknown roots ignored)."""
    seen: set[str] = set()
    queue = deque(root for root in roots if root in graph)
    while queue:
        module = queue.popleft()
        if module in seen:
            continue
        seen.add(module)
        queue.extend(graph.get(module, ()) - seen)
    return seen
