"""The lint engine: collect, parse, scope, run rules, report.

:func:`run_lint` is the single entry point (the CLI and the test suite
both call it).  Pipeline:

1. collect ``.py`` files from the given paths (skipping caches and
   hidden directories), parse each once;
2. build the intra-package import graph and compute the DET closure;
3. run every rule over the shared :class:`LintContext` and sort the
   findings into file order.

Every finding blocks: there is no suppression comment and no baseline.
A file that fails to parse is itself a blocking ``PARSE`` finding — a
linter that silently skips unparseable determinism-critical code would
be the exact failure mode this suite exists to prevent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .findings import Finding
from .rules import RULES, LintContext
from .scope import det_closure, import_edges
from .sources import LintConfig, SourceFile, parse_source

_SKIP_DIRS = {"__pycache__", ".git", ".cache", "results", "quarantine"}


@dataclass
class LintResult:
    """Outcome of one lint run."""

    files: list[SourceFile] = field(default_factory=list)
    #: Every finding, sorted by (path, line, col, code).
    blocking: list[Finding] = field(default_factory=list)
    det_scope: set[str] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return not self.blocking

    def summary(self) -> dict:
        return {
            "files": len(self.files),
            "blocking": len(self.blocking),
            "det_scope_modules": len(self.det_scope),
            "ok": self.ok,
        }


def collect_files(paths: list[str | Path], base: Path | None = None) -> list[SourceFile]:
    """Parse every ``.py`` file under ``paths`` (deduplicated, sorted)."""
    base = base or Path.cwd()
    seen: set[Path] = set()
    ordered: list[Path] = []

    def add(path: Path) -> None:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            ordered.append(resolved)

    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if any(part in _SKIP_DIRS or part.startswith(".")
                       for part in sub.relative_to(path).parts[:-1]):
                    continue
                add(sub)
        elif path.suffix == ".py":
            add(path)
    return [parse_source(path, base=base) for path in ordered]


def build_det_scope(files: list[SourceFile], config: LintConfig) -> set[str]:
    """The determinism closure over the linted files' import graph."""
    known = {f.module for f in files if f.module is not None}
    graph: dict[str, set[str]] = {}
    for src in files:
        if src.module is None or src.tree is None:
            continue
        graph[src.module] = import_edges(
            src.tree, src.module, src.is_package_init, known
        )
    return det_closure(graph, config.det_roots)


def run_lint(
    paths: list[str | Path],
    config: LintConfig | None = None,
    base: Path | None = None,
) -> LintResult:
    """Lint ``paths`` and return the result (see module docstring)."""
    config = config or LintConfig()
    files = collect_files(paths, base=base)
    ctx = LintContext(
        files=files, config=config, det_scope=build_det_scope(files, config),
    )

    findings: list[Finding] = []
    for src in files:
        if src.parse_error is not None:
            findings.append(Finding(
                rule="PARSE", code="PARSE001", path=src.rel, line=1, col=0,
                message=src.parse_error,
                hint="fix the file; unparseable code cannot be verified",
            ))
    for rule_cls in RULES.values():
        findings.extend(rule_cls().run(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return LintResult(files=files, blocking=findings, det_scope=ctx.det_scope)
