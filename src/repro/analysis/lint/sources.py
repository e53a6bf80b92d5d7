"""Parsed source files and the lint configuration object."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .noqa import suppressions
from .scope import module_name


@dataclass
class SourceFile:
    """One parsed Python file under analysis."""

    path: Path  #: absolute path
    rel: str  #: display/baseline path (posix, repo-relative when possible)
    text: str
    tree: ast.AST | None  #: ``None`` when the file fails to parse
    parse_error: str | None = None
    module: str | None = None  #: dotted module name (``None`` outside packages)
    lines: list[str] = field(default_factory=list)
    noqa: dict[int, frozenset[str]] = field(default_factory=dict)

    @property
    def is_package_init(self) -> bool:
        return self.path.name == "__init__.py"

    def endswith(self, suffixes: tuple[str, ...]) -> bool:
        posix = self.path.as_posix()
        return any(posix.endswith(suffix) for suffix in suffixes)


def parse_source(path: Path, base: Path | None = None) -> SourceFile:
    """Read and parse ``path`` (parse failures are recorded, not raised)."""
    path = path.resolve()
    rel = path.as_posix()
    if base is not None:
        try:
            rel = path.relative_to(base.resolve()).as_posix()
        except ValueError:
            pass
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return SourceFile(path=path, rel=rel, text="", tree=None,
                          parse_error=f"unreadable: {exc}")
    try:
        tree = ast.parse(text, filename=str(path))
        error = None
    except SyntaxError as exc:
        tree, error = None, f"syntax error: {exc.msg} (line {exc.lineno})"
    lines = text.splitlines()
    return SourceFile(
        path=path, rel=rel, text=text, tree=tree, parse_error=error,
        module=module_name(path), lines=lines, noqa=suppressions(lines),
    )


@dataclass(frozen=True)
class LintConfig:
    """Everything the rule set needs to know about this repo's invariants.

    The defaults encode the real contracts (see DESIGN.md "Determinism
    invariants"); tests override fields to lint synthetic trees.
    """

    #: Rule families to run.
    rules: tuple[str, ...] = ("DET", "EQV", "ERR")

    # -- DET: determinism scope ------------------------------------------------
    #: Import-graph roots: the modules that derive seeds, fingerprint code,
    #: or execute cells, and the packages whose code a cell runs: the
    #: simulator and everything the paper's cells build on it.  The runner
    #: imports none of the latter (cells name them by ``module:qualname``
    #: spec), so they are listed explicitly.
    #: Everything the roots (transitively) import is determinism-scoped.
    det_roots: tuple[str, ...] = (
        "repro.runner.seeding",
        "repro.runner.cache",
        "repro.runner.job",
        "repro.runner.runner",
        "repro.sim",
        "repro.core",
        "repro.attacks",
        "repro.defenses",
        "repro.workloads",
        "repro.exploits",
        "repro.presets",
        "repro.sidechannel",
    )
    #: Treat every linted file as DET-scoped and DET-core (fixture trees
    #: and ad-hoc paths, where module names do not resolve).
    det_all: bool = False
    #: path-suffix -> dotted call names exempt there.  The timing shim
    #: (``run_cell``) measures per-cell wall-clock *telemetry*
    #: (``duration_s``), which is excluded from result equality and
    #: cache keys.
    det_allowed_calls: tuple[tuple[str, tuple[str, ...]], ...] = (
        ("repro/runner/runner.py", ("time.perf_counter",)),
    )
    #: The serialization core: files whose *iteration order and JSON
    #: encoding* feed hashes directly.
    det_core_suffixes: tuple[str, ...] = (
        "repro/runner/seeding.py",
        "repro/runner/cache.py",
        "repro/runner/job.py",
    )

    # -- EQV: engine observable parity -----------------------------------------
    #: (file suffix, class name, method name) of the reference engine.
    eqv_source: tuple[str, str, str] = ("repro/sim/machine.py", "Machine", "run")
    #: Files that must mirror every observable the reference writes.
    eqv_mirrors: tuple[str, ...] = ("repro/sim/fastpath.py",)
    #: The result class whose attribute writes are the observables.
    eqv_result_class: str = "RunResult"

    # -- ERR: no swallowed exceptions ------------------------------------------
    #: Call names that count as "recording the error into a structured
    #: result" inside a broad handler.
    err_recorders: tuple[str, ...] = ("JobResult", "warn")
