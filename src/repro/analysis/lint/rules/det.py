"""DET — determinism of everything feeding seeds, fingerprints, journal
records, and cell execution.

Two tiers, both scoped by the import-graph closure in
:mod:`repro.analysis.lint.scope`:

* **Banned calls** (any DET-scoped module): ``hash()`` and ``id()`` are
  process-randomized / address-based; ``time.time`` and
  ``time.perf_counter`` read wall clocks; ``os.urandom`` is explicit
  entropy; module-level ``random.*`` uses the unseeded global RNG.  The
  seeded ``random.Random(seed)`` constructor is the sanctioned form;
  ``time.monotonic``/``time.sleep`` are scheduling, not results, and stay
  legal.
* **Serialization core** (the files that *build* hashed/framed bytes):
  iterating a dict view or a set without ``sorted(...)`` bakes hash-seed
  or insertion order into the output, and ``json.dumps`` without
  ``sort_keys=True`` bakes dict order into journal lines.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..sources import SourceFile
from .base import LintContext, Rule, dotted_name

#: dotted call name -> (code, message, hint)
_BANNED_CALLS = {
    "hash": ("DET001",
             "builtin hash() is randomized per process (PYTHONHASHSEED)",
             "use zlib.crc32 or repro.runner.seeding.stable_hash instead"),
    "id": ("DET002",
           "id() is a memory address; it differs across runs and workers",
           "derive identity from the object's data, not its address"),
    "time.time": ("DET003",
                  "wall-clock time.time() in determinism-scoped code",
                  "machine time is the simulated cycle counter; wall clocks "
                  "may only feed telemetry (see the worker timing shims)"),
    "time.perf_counter": ("DET003",
                          "wall-clock time.perf_counter() in determinism-scoped code",
                          "machine time is the simulated cycle counter; wall clocks "
                          "may only feed telemetry (see the worker timing shims)"),
    "perf_counter": ("DET003",
                     "wall-clock perf_counter() in determinism-scoped code",
                     "machine time is the simulated cycle counter; wall clocks "
                     "may only feed telemetry (see the worker timing shims)"),
    "os.urandom": ("DET004",
                   "os.urandom() is entropy; results must be a pure function "
                   "of (grid, root seed)",
                   "derive bytes from a seeded digest (hashlib over stable inputs)"),
    "urandom": ("DET004",
                "urandom() is entropy; results must be a pure function "
                "of (grid, root seed)",
                "derive bytes from a seeded digest (hashlib over stable inputs)"),
}

_DICT_VIEWS = ("keys", "values", "items")


class DetRule(Rule):
    FAMILY = "DET"

    def run(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for src in ctx.parsed():
            in_scope = ctx.config.det_all or (
                src.module is not None and src.module in ctx.det_scope
            )
            if not in_scope:
                continue
            allowed = self._allowed_for(src, ctx)
            findings.extend(self._check_calls(src, allowed))
            if ctx.config.det_all or src.endswith(ctx.config.det_core_suffixes):
                findings.extend(self._check_core(src))
        return findings

    @staticmethod
    def _allowed_for(src: SourceFile, ctx: LintContext) -> frozenset[str]:
        allowed: set[str] = set()
        posix = src.path.as_posix()
        for suffix, names in ctx.config.det_allowed_calls:
            if posix.endswith(suffix):
                allowed.update(names)
                # Accept both the dotted and from-imported spellings.
                allowed.update(name.rpartition(".")[2] for name in names)
        return frozenset(allowed)

    def _check_calls(self, src: SourceFile, allowed: frozenset[str]) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in _BANNED_CALLS and name not in allowed:
                code, message, hint = _BANNED_CALLS[name]
                findings.append(Finding(
                    rule=self.FAMILY, code=code, path=src.rel,
                    line=node.lineno, col=node.col_offset,
                    message=message, hint=hint,
                ))
            elif (name.startswith("random.") and name.count(".") == 1
                    and name != "random.Random"):
                findings.append(Finding(
                    rule=self.FAMILY, code="DET005", path=src.rel,
                    line=node.lineno, col=node.col_offset,
                    message=f"{name}() uses the unseeded module-level RNG",
                    hint="construct random.Random(seed) with a derived seed "
                         "(repro.runner.seeding.derive_seed)",
                ))
        return findings

    def _check_core(self, src: SourceFile) -> list[Finding]:
        """Serialization-core checks: iteration order + JSON key order."""
        findings: list[Finding] = []
        sorted_wrapped = self._sorted_wrapped(src.tree)
        for node in ast.walk(src.tree):
            iters: list[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                if id(node) not in sorted_wrapped:
                    iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                findings.extend(self._check_iter(src, it))
            if isinstance(node, ast.Call):
                findings.extend(self._check_dumps(src, node))
        return findings

    @staticmethod
    def _sorted_wrapped(tree: ast.AST) -> set[int]:
        """ids of comprehension nodes passed directly to ``sorted(...)``
        (their iteration order is laundered by the sort)."""
        wrapped: set[int] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "sorted"):
                for arg in node.args:
                    if isinstance(arg, (ast.ListComp, ast.SetComp,
                                        ast.GeneratorExp)):
                        wrapped.add(id(arg))
        return wrapped

    def _check_iter(self, src: SourceFile, it: ast.expr) -> list[Finding]:
        if (isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute)
                and it.func.attr in _DICT_VIEWS and not it.args):
            return [Finding(
                rule=self.FAMILY, code="DET006", path=src.rel,
                line=it.lineno, col=it.col_offset,
                message=f"iterating .{it.func.attr}() in serialization-core "
                        "code without sorted()",
                hint="wrap in sorted(...) so the emitted order is a function "
                     "of the data, not of insertion history",
            )]
        is_set_call = (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                       and it.func.id in ("set", "frozenset"))
        if isinstance(it, ast.Set) or is_set_call:
            return [Finding(
                rule=self.FAMILY, code="DET007", path=src.rel,
                line=it.lineno, col=it.col_offset,
                message="iterating a set in serialization-core code "
                        "(order follows the per-process string hash)",
                hint="iterate sorted(the_set) instead",
            )]
        return []

    def _check_dumps(self, src: SourceFile, node: ast.Call) -> list[Finding]:
        name = dotted_name(node.func)
        if name not in ("json.dumps", "json.dump"):
            return []
        for kw in node.keywords:
            if kw.arg == "sort_keys":
                if isinstance(kw.value, ast.Constant) and kw.value.value is True:
                    return []
                break
        return [Finding(
            rule=self.FAMILY, code="DET008", path=src.rel,
            line=node.lineno, col=node.col_offset,
            message=f"{name}() without sort_keys=True in serialization-core "
                    "code (journal bytes would depend on dict order)",
            hint="pass sort_keys=True so identical records serialize "
                 "identically everywhere",
        )]
