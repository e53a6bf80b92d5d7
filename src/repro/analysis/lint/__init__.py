"""Determinism & engine-equivalence static analysis (``python -m repro lint``).

An AST-based lint suite that machine-checks the coding invariants every
bit-identical-results guarantee in this repo rests on:

=======  ==============================================================
``DET``  nothing reachable from seed derivation, ``code_fingerprint``,
         or cell execution may call ``hash()``/``id()``/
         wall clocks/``os.urandom``/the unseeded global RNG; the
         serialization core must iterate sorted and ``json.dumps`` with
         ``sort_keys=True``
``EQV``  every observable ``Machine.run`` writes on its ``RunResult``
         must also be written (or aggregated) by the fast-path engine
``ERR``  no broad ``except Exception`` that swallows without re-raising,
         returning, or recording a structured result
=======  ==============================================================

Suppressions are explicit (``# repro: noqa[DET]``), grandfathered
findings live in a committed baseline (``.repro-lint-baseline.json``),
and the CLI exits nonzero on any blocking finding so CI gates on it.
"""

from .baseline import Baseline, load_baseline, save_baseline
from .engine import LintResult, collect_files, run_lint
from .findings import Finding
from .reporting import render_json, render_text
from .rules import RULES
from .sources import LintConfig

__all__ = [
    "Baseline",
    "Finding",
    "LintConfig",
    "LintResult",
    "RULES",
    "collect_files",
    "load_baseline",
    "render_json",
    "render_text",
    "run_lint",
    "save_baseline",
]
