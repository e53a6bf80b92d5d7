"""The determinism/equivalence lint suite (``repro.analysis.lint``).

Fixture files under ``tests/fixtures/lint/`` carry one violation family
each; tests assert golden finding codes, that no comment suppresses a
finding, CLI exit codes, and — most importantly — that the linter
passes clean on the repo's own sources (the self-gate CI relies on) and
*fails* when a phantom observable is added to the real ``Machine.run``
without being mirrored in the fast-path engine.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.analysis.lint import LintConfig, run_lint
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
SIM_DIR = REPO_ROOT / "src" / "repro" / "sim"


def codes(findings):
    return sorted({f.code for f in findings})


# ---------------------------------------------------------------- DET


def test_det_banned_calls_golden():
    config = LintConfig(det_all=True)
    result = run_lint([FIXTURES / "det_violation.py"], config=config)
    assert not result.ok
    assert codes(result.blocking) == [
        "DET001", "DET002", "DET003", "DET004", "DET005",
    ]
    # Findings carry clickable locations and fix hints.
    for finding in result.blocking:
        assert finding.line > 0
        assert finding.hint
        assert finding.path.endswith("det_violation.py")


def test_noqa_comment_does_not_suppress(tmp_path):
    # Exemptions live only in LintConfig: a comment waives nothing.
    target = tmp_path / "noqa.py"
    target.write_text("import time\nSTAMP = time.time()  # repro: noqa[DET]\n")
    result = run_lint([target], config=LintConfig(det_all=True))
    assert codes(result.blocking) == ["DET003"]


def test_det_core_order_hazards_golden():
    config = LintConfig(det_all=True)
    result = run_lint([FIXTURES / "det_core_violation.py"], config=config)
    assert codes(result.blocking) == ["DET006", "DET007", "DET008"]
    # The sorted()-laundered forms in the same file stay clean.
    assert len(result.blocking) == 3


def test_det_scope_excludes_unreachable_modules(tmp_path):
    # Without det_all, a file outside any package (no dotted module name,
    # hence unreachable from the det_roots import graph) is not scoped.
    result = run_lint([FIXTURES / "det_violation.py"], config=LintConfig())
    assert result.ok


# ---------------------------------------------------------------- ERR


def test_err_fixture_flags_only_swallowed():
    result = run_lint([FIXTURES / "err_violation.py", FIXTURES / "err_ok.py"])
    assert codes(result.blocking) == ["ERR001"]
    assert len(result.blocking) == 2  # pass + continue swallow handlers
    assert all(f.path.endswith("err_violation.py") for f in result.blocking)


# ---------------------------------------------------------------- EQV


EQV_FIXTURE_CONFIG = LintConfig(
    eqv_source=("sim/machine.py", "Machine", "run"),
    eqv_mirrors=("sim/fastpath.py",),
)


def test_eqv_fixture_missing_observable():
    result = run_lint([FIXTURES / "eqv_bad"], config=EQV_FIXTURE_CONFIG)
    assert codes(result.blocking) == ["EQV001"]
    (finding,) = result.blocking
    assert finding.path.endswith("fastpath.py")
    assert "phantom_counter" in finding.message


def _copy_sim_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "sim"
    tree.mkdir()
    for name in ("machine.py", "fastpath.py"):
        shutil.copy(SIM_DIR / name, tree / name)
    return tree


def test_eqv_real_engines_are_clean(tmp_path):
    tree = _copy_sim_tree(tmp_path)
    result = run_lint([tree], config=EQV_FIXTURE_CONFIG)
    assert result.ok, [f.message for f in result.blocking]


def test_eqv_catches_phantom_counter_in_real_machine(tmp_path):
    # The acceptance demo: add an observable to the *real* Machine.run
    # that the fast path does not mirror — the rule must flag it.
    tree = _copy_sim_tree(tmp_path)
    machine = tree / "machine.py"
    text = machine.read_text()
    anchor = "        result.end_cycles = self.cycles\n"
    assert anchor in text, "machine.py run() epilogue moved; update the test"
    machine.write_text(text.replace(
        anchor, anchor + "        result.phantom_counter = 1\n", 1,
    ))
    result = run_lint([tree], config=EQV_FIXTURE_CONFIG)
    assert codes(result.blocking) == ["EQV001"]
    (finding,) = result.blocking
    assert finding.path.endswith("fastpath.py")
    assert "phantom_counter" in finding.message


# ---------------------------------------------------------------- engine


def test_parse_error_is_blocking(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    result = run_lint([bad])
    assert codes(result.blocking) == ["PARSE001"]


def test_repo_sources_are_clean():
    # The self-gate CI enforces: the repo's own sources lint clean with
    # the default configuration.
    result = run_lint([REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks"],
                      base=REPO_ROOT)
    assert result.ok, "\n".join(
        f"{f.path}:{f.line} {f.code} {f.message}" for f in result.blocking
    )
    # The DET closure actually reaches the serialization/execution stack
    # and the simulator the cells run, down to every layer of the model.
    for module in ("repro.runner.seeding", "repro.runner.runner",
                   "repro.sim.machine", "repro.sim.fastpath",
                   "repro.mem.memory_system", "repro.cache.cache",
                   "repro.dram.device", "repro.pmu.pmu"):
        assert module in result.det_scope
    # Every path the default config names exists: a stale entry would
    # silently scope (or exempt) nothing, and no finding would say so.
    config = LintConfig()
    src = REPO_ROOT / "src"
    for module in config.det_roots:
        base = src.joinpath(*module.split("."))
        assert base.with_suffix(".py").is_file() or (base / "__init__.py").is_file(), module
    paths = (config.det_core_suffixes
             + tuple(path for path, _calls in config.det_allowed_calls)
             + (config.eqv_source[0],) + config.eqv_mirrors)
    for suffix in paths:
        assert (src / suffix).is_file(), suffix


# ---------------------------------------------------------------- CLI


def test_cli_exit_codes_per_fixture():
    assert main(["lint", str(FIXTURES / "err_violation.py")]) == 1
    assert main(["lint", str(FIXTURES / "err_ok.py")]) == 0


def test_cli_json_report(capsys):
    code = main(["lint", "--format", "json",
                 str(FIXTURES / "err_violation.py")])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["blocking"] == 2
    assert [f["code"] for f in report["findings"]] == ["ERR001", "ERR001"]


def test_cli_repo_self_gate(monkeypatch):
    # Exactly what the CI lint job runs, from the repo root.
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint"]) == 0

