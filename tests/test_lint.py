"""The determinism/equivalence lint suite (``repro.analysis.lint``).

Fixture files under ``tests/fixtures/lint/`` carry one violation family
each; tests assert golden finding codes, noqa suppression, baseline
round-trips, CLI exit codes, and — most importantly — that the linter
passes clean on the repo's own sources (the self-gate CI relies on) and
*fails* when a phantom observable is added to the real ``Machine.run``
without being mirrored in the turbo engine.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.lint import (
    Baseline,
    LintConfig,
    load_baseline,
    run_lint,
    save_baseline,
)
from repro.analysis.lint.baseline import BaselineError
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
SIM_DIR = REPO_ROOT / "src" / "repro" / "sim"


def codes(findings):
    return sorted({f.code for f in findings})


# ---------------------------------------------------------------- DET


def test_det_banned_calls_golden():
    config = LintConfig(rules=("DET",), det_all=True)
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


def test_det_noqa_suppresses_every_finding():
    config = LintConfig(rules=("DET",), det_all=True)
    result = run_lint([FIXTURES / "det_noqa.py"], config=config)
    assert result.ok
    assert result.blocking == []
    assert result.suppressed == 5


def test_det_noqa_wrong_family_does_not_suppress(tmp_path):
    target = tmp_path / "wrong_family.py"
    target.write_text("import time\nSTAMP = time.time()  # repro: noqa[KER]\n")
    config = LintConfig(rules=("DET",), det_all=True)
    result = run_lint([target], config=config)
    assert codes(result.blocking) == ["DET003"]


def test_det_core_order_hazards_golden():
    config = LintConfig(rules=("DET",), det_all=True)
    result = run_lint([FIXTURES / "det_core_violation.py"], config=config)
    assert codes(result.blocking) == ["DET006", "DET007", "DET008"]
    # The sorted()-laundered forms in the same file stay clean.
    assert len(result.blocking) == 3


def test_det_scope_excludes_unreachable_modules(tmp_path):
    # Without det_all, a file outside any package (no dotted module name,
    # hence unreachable from the det_roots import graph) is not scoped.
    result = run_lint([FIXTURES / "det_violation.py"],
                      config=LintConfig(rules=("DET",)))
    assert result.ok


# ---------------------------------------------------------------- KER / ERR


def test_ker_fixture_golden():
    config = LintConfig(rules=("KER",), ker_suffixes=("ker_violation.py",))
    result = run_lint([FIXTURES / "ker_violation.py"], config=config)
    assert codes(result.blocking) == ["KER001", "KER002", "KER003"]


def test_err_fixture_flags_only_swallowed():
    config = LintConfig(rules=("ERR",))
    result = run_lint([FIXTURES / "err_violation.py", FIXTURES / "err_ok.py"],
                      config=config)
    assert codes(result.blocking) == ["ERR001"]
    assert len(result.blocking) == 2  # pass + continue swallow handlers
    assert all(f.path.endswith("err_violation.py") for f in result.blocking)


# ---------------------------------------------------------------- EQV


EQV_FIXTURE_CONFIG = LintConfig(
    rules=("EQV",),
    eqv_source=("sim/machine.py", "Machine", "run"),
    eqv_mirrors=("sim/fastpath.py", "sim/turbo.py"),
)


def test_eqv_fixture_missing_observable():
    result = run_lint([FIXTURES / "eqv_bad"], config=EQV_FIXTURE_CONFIG)
    assert codes(result.blocking) == ["EQV001"]
    (finding,) = result.blocking
    assert finding.path.endswith("turbo.py")
    assert "phantom_counter" in finding.message


def _copy_sim_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "sim"
    tree.mkdir()
    for name in ("machine.py", "fastpath.py", "turbo.py"):
        shutil.copy(SIM_DIR / name, tree / name)
    return tree


def test_eqv_real_engines_are_clean(tmp_path):
    tree = _copy_sim_tree(tmp_path)
    result = run_lint([tree], config=EQV_FIXTURE_CONFIG)
    assert result.ok, [f.message for f in result.blocking]


def test_eqv_catches_phantom_counter_in_real_machine(tmp_path):
    # The acceptance demo: add an observable to the *real* Machine.run
    # that neither fast engine mirrors — the rule must flag both mirrors.
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
    assert sorted(f.path.rsplit("/", 1)[-1] for f in result.blocking) == [
        "fastpath.py", "turbo.py",
    ]
    assert all("phantom_counter" in f.message for f in result.blocking)


# ---------------------------------------------------------------- baseline


def test_baseline_round_trip(tmp_path):
    config = LintConfig(rules=("ERR",))
    first = run_lint([FIXTURES / "err_violation.py"], config=config)
    assert len(first.blocking) == 2

    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, first.blocking)
    baseline = load_baseline(baseline_path)
    assert len(baseline.entries) == 2

    second = run_lint([FIXTURES / "err_violation.py"], config=config,
                      baseline=baseline)
    assert second.ok
    assert len(second.baselined) == 2
    assert second.stale_baseline == []


def test_baseline_reports_stale_entries(tmp_path):
    config = LintConfig(rules=("ERR",))
    target = tmp_path / "fixed.py"
    target.write_text(
        "def f(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except Exception:\n"
        "        pass\n"
    )
    first = run_lint([target], config=config)
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, first.blocking)

    # Fix the violation: the baseline entry must surface as stale debt.
    target.write_text(
        "def f(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except OSError:\n"
        "        pass\n"
    )
    second = run_lint([target], config=config,
                      baseline=load_baseline(baseline_path))
    assert second.ok
    assert len(second.stale_baseline) == 1


def test_baseline_fingerprint_survives_line_drift(tmp_path):
    # Fingerprints hash the line *text*, not its number: inserting lines
    # above a baselined finding must not resurrect it.
    config = LintConfig(rules=("ERR",))
    target = tmp_path / "drift.py"
    body = (
        "def f(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except Exception:\n"
        "        pass\n"
    )
    target.write_text(body)
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, run_lint([target], config=config).blocking)

    target.write_text("# a new header comment\nX = 1\n\n\n" + body)
    drifted = run_lint([target], config=config,
                       baseline=load_baseline(baseline_path))
    assert drifted.ok
    assert len(drifted.baselined) == 1


def test_malformed_baseline_raises(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": 99}")
    with pytest.raises(BaselineError):
        load_baseline(bad)


def test_committed_baseline_is_valid_and_empty():
    baseline = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
    assert baseline.entries == []


# ---------------------------------------------------------------- engine


def test_parse_error_is_blocking(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    result = run_lint([bad], config=LintConfig(rules=("ERR",)))
    assert codes(result.blocking) == ["PARSE001"]


def test_unknown_rule_family_raises():
    with pytest.raises(ValueError, match="unknown lint rule"):
        run_lint([FIXTURES / "err_ok.py"], config=LintConfig(rules=("NOPE",)))


def test_repo_sources_are_clean():
    # The self-gate CI enforces: the repo's own sources lint clean with
    # the default configuration and no baseline debt.
    result = run_lint([REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks"],
                      base=REPO_ROOT)
    assert result.ok, "\n".join(
        f"{f.path}:{f.line} {f.code} {f.message}" for f in result.blocking
    )
    # The DET closure actually reaches the serialization/execution stack.
    for module in ("repro.runner.seeding", "repro.runner.backends.base",
                   "repro.sim.machine"):
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
             + (config.eqv_source[0],) + config.eqv_mirrors + config.ker_suffixes)
    for suffix in paths:
        assert (src / suffix).is_file(), suffix


def test_empty_baseline_split_blocks_everything():
    config = LintConfig(rules=("ERR",))
    result = run_lint([FIXTURES / "err_violation.py"], config=config,
                      baseline=Baseline())
    assert len(result.blocking) == 2
    assert result.baselined == []


# ---------------------------------------------------------------- CLI


def test_cli_exit_codes_per_fixture():
    base = ["lint", "--no-baseline", "--det-all"]
    assert main(base + ["--rules", "DET",
                        str(FIXTURES / "det_violation.py")]) == 1
    assert main(base + ["--rules", "DET",
                        str(FIXTURES / "det_noqa.py")]) == 0
    assert main(base + ["--rules", "KER",
                        str(FIXTURES / "ker_violation.py")]) == 1
    assert main(base + ["--rules", "ERR",
                        str(FIXTURES / "err_violation.py")]) == 1
    assert main(base + ["--rules", "ERR",
                        str(FIXTURES / "err_ok.py")]) == 0


def test_cli_unknown_rule_exits_2():
    assert main(["lint", "--no-baseline", "--rules", "BOGUS",
                 str(FIXTURES / "err_ok.py")]) == 2


def test_cli_json_report(capsys):
    code = main(["lint", "--no-baseline", "--det-all", "--format", "json",
                 "--rules", "DET", str(FIXTURES / "det_violation.py")])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["blocking"] == 5
    assert {f["code"] for f in report["findings"]} == {
        "DET001", "DET002", "DET003", "DET004", "DET005",
    }


def test_cli_repo_self_gate(monkeypatch):
    # Exactly what the CI lint job runs, from the repo root.
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint"]) == 0


def test_cli_write_baseline_round_trip(tmp_path, capsys):
    baseline_path = tmp_path / "baseline.json"
    fixture = str(FIXTURES / "err_violation.py")
    assert main(["lint", "--rules", "ERR", "--baseline", str(baseline_path),
                 "--write-baseline", fixture]) == 0
    capsys.readouterr()
    # With the written baseline the same findings no longer block.
    assert main(["lint", "--rules", "ERR", "--baseline", str(baseline_path),
                 fixture]) == 0
    out = capsys.readouterr().out
    assert "baselined" in out
