"""CLI and trace-infrastructure tests."""

from __future__ import annotations

import io

import pytest

import repro.sim.epoch
from repro.cli import main
from repro.errors import SimulationError
from repro.sim import clflush, compute, load, mfence, pair_load, store
from repro.sim.trace import format_op, iter_trace, parse_op, read_trace, write_trace
from repro.workloads import SPEC2006_INT


# -- trace round trips ---------------------------------------------------------------


OPS = [
    load(0x7F0000001040),
    store(0x7F0000002080),
    clflush(0x7F0000001040),
    mfence(),
    compute(36),
    pair_load(0x7F0000001040, 0x7F0000003100),
]


@pytest.mark.parametrize("op", OPS, ids=[op[0] for op in OPS])
def test_format_parse_roundtrip(op):
    assert parse_op(format_op(op)) == op


def test_trace_file_roundtrip(tmp_path):
    path = tmp_path / "attack.trace"
    written = write_trace(path, OPS)
    assert written == len(OPS)
    assert list(read_trace(path)) == OPS


def test_trace_limit(tmp_path):
    path = tmp_path / "t.trace"
    assert write_trace(path, iter(OPS), limit=3) == 3
    assert len(list(read_trace(path))) == 3


def test_trace_comments_and_blanks():
    text = "# header\nL 40\n\nC 10   # think\n"
    assert list(iter_trace(io.StringIO(text))) == [("L", 0x40), ("C", 10)]


def test_trace_malformed_lines():
    with pytest.raises(SimulationError):
        parse_op("L")
    with pytest.raises(SimulationError):
        parse_op("Z 1234")
    with pytest.raises(SimulationError):
        parse_op("C notanumber")


def test_trace_replay_on_machine(machine, tmp_path):
    base = machine.memory.vm.mmap(64 * 1024)
    ops = [load(base + i * 64) for i in range(32)]
    path = tmp_path / "replay.trace"
    write_trace(path, ops)
    result = machine.run(read_trace(path))
    assert result.loads == 32


# -- CLI ---------------------------------------------------------------------------------


def test_cli_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "bit-plru" in out and "64 MB" in out


def test_cli_probe_policy(capsys):
    assert main(["probe-policy", "--rounds", "8"]) == 0
    out = capsys.readouterr().out
    assert "bit-plru" in out and "best match" in out


def test_cli_attack_flips(capsys):
    assert main(["attack", "--type", "double-sided", "--ms", "8",
                 "--threshold", "4000"]) == 0
    out = capsys.readouterr().out
    assert "bit flips       : 1" in out


def test_cli_attack_under_anvil(capsys):
    assert main(["attack", "--type", "double-sided", "--ms", "8",
                 "--anvil"]) == 0
    out = capsys.readouterr().out
    assert "bit flips       : 0" in out
    assert "ANVIL detections" in out


def test_cli_attack_clflush_banned():
    # A CLFLUSH attack on a banned machine is a library error -> exit 2.
    assert main(["attack", "--type", "double-sided", "--ms", "5",
                 "--no-clflush"]) == 2


def test_cli_spec_overhead(capsys):
    assert main(["spec-overhead", "--seconds", "2"]) == 0
    out = capsys.readouterr().out
    assert "mcf" in out and "ANVIL time" in out


def test_cli_failed_sweep_cell_exits_2_naming_it(monkeypatch, capsys):
    # Cells are looked up by name when they run, so this breaks every one.
    def broken_cell(**kwargs):
        raise RuntimeError("broken cell")

    monkeypatch.setattr(repro.sim.epoch, "run_epoch_cell", broken_cell)
    assert main(["spec-overhead", "--seconds", "2", "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert f"{len(SPEC2006_INT)} sweep cell(s) failed" in err
    assert all(f"spec-overhead/{name}" in err for name in SPEC2006_INT)


def test_cli_requires_command(capsys):
    with pytest.raises(SystemExit):
        main([])
