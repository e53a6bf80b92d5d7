"""The bench harness's result publisher (``benchmarks/_common.py``)."""

from __future__ import annotations

import importlib.util
import os
import stat
from pathlib import Path

COMMON = Path(__file__).resolve().parent.parent / "benchmarks" / "_common.py"


def _load_common():
    spec = importlib.util.spec_from_file_location("bench_common", COMMON)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mode(path: Path) -> int:
    return stat.S_IMODE(path.stat().st_mode)


def test_published_results_get_the_mode_open_gives(tmp_path, monkeypatch):
    common = _load_common()
    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
    old_umask = os.umask(0o022)
    try:
        common.publish("probe", "x", data={"a": 1})
        with open(tmp_path / "reference.txt", "w"):
            pass
    finally:
        os.umask(old_umask)
    expected = _mode(tmp_path / "reference.txt")
    assert expected == 0o644
    assert _mode(tmp_path / "probe.txt") == expected
    assert _mode(tmp_path / "probe.json") == expected
    assert (tmp_path / "probe.txt").read_text() == "x\n"
    assert (tmp_path / "probe.json").read_text() == '{\n  "a": 1\n}\n'
    # The atomic write leaves no tmp file behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "probe.json", "probe.txt", "reference.txt",
    ]
