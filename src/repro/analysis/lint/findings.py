"""Finding records: one rule violation anchored at ``path:line:col``."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One rule violation."""

    rule: str  #: rule family, e.g. ``"DET"``
    code: str  #: specific check, e.g. ``"DET003"``
    path: str  #: repo-relative posix path
    line: int  #: 1-based line number
    col: int  #: 0-based column
    message: str
    hint: str = ""

    def located(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule, "code": self.code, "path": self.path,
            "line": self.line, "col": self.col, "message": self.message,
            "hint": self.hint,
        }
