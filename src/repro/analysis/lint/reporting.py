"""Text and JSON reporters for lint results."""

from __future__ import annotations

import json

from .engine import LintResult
from .findings import Finding


def _format_finding(finding: Finding) -> str:
    lines = [f"{finding.located()}  {finding.code}  {finding.message}"]
    if finding.hint:
        lines.append(f"    hint: {finding.hint}")
    return "\n".join(lines)


def render_text(result: LintResult) -> str:
    """Human-oriented report (one finding per stanza + a summary line)."""
    out: list[str] = []
    for finding in result.blocking:
        out.append(_format_finding(finding))
    summary = result.summary()
    out.append(
        f"checked {summary['files']} file(s): "
        f"{summary['blocking']} finding(s), "
        f"{summary['det_scope_modules']} module(s) in determinism scope"
    )
    out.append("lint: OK" if result.ok else "lint: FAILED")
    return "\n".join(out)


def render_json(result: LintResult) -> str:
    """Machine-oriented report (stable key order for diffing in CI)."""
    payload = {
        "version": 1,
        "summary": result.summary(),
        "findings": [f.to_dict() for f in result.blocking],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
