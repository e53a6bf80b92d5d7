"""The ``python -m repro lint`` command (parser wiring + handler).

Follows the ``cache verify`` convention: exit 0 on a clean tree, exit 1
when any finding remains — so CI can gate on it directly.  Every run
applies all rules with the default :class:`LintConfig`.
"""

from __future__ import annotations

import argparse
import os

from .engine import run_lint
from .reporting import render_json, render_text


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to lint (default: the repro package "
             "sources plus ./benchmarks when present)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        dest="fmt", help="report format (default text)")


def default_paths() -> list[str]:
    """The repo's own sources: the installed ``repro`` package directory
    plus ``./benchmarks`` when run from the repo root."""
    import repro

    paths = [os.path.dirname(os.path.abspath(repro.__file__))]
    if os.path.isdir("benchmarks"):
        paths.append("benchmarks")
    return paths


def run(args: argparse.Namespace) -> int:
    result = run_lint(list(args.paths) or default_paths())
    print(render_json(result) if args.fmt == "json" else render_text(result))
    return 0 if result.ok else 1
