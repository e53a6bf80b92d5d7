"""Fixture mirror engine missing the phantom observable (EQV001)."""

from .machine import RunResult


def run_fast(n):
    result = RunResult(cycles=n, ops=n)
    return result
