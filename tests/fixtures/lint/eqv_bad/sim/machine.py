"""Fixture reference engine: writes one observable the mirror misses."""


class RunResult:
    def __init__(self, cycles=0, ops=0):
        self.cycles = cycles
        self.ops = ops


class Machine:
    def run(self, n):
        result = RunResult(cycles=0, ops=0)
        for _ in range(n):
            result.cycles += 1
        result.ops = n
        result.phantom_counter = n * 2
        return result
