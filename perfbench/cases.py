"""The benchmark's four workloads, built only from ``repro``'s public API.

A workload is a list of cases run in order; one run of all of them is a
*pass*.  Every case returns its simulated outputs as a flat dict of
JSON-exact values, which ``child.py`` compares with ``expected.json``.

Sizes are scaled down from the paper benches so one pass takes seconds,
not minutes; each workload's comment says how and why.  Inputs depend
only on the input seed (see :data:`INPUT_SEEDS`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import presets
from repro.attacks import (
    ClflushFreeAttack,
    DoubleSidedClflushAttack,
    SingleSidedClflushAttack,
)
from repro.core import AnvilConfig, AnvilModule
from repro.defenses import Armor, Para, TargetedRowRefresh
from repro.errors import ClflushRestrictedError, PagemapRestrictedError
from repro.exploits import NaClEscapeExploit, PteSprayExploit
from repro.runner import Job, SweepRunner
from repro.units import MB
from repro.workloads import BackgroundMix

#: Input seeds with recorded outputs: the default workload seed and a
#: held-out one.  ``--seed n`` selects ``INPUT_SEEDS[n % 2]``.
INPUT_SEEDS = (1, 2)


def input_seed(seed: int) -> int:
    return INPUT_SEEDS[seed % len(INPUT_SEEDS)]


def compressed(config: AnvilConfig, factor: float) -> AnvilConfig:
    """``config`` with its time axis shortened ``factor`` times.

    Windows and per-event costs shrink, the sampling rate grows, and the
    miss threshold shrinks, so each window sees the same number of
    misses and samples and spends the same share of time in the PMI.
    """
    return replace(
        config,
        llc_miss_threshold=round(config.llc_miss_threshold / factor),
        tc_ms=config.tc_ms / factor,
        ts_ms=config.ts_ms / factor,
        sampling_rate_hz=config.sampling_rate_hz * factor,
        pmi_cost_cycles=round(config.pmi_cost_cycles / factor),
        stage1_cost_cycles=round(config.stage1_cost_cycles / factor),
        stage2_setup_cost_cycles=round(config.stage2_setup_cost_cycles / factor),
    )


# -- hammer_to_flip -------------------------------------------------------------
# Table 1's two CLFLUSH attacks, each to its first flip on two page
# placements, as bench_table1_attacks runs each attack over a few seeds.
# The weakest cell flips at 40K disturbance units instead of 220K, so every
# attack flips inside one refresh interval on both input seeds (~5 s of
# hammering per pass instead of ~60 s).

HAMMER_THRESHOLD = 40_000


def hammer_case(attack_cls, max_ms: float, seed_offset: int):
    def case(seed: int) -> dict:
        seed += seed_offset
        machine = presets.paper_machine(seed=seed, threshold_min=HAMMER_THRESHOLD)
        attack = attack_cls(buffer_bytes=256 * MB, seed=seed)
        attack.prepare(machine)
        result = attack.run(machine, max_ms=max_ms, stop_on_flip=True)
        return {
            "first_flip_ms": result.time_to_first_flip_ms,
            "min_row_accesses": result.min_row_accesses,
            "iterations": result.iterations,
        }
    return case


# -- detect_heavy -----------------------------------------------------------------
# Table 3's heavy-load rows.  ANVIL-baseline's 6 ms windows would need a
# 12 ms window per case (~45 s of host time), so the baseline runs with its
# time axis compressed 6x: one full stage-1 + stage-2 cycle fits in 2.1 ms.

DETECT_CONFIG = compressed(AnvilConfig.baseline(), 6)
DETECT_WINDOW_MS = 2.1
REFRESH_CYCLE_MS = 64.0


def detection_latency_ms(machine, anvil: AnvilModule, start_cycles: int) -> float | None:
    """Table 3's metric: mean over refresh cycles of the time from cycle
    start to the cycle's first detection."""
    cycle = machine.clock.cycles_from_ms(REFRESH_CYCLE_MS)
    first_by_cycle: dict[int, int] = {}
    for detection in anvil.stats.detections:
        offset = detection.time_cycles - start_cycles
        first_by_cycle.setdefault(offset // cycle, offset % cycle)
    if not first_by_cycle:
        return None
    mean_cycles = sum(first_by_cycle.values()) / len(first_by_cycle)
    return machine.clock.ms_from_cycles(int(mean_cycles))


def detect_case(attack_cls):
    def case(seed: int) -> dict:
        machine = presets.paper_machine(seed=seed)
        BackgroundMix(seed=seed).attach(machine)
        anvil = AnvilModule(machine, DETECT_CONFIG)
        anvil.install()
        attack = attack_cls(buffer_bytes=256 * MB, seed=seed)
        attack.prepare(machine)
        start = machine.cycles
        result = attack.run(machine, max_ms=DETECT_WINDOW_MS, stop_on_flip=False)
        elapsed = machine.cycles - start
        return {
            "detect_ms": detection_latency_ms(machine, anvil, start),
            "refreshes_per_64ms": anvil.stats.refreshes_per_interval(
                machine.clock.cycles_from_ms(REFRESH_CYCLE_MS), elapsed
            ),
            "detections": anvil.stats.detection_count,
            "flips": result.flips,
        }
    return case


# -- defense_grid -------------------------------------------------------------------
# The 8 x 2 defense grid of bench_ablation_defense_grid, compressed 6x in
# time: weak cells flip at 5K units instead of 30K, every defense's
# threshold, window and probability is scaled to match, and each cell
# hammers 1.25 ms instead of 20 ms.  All 16 verdicts are unchanged.

GRID_FACTOR = 6
GRID_THRESHOLD = 30_000 // GRID_FACTOR
GRID_WINDOW_MS = 1.25
GRID_ANVIL = compressed(
    AnvilConfig(
        llc_miss_threshold=3_300, tc_ms=1.0, ts_ms=1.0,
        sampling_rate_hz=50_000, assumed_flip_accesses=GRID_THRESHOLD,
    ),
    GRID_FACTOR,
)
GRID_DEFENSES = (
    "none", "double-refresh", "clflush-ban", "pagemap-restricted",
    "para", "trr", "armor", "anvil",
)
GRID_ATTACKS = {"clflush": DoubleSidedClflushAttack, "clflush-free": ClflushFreeAttack}


def run_cell(defense: str, attack: str, seed: int) -> str:
    """One grid cell: ``FLIPS``, ``protected`` or ``blocked``."""
    kwargs = {"threshold_min": GRID_THRESHOLD, "seed": seed}
    if defense == "double-refresh":
        kwargs["refresh_scale"] = 2.0
    elif defense == "clflush-ban":
        kwargs["clflush_allowed"] = False
    elif defense == "pagemap-restricted":
        kwargs["pagemap_restricted"] = True
    machine = presets.small_machine(**kwargs)
    hook_threshold = 1_000 // GRID_FACTOR
    hook_window_ms = 64.0 / GRID_FACTOR
    if defense == "para":
        Para(probability=0.002 * GRID_FACTOR).install(machine)
    elif defense == "trr":
        TargetedRowRefresh(
            activation_threshold=hook_threshold, window_ms=hook_window_ms
        ).install(machine)
    elif defense == "armor":
        Armor(hot_threshold=hook_threshold, window_ms=hook_window_ms).install(machine)
    elif defense == "anvil":
        AnvilModule(machine, GRID_ANVIL).install()
    hammer = GRID_ATTACKS[attack](buffer_bytes=16 * MB, seed=seed)
    try:
        hammer.prepare(machine)
        result = hammer.run(
            machine, max_ms=GRID_WINDOW_MS, stop_on_flip=(defense != "anvil")
        )
    except (ClflushRestrictedError, PagemapRestrictedError):
        return "blocked"
    return "FLIPS" if result.flips else "protected"


def grid_case(seed: int) -> dict:
    runner = SweepRunner(
        jobs=1, root_seed=seed, cache=None, checkpoint=None, backend="serial"
    )
    jobs = [
        Job.of(run_cell, key=f"grid/{defense}/{attack}", defense=defense, attack=attack)
        for defense in GRID_DEFENSES
        for attack in GRID_ATTACKS
    ]
    results = runner.run(jobs)
    return {
        r.key.removeprefix("grid/"): r.value if r.ok else f"error: {r.error_type}"
        for r in results
    }


# -- exploits --------------------------------------------------------------------------
# bench_exploits' four scenarios on a smaller program (2 MB instead of 4 MB),
# spray (10% of free frames instead of 50%) and fewer hammer rounds.  At
# that spray density the unprotected PTE spray flips PTE bits but reaches
# no escalation in its one round; the recorded outputs say so.

EXPLOIT_ANVIL = AnvilConfig(
    llc_miss_threshold=1_650, tc_ms=0.5, ts_ms=0.5,
    sampling_rate_hz=50_000, assumed_flip_accesses=20_000,
)


def exploit_case(build, protected: bool):
    def case(seed: int) -> dict:
        machine = presets.small_machine(
            threshold_min=20_000 if protected else 2_000, max_flips_per_row=32
        )
        anvil = None
        if protected:
            anvil = AnvilModule(machine, EXPLOIT_ANVIL)
            anvil.install()
        result = build(seed).run(machine)
        return {
            "succeeded": result.succeeded,
            "flips": machine.memory.flip_count(),
            "detections": anvil.stats.detection_count if anvil else None,
        }
    return case


def nacl(seed: int) -> NaClEscapeExploit:
    return NaClEscapeExploit(code_mb=2, hammer_ms_per_round=2.0, max_rounds=2, seed=seed)


def pte_spray(seed: int) -> PteSprayExploit:
    return PteSprayExploit(
        spray_fraction=0.1, hammer_buffer_mb=8, max_rounds=1, round_ms=2.0, seed=seed
    )


@dataclass(frozen=True)
class Workload:
    """``why`` is also the workload's BENCHMARK.json text.  A case is one
    checked operation, except under ``per_key``, where each output key
    (a grid cell's verdict) is one."""

    why: str
    cases: dict
    per_key: bool = False


WORKLOADS = {
    "hammer_to_flip": Workload(
        "Table 1 CLFLUSH hammers to first flip on paper_machine: loads sim, "
        "cache, mem and DRAM activation; leaves PEBS samples, core, "
        "co-runners, defenses and runner idle.",
        {
            f"{name}/seed+{offset}": hammer_case(attack_cls, max_ms, offset)
            for offset in (0, 2)
            for name, attack_cls, max_ms in (
                ("single-sided", SingleSidedClflushAttack, 200.0),
                ("double-sided", DoubleSidedClflushAttack, 120.0),
            )
        },
    ),
    "detect_heavy": Workload(
        "Table 3 heavy-load rows, ANVIL with co-runners on paper_machine: loads "
        "co-runner injection, PEBS on two cores, cache and core; leaves "
        "defenses, runner and exploits idle.",
        {
            "clflush": detect_case(DoubleSidedClflushAttack),
            "clflush-free": detect_case(ClflushFreeAttack),
        },
    ),
    "defense_grid": Workload(
        "8 defenses x 2 attacks as 16 short SweepRunner cells on small_machine: "
        "loads machine builds, prepare, defense hooks and runner overhead; "
        "leaves co-runners and exploits idle.",
        {"grid": grid_case},
        per_key=True,
    ),
    "exploits": Workload(
        "NaCl escape and PTE spray with and without ANVIL on small_machine: "
        "loads the DRAM word store and exploit execute loops; leaves "
        "co-runners, defenses and runner idle.",
        {
            "nacl": exploit_case(nacl, protected=False),
            "nacl+anvil": exploit_case(nacl, protected=True),
            "pte": exploit_case(pte_spray, protected=False),
            "pte+anvil": exploit_case(pte_spray, protected=True),
        },
    ),
}
