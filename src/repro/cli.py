"""Command-line interface: ``python -m repro <command>``.

Commands map onto the library's headline capabilities:

- ``attack`` — run one of the Table 1 attacks (optionally under ANVIL,
  a refresh-rate mitigation, or with CLFLUSH/pagemap restricted);
- ``defense-grid`` — the mitigation x attack matrix;
- ``spec-overhead`` — the Figure 3/Table 4 epoch study;
- ``probe-policy`` — reverse-engineer the LLC replacement policy;
- ``cache`` — scrub (``verify``, exits nonzero when corruption is found)
  or empty (``clear``) the sweep result cache; corrupt entries are
  quarantined so they never poison a sweep;
- ``lint`` — the determinism & engine-equivalence static-analysis suite
  (exits nonzero on any non-baselined finding, mirroring ``cache
  verify``; see :mod:`repro.analysis.lint`);
- ``info`` — the simulated machine's configuration.

Every sweep-running command (``defense-grid``, ``spec-overhead``) takes
the same execution flags — ``--jobs`` and ``--seed`` — from one shared
parent parser; ``--jobs`` mirrors the ``REPRO_JOBS`` environment knob.
A failed sweep cell exits 2 with an error naming every failed cell.

The CLI runs everything at the scaled demo size so each command finishes
in seconds-to-a-minute; the benchmark harness covers paper scale.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analysis import format_table
from .analysis.lint import cli as lint_cli
from .attacks import (
    ClflushFreeAttack,
    DoubleSidedClflushAttack,
    SingleSidedClflushAttack,
    build_eviction_set,
    identify_replacement_policy,
)
from .core import AnvilConfig, AnvilModule
from .errors import ReproError
from .presets import small_machine
from .runner import Job, ResultCache, SweepRunner, derive_seed
from .sim.epoch import double_refresh_normalized_time, run_epoch_cell
from .units import MB
from .workloads import SPEC2006_INT, spec_profile

ATTACKS = {
    "single-sided": SingleSidedClflushAttack,
    "double-sided": DoubleSidedClflushAttack,
    "clflush-free": ClflushFreeAttack,
}

DEMO_ANVIL = AnvilConfig(
    llc_miss_threshold=3_300, tc_ms=1.0, ts_ms=1.0,
    sampling_rate_hz=50_000, assumed_flip_accesses=30_000,
)


def _sweep_parent() -> argparse.ArgumentParser:
    """The shared execution flags of every sweep-running subcommand.

    One parent parser keeps ``defense-grid``/``spec-overhead`` (and any
    future sweep command) flag-compatible with each other and with the
    ``REPRO_JOBS`` environment knob.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("sweep execution")
    group.add_argument("--jobs", type=int, default=None,
                       help="worker processes for the sweep (0 = one per "
                            "CPU; default: $REPRO_JOBS or serial)")
    group.add_argument("--seed", type=int, default=0,
                       help="root seed; per-cell seeds derive from it")
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ANVIL (ASPLOS 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sweep_parent = _sweep_parent()

    attack = sub.add_parser("attack", help="run a rowhammer attack")
    attack.add_argument("--type", choices=sorted(ATTACKS), default="double-sided")
    attack.add_argument("--ms", type=float, default=30.0,
                        help="machine-time budget in milliseconds")
    attack.add_argument("--threshold", type=int, default=30_000,
                        help="weakest-cell flip threshold (disturbance units)")
    attack.add_argument("--anvil", action="store_true",
                        help="install ANVIL before attacking")
    attack.add_argument("--refresh-scale", type=float, default=1.0)
    attack.add_argument("--no-clflush", action="store_true",
                        help="ban the CLFLUSH instruction")
    attack.add_argument("--seed", type=int, default=0)

    sub.add_parser("defense-grid", help="mitigation x attack matrix",
                   parents=[sweep_parent])

    overhead = sub.add_parser("spec-overhead", help="Figure 3 / Table 4 study",
                              parents=[sweep_parent])
    overhead.add_argument("--seconds", type=float, default=20.0)

    cache = sub.add_parser(
        "cache", help="scrub or clear the sweep result cache")
    cache.add_argument("action", choices=("verify", "clear"),
                       help="verify: checksum-scrub every entry and "
                            "quarantine corrupt ones; clear: delete all")
    cache.add_argument("--dir", default="benchmarks/results/.cache",
                       help="cache directory (default: the bench harness "
                            "cache, benchmarks/results/.cache)")
    cache.add_argument("--no-repair", action="store_true",
                       help="report corrupt entries without quarantining")

    lint = sub.add_parser(
        "lint",
        help="determinism & engine-equivalence static analysis (CI gate)")
    lint_cli.add_arguments(lint)

    probe = sub.add_parser("probe-policy",
                           help="reverse-engineer the LLC replacement policy")
    probe.add_argument("--rounds", type=int, default=30)

    sub.add_parser("info", help="print the simulated machine configuration")
    return parser


# -- commands -------------------------------------------------------------------------


def _cmd_attack(args: argparse.Namespace) -> int:
    machine = small_machine(
        threshold_min=args.threshold,
        refresh_scale=args.refresh_scale,
        clflush_allowed=not args.no_clflush,
        seed=args.seed,
    )
    anvil = None
    if args.anvil:
        anvil = AnvilModule(machine, DEMO_ANVIL)
        anvil.install()
    attack = ATTACKS[args.type](buffer_bytes=16 * MB, seed=args.seed)
    result = attack.run(machine, max_ms=args.ms, stop_on_flip=anvil is None)
    print(f"attack          : {result.name}")
    print(f"machine time    : {result.elapsed_ms:.2f} ms")
    print(f"iterations      : {result.iterations:,}")
    print(f"bit flips       : {result.flips}")
    if result.time_to_first_flip_ms is not None:
        print(f"first flip      : {result.time_to_first_flip_ms:.2f} ms "
              f"after {result.min_row_accesses:,} row accesses")
    if anvil is not None:
        report = anvil.report()
        print(f"ANVIL detections: {report.detections} "
              f"(first at {report.first_detection_ms} ms, "
              f"{report.selective_refreshes} refreshes)")
    return 0 if (result.flips == 0) == bool(args.anvil) else 1


#: The defense-grid axes (module-level so grid cells are pool-importable).
GRID_DEFENSES = ("none", "double-refresh", "clflush-ban", "pagemap-restricted",
                 "para", "trr", "armor", "anvil")
GRID_ATTACKS = (("double-sided", "CLFLUSH double-sided"),
                ("clflush-free", "CLFLUSH-free"))


def run_defense_grid_cell(defense: str, attack: str) -> str:
    """One (defense x attack) matrix cell; the grid sweep's job body.

    Module-level and addressed by ``ATTACKS`` key so the cell is
    importable by process-pool workers.  The demo machine
    is fully deterministic at these settings — no seed is taken, so the
    sweep runs the cell with ``pass_seed=False``.
    """
    from .defenses import Armor, Para, TargetedRowRefresh
    from .errors import ClflushRestrictedError, PagemapRestrictedError

    kwargs = {"threshold_min": 30_000}
    if defense == "double-refresh":
        kwargs["refresh_scale"] = 2.0
    elif defense == "clflush-ban":
        kwargs["clflush_allowed"] = False
    elif defense == "pagemap-restricted":
        kwargs["pagemap_restricted"] = True
    machine = small_machine(**kwargs)
    if defense == "para":
        Para(probability=0.002).install(machine)
    elif defense == "trr":
        TargetedRowRefresh(activation_threshold=1_000).install(machine)
    elif defense == "armor":
        Armor(hot_threshold=1_000).install(machine)
    anvil = None
    if defense == "anvil":
        anvil = AnvilModule(machine, DEMO_ANVIL)
        anvil.install()
    attack_obj = ATTACKS[attack](buffer_bytes=16 * MB)
    try:
        result = attack_obj.run(machine, max_ms=20, stop_on_flip=anvil is None)
    except (ClflushRestrictedError, PagemapRestrictedError):
        return "blocked"
    return "FLIPS" if result.flips else "protected"


def _cmd_defense_grid(args: argparse.Namespace) -> int:
    cells = [
        Job.of(
            run_defense_grid_cell,
            key=f"defense-grid/{defense}/{attack}",
            pass_seed=False,
            defense=defense,
            attack=attack,
        )
        for defense in GRID_DEFENSES
        for attack, _label in GRID_ATTACKS
    ]
    runner = SweepRunner(jobs=args.jobs, root_seed=args.seed)
    by_key = {r.key: r.value for r in runner.run(cells)}
    rows = [
        [d] + [by_key[f"defense-grid/{d}/{attack}"] for attack, _label in GRID_ATTACKS]
        for d in GRID_DEFENSES
    ]
    print(format_table(
        ["defense"] + [label for _attack, label in GRID_ATTACKS],
        rows,
        title="defense grid (demo machine, 30K-unit weak cells)",
    ))
    return 0


def _cmd_spec_overhead(args: argparse.Namespace) -> int:
    cells = [
        Job.of(
            run_epoch_cell,
            key=f"spec-overhead/{name}",
            seed=derive_seed(args.seed, f"spec-overhead/{name}"),
            benchmark=name,
            horizon_s=args.seconds,
        )
        for name in SPEC2006_INT
    ]
    runner = SweepRunner(jobs=args.jobs, root_seed=args.seed)
    by_key = {r.key: r.value for r in runner.run(cells)}
    rows = []
    for name in SPEC2006_INT:
        run = by_key[f"spec-overhead/{name}"]
        rows.append([
            name,
            f"{run.normalized_time:.4f}",
            f"{double_refresh_normalized_time(spec_profile(name)):.4f}",
            f"{run.fp_refreshes_per_sec:.2f}",
            f"{run.trigger_fraction:.0%}",
        ])
    print(format_table(
        ["benchmark", "ANVIL time", "double-refresh time",
         "FP refreshes/s", "stage-1 trigger"],
        rows,
        title=f"SPEC2006 int, {args.seconds:.0f}s horizon "
              "(normalized to unprotected @64 ms)",
    ))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.dir)
    if args.action == "clear":
        print(f"removed {cache.clear()} cache entries from {args.dir}")
        return 0
    report = cache.verify(repair=not args.no_repair)
    print(f"cache scrub of {report['directory']}")
    print(f"  entries checked : {report['checked']}")
    print(f"  intact          : {report['ok']}")
    print(f"  corrupt         : {len(report['corrupt'])}")
    print(f"  quarantined     : {report['quarantined']}")
    for key in report["corrupt"]:
        print(f"    {key}")
    # Corruption is a finding, not a success: a nonzero exit lets CI gate
    # on a clean cache even though the entries were quarantined.
    return 1 if report["corrupt"] else 0


def _cmd_probe_policy(args: argparse.Namespace) -> int:
    machine = small_machine()
    base = machine.memory.vm.mmap(8 * MB)
    target = base + 64
    eviction_set = build_eviction_set(machine.memory, target, base, 8 * MB)
    result = identify_replacement_policy(
        machine, [target] + eviction_set, rounds=args.rounds
    )
    print(f"observed miss fraction: {result.observed_miss_fraction:.2f} "
          f"over {result.accesses} probe accesses")
    for name, score in result.ranking():
        marker = "  <-- best match" if name == result.best else ""
        print(f"  {name:<10} {score:6.1%}{marker}")
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    machine = small_machine()
    memory = machine.memory
    dram = memory.controller.config
    llc = memory.hierarchy.llc.config
    print("simulated machine (demo scale)")
    print(f"  CPU             : {machine.clock.freq_hz / 1e9:.1f} GHz")
    print(f"  LLC             : {llc.size_bytes // 1024} KB, {llc.ways}-way, "
          f"{llc.slices} slices, {llc.policy}")
    print(f"  DRAM            : {dram.capacity_bytes // MB} MB, "
          f"{dram.ranks} rank(s) x {dram.banks_per_rank} banks x "
          f"{dram.rows_per_bank} rows x {dram.row_bytes} B")
    print(f"  retention       : {dram.timings.retention_ms} ms "
          f"(tREFI {dram.timings.trefi_ns} ns, tRFC {dram.timings.trfc_ns} ns)")
    print(f"  weakest cell    : {dram.disturbance.threshold_min:,} units")
    print("paper-scale machine: repro.presets.paper_machine() "
          "(4 GB, 220K-unit weak cells)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "attack": _cmd_attack,
        "defense-grid": _cmd_defense_grid,
        "spec-overhead": _cmd_spec_overhead,
        "cache": _cmd_cache,
        "lint": lint_cli.run,
        "probe-policy": _cmd_probe_policy,
        "info": _cmd_info,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
