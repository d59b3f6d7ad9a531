"""Command-line front-end.

Two subcommands:

  run     build machines, execute a scenario, and emit a report
  verify  randomized sweep checking the full translation path against the
          software reference walker

Exit codes (stable contract):
  0  success
  1  verify found a mismatch
  2  usage error (unknown scenario, bad flags)
  3  unreadable or invalid configuration / input file, a mapping to a
     frame nothing backs, or rules that overflow the context cache
  4  a trace access faulted under the abort policy
  5  a scenario's own assertions failed
"""

import argparse
import csv
import io
import os
import random
import sys

from . import addressing, machine, scenarios
from .addressing import TranslationFault
from .coherence import FabricGap
from .lightv import ContextCapacityError, parse_rules
from .machine import (
    ConfigError,
    Machine,
    MachineConfig,
    TraceAbort,
    load_config,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_FAULT = 4
EXIT_ASSERTION = 5

CSV_COLUMNS = ("scenario", "mode", "seed", "scale") + machine.STATS_COLUMNS

SCENARIOS = ("histogram", "demand-paging", "isolation", "migration", "custom-trace")

CONFIG_ENV = "LIGHTV_SIM_CONFIG"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lightv-sim",
        description="Event-driven SoC memory-subsystem simulator with a"
        " snoop-level translation rewriter",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario and write its report")
    run.add_argument("--config", default=None, help="machine config JSON path")
    run.add_argument("--scenario", required=True, choices=SCENARIOS)
    run.add_argument(
        "--mode",
        default="all",
        choices=("baseline", "passive", "active", "all"),
        help="which machine modes to run (histogram / custom-trace)",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--scale", type=float, default=0.01,
                     help="histogram image scale factor (default 1/100)")
    run.add_argument("--format", default="text", choices=("text", "csv"))
    run.add_argument("--out", default=None, help="report path (default stdout)")
    run.add_argument("--trace", default=None, help="trace file for custom-trace")
    run.add_argument("--mappings", default=None, help="mapping file for custom-trace")
    run.add_argument("--rules", default=None,
                     help="rewrite-rule file for custom-trace active mode")
    run.add_argument("--export-trace", default=None,
                     help="also write the generated scenario trace for replay")

    verify = sub.add_parser(
        "verify", help="randomized translation-oracle equivalence sweep"
    )
    verify.add_argument("--config", default=None)
    verify.add_argument("--configs", type=int, default=20,
                        help="number of random table configurations")
    verify.add_argument("--vas", type=int, default=200,
                        help="virtual addresses checked per configuration")
    verify.add_argument("--seed", type=int, default=0)
    return parser


def _load_machine_config(path) -> MachineConfig:
    path = path or os.environ.get(CONFIG_ENV)
    if path is None:
        return MachineConfig()
    return load_config(path)


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _render_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _render(args, rows, text_body: str) -> str:
    if args.format == "csv":
        return _render_csv(rows)
    return text_body + "\n"


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    try:
        config = _load_machine_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.scenario == "custom-trace" and not (args.trace and args.mappings):
        print("error: custom-trace needs --trace and --mappings", file=sys.stderr)
        return EXIT_USAGE

    modes = scenarios.MODES if args.mode == "all" else (args.mode,)
    try:
        if args.scenario == "histogram":
            if "baseline" not in modes:
                modes = ("baseline",) + modes
            workload = scenarios.histogram_workload(scale=args.scale, seed=args.seed)
            trace = scenarios.gen_histogram_trace(workload)
            if args.export_trace:
                with open(args.export_trace, "w") as f:
                    f.write(machine.format_trace(trace))
            result = scenarios.run_overhead_experiment(config, workload, modes, trace)
        elif args.scenario == "demand-paging":
            result = scenarios.run_demand_paging_hazard(config)
        elif args.scenario == "isolation":
            result = scenarios.run_isolation_hazard(config)
        elif args.scenario == "migration":
            result = scenarios.run_migration(scenarios.MigrationPlan(seed=args.seed), config)
        else:
            result = scenarios.run_custom_trace(config, *_read_custom_trace(args), modes)
    except TraceAbort as exc:
        print(f"fault abort: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except (ConfigError, ValueError, OSError, FabricGap, ContextCapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    ok = result.ok or (args.scenario == "histogram" and args.mode in ("baseline", "passive"))
    rows = scenarios.csv_rows(args.scenario, result.stats, args.seed, args.scale)
    _emit(args, _render(args, rows, result.text()))
    return EXIT_OK if ok else EXIT_ASSERTION


def _read_custom_trace(args):
    """(mappings, rules, trace) from the files custom-trace names."""
    with open(args.trace) as f:
        trace = machine.parse_trace(f.read())
    with open(args.mappings) as f:
        mappings = addressing.parse_mappings(f.read())
    rules = []
    if args.rules:
        with open(args.rules) as f:
            rules = parse_rules(f.read())
    return mappings, rules, trace


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    """Sweep random page tables and compare the full cached/coherent
    translation path against the direct software walker, exactly."""
    try:
        config = _load_machine_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rng = random.Random(args.seed)
    checked = 0
    for c in range(args.configs):
        cfg_seed = rng.randrange(1 << 30)
        crng = random.Random(cfg_seed)
        cfg = config.with_mode("absent" if c % 2 == 0 else "passive")
        cfg.tlb_entries = crng.choice((0, 8, 64))
        cfg.cache_ptes = crng.choice((False, True))
        m = Machine(cfg)
        pages = sorted(
            crng.sample(range(1 << (addressing.VA_BITS - addressing.PAGE_SHIFT)),
                        crng.randint(8, 40))
        )
        mappings = [
            (page << addressing.PAGE_SHIFT, m.allocator.alloc(),
             crng.choice((0, addressing.ATTR_WRITABLE)))
            for page in pages
        ]
        space = m.register_space(0, mappings)
        for _ in range(args.vas):
            if crng.random() < 0.6:
                va = (crng.choice(pages) << addressing.PAGE_SHIFT) | crng.randrange(
                    addressing.PAGE_SIZE
                )
            else:
                va = crng.randrange(1 << addressing.VA_BITS)
            expected = _walk_outcome(
                lambda: addressing.reference_walk(space, va, m.dram)
            )
            got = _walk_outcome(lambda: m.mmu.translate(0, va))
            checked += 1
            if expected != got:
                print(
                    f"MISMATCH: config seed {cfg_seed}, va {va:#x},"
                    f" expected {expected}, got {got}"
                )
                print(f"checked {checked}, failed 1")
                return EXIT_VERIFY_FAIL
    print(f"checked {checked}, failed 0")
    return EXIT_OK


def _walk_outcome(fn):
    try:
        return f"pa:{fn():#x}"
    except TranslationFault as fault:
        return f"fault:L{fault.level}"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
