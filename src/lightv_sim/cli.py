"""Command-line front-end.

Two subcommands:

  run     build machines, execute a scenario, and emit a report
  verify  randomized sweep checking the full translation path against the
          software reference walker

Exit codes (stable contract); `main` alone turns an exception into one:
  0  success
  1  verify found a mismatch
  2  usage error (unknown scenario, bad flags, a flag the scenario never
     reads: --export-trace outside histogram, or --trace, --mappings or
     --rules outside custom-trace, or a negative verify --configs or
     --vas), named on one `error:` line before any file is opened
  3  bad input, reported on one `error:` line: an unreadable or invalid
     config (not UTF-8, not JSON, nested too deeply, more cache sets than
     `machine.MAX_CACHE_SETS`, a negative DRAM base) or input file, an
     unwritable --out or --export-trace, a mapping to a frame nothing
     backs, too few DRAM frames, rules that overflow the context cache,
     or a --scale that is not finite and > 0 or gives an empty histogram
     image or one of more than `machine.MAX_MAPPED_PAGES` pages, or a
     mapping file with more mappings than that (named at the first
     line past the cap, where the read stops)
  4  a trace access faulted under the abort policy
  5  a check of the scenario failed: its `scenarios.Report.ok` verdict, the
     conjunction of its named checks, alone decides, and stderr names each
     failed check on a `check failed: <name>` line, in check order

custom-trace reads the mapping and rule files whole, and streams the trace
file through `run_modes` as it runs: a bad trace line is reported when the
run reaches the chunk that holds it, so a fault that aborts an earlier
chunk comes first.

`run` opens --out for appending once the config and flags are checked, so
an unwritable report path fails before the scenario runs; the report
replaces the file's content when the run ends.
"""

import argparse
import csv
import functools
import io
import math
import os
import random
import sys
from itertools import chain, islice, repeat
from operator import itemgetter

from . import addressing, machine, scenarios
from .addressing import TranslationFault
from .coherence import FabricGap
from .lightv import ContextCapacityError, parse_rules
from .machine import (
    AllocatorExhausted,
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

# The `run` flags only one scenario reads, and that scenario.
SCENARIO_FLAGS = {
    "export_trace": "histogram",
    "trace": "custom-trace",
    "mappings": "custom-trace",
    "rules": "custom-trace",
}


@functools.cache
def _build_parser():
    """The one parser of this process: `parse_args` keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="lightv-sim",
        description="Trace-driven SoC memory-subsystem simulator with a"
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
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    for dest, scenario in SCENARIO_FLAGS.items():
        if getattr(args, dest) is not None and args.scenario != scenario:
            flag = "--" + dest.replace("_", "-")
            print(f"error: {flag} is read by --scenario {scenario} only", file=sys.stderr)
            return EXIT_USAGE
    if not (math.isfinite(args.scale) and args.scale > 0):
        raise ConfigError(f"--scale must be finite and > 0, got {args.scale}")
    config = _load_machine_config(args.config)
    if args.scenario == "custom-trace" and not (args.trace and args.mappings):
        print("error: custom-trace needs --trace and --mappings", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        open(args.out, "a").close()  # an unwritable path fails now, not after the run

    modes = scenarios.MODES if args.mode == "all" else (args.mode,)
    if args.scenario == "histogram":
        if "baseline" not in modes:
            modes = ("baseline",) + modes
        workload = scenarios.histogram_workload(scale=args.scale, seed=args.seed)
        if workload.image_bytes == 0:
            raise ConfigError(f"--scale {args.scale} gives an empty histogram image")
        trace = scenarios.iter_histogram_trace(workload)
        if args.export_trace:
            with open(args.export_trace, "w") as f:
                result = scenarios.run_overhead_experiment(
                    config, workload, modes, _exporting(trace, f)
                )
        else:
            result = scenarios.run_overhead_experiment(config, workload, modes, trace)
    elif args.scenario == "demand-paging":
        result = scenarios.run_demand_paging_hazard(config)
    elif args.scenario == "isolation":
        result = scenarios.run_isolation_hazard(config)
    elif args.scenario == "migration":
        result = scenarios.run_migration(scenarios.MigrationPlan(seed=args.seed), config)
    else:
        # The trace streams from its file as the modes run; a missing
        # one still fails before the other files are read.
        with _open_records(args.trace) as f:
            mappings = _read(args.mappings, addressing.parse_mappings)
            rules = _read(args.rules, parse_rules) if args.rules else []
            trace = machine.iter_trace(f)
            result = scenarios.run_custom_trace(config, mappings, rules, trace, modes)

    if args.format == "csv":
        rows = scenarios.csv_rows(args.scenario, result.stats, args.seed, args.scale)
        _emit(args, _render_csv(rows))
    else:
        _emit(args, result.text() + "\n")
    for name, held in result.checks.items():
        if not held:
            print(f"check failed: {name}", file=sys.stderr)
    return EXIT_OK if result.ok else EXIT_ASSERTION


def _exporting(trace, f):
    """Pass the accesses of `trace` through, writing them to `f` as they
    are read, `scenarios.CHUNK` at a time: a chunk's lines are one `%` of
    its accesses' joined `machine.LINE_TEMPLATES` over their fields, and
    one `f.write`, so no Python code runs per access."""
    accesses = iter(trace)
    op, templates = itemgetter(1), machine.LINE_TEMPLATES

    def write_chunk(chunk):
        template = "".join(map(templates.get, map(op, chunk), repeat(machine.READ_TEMPLATE)))
        f.write(template % tuple(chain.from_iterable(chunk)))
        return chunk

    chunks = iter(lambda: list(islice(accesses, scenarios.CHUNK)), [])
    return chain.from_iterable(map(write_chunk, chunks))


def _open_records(path):
    """A record file whose undecodable bytes `addressing.read_records`
    reports with their line."""
    return open(path, errors="surrogateescape")


def _read(path, parse):
    with _open_records(path) as f:
        return parse(f)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    """Sweep random page tables and compare the full cached/coherent
    translation path against the direct software walker, exactly."""
    for flag, count in (("--configs", args.configs), ("--vas", args.vas)):
        if count < 0:
            print(f"error: {flag} must be >= 0, got {count}", file=sys.stderr)
            return EXIT_USAGE
    config = _load_machine_config(args.config)
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
    """Run one command.  This is the only place an exception becomes an
    exit code: a fault under the abort policy exits 4, and bad input exits
    3 (a ValueError, such as a ConfigError, MappingError, RuleError or
    TraceError; an OSError; or a machine that cannot hold the input)."""
    args = _build_parser().parse_args(argv)
    try:
        return cmd_run(args) if args.command == "run" else cmd_verify(args)
    except TraceAbort as exc:
        print(f"fault abort: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except (ValueError, OSError, FabricGap, ContextCapacityError, AllocatorExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
