"""The benchmark's workloads: input generators, runners and output checks.

Every workload is a closed loop of batch runs: one client, one thread, each
run starting after the last one ends, all on the same input.  The input
comes only from the seed; the package receives the generated input and is
driven through its public entry points, the way a user drives it.
"""

import contextlib
import csv
import io
import random
import time
from dataclasses import dataclass

from lightv_sim import cli
from lightv_sim.addressing import (
    ATTR_CACHEABLE,
    ATTR_WRITABLE,
    ENTRIES_PER_TABLE,
    PAGE_SHIFT,
    PAGE_SIZE,
)
from lightv_sim.lightv import RewriteRule
from lightv_sim.machine import Machine, MachineConfig

MODES = ("baseline", "passive", "active")
MACHINE_MODE = {"baseline": "absent", "passive": "passive", "active": "active"}

# Simulated statistics compared between modes, runs and goldens.  They are
# the CSV columns the CLI prints after its four label columns.
STATS = cli.CSV_COLUMNS[4:]
# Counters that depend on whether an agent is on the fabric at all; every
# other statistic must be identical in baseline and passive mode.
AGENT_ONLY = ("snoops_issued",)


class Checks:
    """Tally of output checks; each failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Outcome:
    """What one run of a workload did, as the program reported it."""

    wall_s: float  # host time inside the program, set-up included
    stats: dict  # mode (migration: seed) -> {statistic: value}
    trace_len: int  # trace accesses per entry of `stats`

    @property
    def accesses(self) -> int:
        return self.trace_len * len(self.stats)


def check_modes(stats: dict, checks: Checks, label: str):
    """Seed-independent invariants between the modes of one run."""
    if "passive" in stats:
        same = all(
            stats["baseline"][k] == stats["passive"][k]
            for k in STATS
            if k not in AGENT_ONLY
        )
        checks.check(same, f"{label}: passive stats differ from baseline")
    if "active" in stats:
        checks.check(
            stats["active"]["total_cycles"] > stats["baseline"]["total_cycles"],
            f"{label}: active cycles not above baseline",
        )


def overhead_pct(stats: dict, mode: str) -> float:
    """Simulated cycles of `mode` over baseline, in percent; 0 without one."""
    if mode not in stats or "baseline" not in stats:
        return 0.0
    base = stats["baseline"]["total_cycles"]
    return (stats[mode]["total_cycles"] - base) / base * 100.0


def run_cli(argv, checks: Checks, label: str):
    """One in-process CLI call; returns (wall seconds, {mode: stats})."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
    checks.check(code == cli.EXIT_OK, f"{label}: exit code {code}")
    stats = {}
    for row in csv.DictReader(io.StringIO(out.getvalue())):
        stats[row["mode"]] = {k: int(row[k]) for k in STATS}
    return wall, stats


# ---------------------------------------------------------------------------
# histogram: the paper's default workload through the CLI
# ---------------------------------------------------------------------------


class Histogram:
    """`run --scenario histogram --mode all` at a reduced scale.

    About 99.5% of its accesses hit in both the TLB and the cache: it loads
    the hit path, trace generation, the digest and the trace list's memory,
    and leaves the walker and the LightV serve nearly idle.
    """

    name = "histogram"
    scale = 0.001

    def inputs(self, seed: int):
        return [
            "run", "--scenario", "histogram", "--mode", "all",
            "--scale", repr(self.scale), "--seed", str(seed), "--format", "csv",
        ]

    def run(self, argv, checks: Checks) -> Outcome:
        label = f"histogram seed {argv[argv.index('--seed') + 1]}"
        wall, stats = run_cli(argv, checks, label)
        checks.check(tuple(stats) == MODES, f"{label}: modes reported {tuple(stats)}")
        check_modes(stats, checks, label)
        s = stats["baseline"]
        return Outcome(wall, stats, s["data_hits"] + s["data_misses"])


# ---------------------------------------------------------------------------
# walk-storm: every access walks, half of the walks are served by LightV
# ---------------------------------------------------------------------------

WALK_STORM_ASID = 0
SLOTS = 8  # level-0 slots holding pages
RULED_SLOTS = 4  # of which this many are redirected
TABLES_PER_SLOT = 4  # level-2 tables under each slot
RUNS_PER_TABLE = 4  # page runs in each level-2 table
RUN_PAGES = 8  # pages per run; one rule per run in ruled slots
WALK_STORM_ACCESSES = 8192
WRITE_SHARE = 0.3
# Frame pools, far above the frames the package allocates for page tables
# from the bottom of the default DRAM aperture.
DATA_PFN_BASE = 0x9_0000
DATA_PFN_SPAN = 0x2_0000
REPLACEMENT_PFN_BASE = 0xC_0000
ZERO_PAGE = bytes(PAGE_SIZE)


@dataclass
class WalkStormInput:
    seed: int
    mappings: list  # (va, pfn, attrs)
    rules: list  # RewriteRule
    trace: list  # (asid, op, va, value)
    shadow: dict  # page va -> expected final bytes, written pages only
    redirect: dict  # page va -> replacement frame, for pages under a rule

    def frames(self, mode: str) -> dict:
        """Page va -> the frame its data must end up in under `mode`."""
        home = {va: pfn for va, pfn, _ in self.mappings}
        if mode == "active":
            home.update(self.redirect)
        return home


def gen_walk_storm(seed: int, accesses: int = WALK_STORM_ACCESSES) -> WalkStormInput:
    """Random reads and writes over about 1k pages in 8 level-0 slots.

    The footprint (4 MiB) is far larger than the 64-entry TLB and the
    64 KiB cache, so nearly every access walks.  Every page of a ruled slot
    belongs to a rule, which strict activation requires.
    """
    rng = random.Random(seed)
    slots = sorted(rng.sample(range(ENTRIES_PER_TABLE), SLOTS))
    ruled = set(rng.sample(slots, RULED_SLOTS))
    n_pages = SLOTS * TABLES_PER_SLOT * RUNS_PER_TABLE * RUN_PAGES
    pfns = iter(rng.sample(range(DATA_PFN_BASE, DATA_PFN_BASE + DATA_PFN_SPAN), n_pages))
    attrs = ATTR_WRITABLE | ATTR_CACHEABLE
    mappings, rules, redirect = [], [], {}
    for i0 in slots:
        for i1 in sorted(rng.sample(range(ENTRIES_PER_TABLE), TABLES_PER_SLOT)):
            starts = rng.sample(range(0, ENTRIES_PER_TABLE, RUN_PAGES), RUNS_PER_TABLE)
            for i2 in sorted(starts):
                va = (i0 << 30) | (i1 << 21) | (i2 << PAGE_SHIFT)
                for k in range(RUN_PAGES):
                    mappings.append((va + k * PAGE_SIZE, next(pfns), attrs))
                if i0 in ruled:
                    base = REPLACEMENT_PFN_BASE + len(rules) * RUN_PAGES
                    end = va + RUN_PAGES * PAGE_SIZE
                    rules.append(RewriteRule(len(rules) + 1, WALK_STORM_ASID, va, end, base))
                    for k in range(RUN_PAGES):
                        redirect[va + k * PAGE_SIZE] = base + k
    pages = [va for va, _, _ in mappings]
    shadow = {}
    trace = []
    for _ in range(accesses):
        page = rng.choice(pages)
        va = page + rng.randrange(PAGE_SIZE)
        if rng.random() < WRITE_SHARE:
            value = rng.randrange(256)
            shadow.setdefault(page, bytearray(PAGE_SIZE))[va - page] = value
            trace.append((WALK_STORM_ASID, "W", va, value))
        else:
            trace.append((WALK_STORM_ASID, "R", va, None))
    return WalkStormInput(seed, mappings, rules, trace, shadow, redirect)


class WalkStorm:
    """Drives `Machine` directly in baseline, passive and active mode.

    Loads `hardware_walk`, the fabric miss path, snoop NACK and ACK, the
    LightV serve, DRAM and activation, and bypasses the hit path.
    """

    name = "walk-storm"

    def inputs(self, seed: int) -> WalkStormInput:
        return gen_walk_storm(seed)

    def run(self, inp: WalkStormInput, checks: Checks) -> Outcome:
        label = f"walk-storm seed {inp.seed}"
        stats = {}
        wall = 0.0
        for mode in MODES:
            placement = inp.frames(mode)
            t0 = time.perf_counter()
            m = Machine(MachineConfig(mode=MACHINE_MODE[mode]))
            m.register_space(WALK_STORM_ASID, inp.mappings)
            if mode == "active":
                m.activate_rules(inp.rules)
            run = m.run_trace(inp.trace)
            m.flush_cache()
            frames = {va: m.read_frame(pfn) for va, pfn in placement.items()}
            if mode == "active":
                originals = [m.read_frame(pfn) for va, pfn, _ in inp.mappings if va in inp.redirect]
            wall += time.perf_counter() - t0
            stats[mode] = run.to_dict()
            wrong = sum(
                1 for va, data in frames.items() if data != inp.shadow.get(va, ZERO_PAGE)
            )
            checks.check(wrong == 0, f"{label} {mode}: {wrong} frames differ from shadow")
            if mode == "active":
                touched = sum(1 for data in originals if data != ZERO_PAGE)
                checks.check(
                    touched == 0,
                    f"{label}: {touched} original frames of redirected pages written",
                )
        check_modes(stats, checks, label)
        return Outcome(wall, stats, len(inp.trace))


# ---------------------------------------------------------------------------
# migration: many short runs dominated by set-up and the capture window
# ---------------------------------------------------------------------------


class Migration:
    """`run --scenario migration` over a batch of consecutive seeds.

    Each migration builds a fresh machine, activates a rule, opens a capture
    window and mirrors writebacks, in fewer than 60 accesses: set-up,
    activation, `Dram.write_bytes`, LightV data capture and CLI overhead
    dominate it, and the hit path hardly matters.
    """

    name = "migration"
    BATCH = 50
    # 4 reads before the window, 24 accessor operations, 8 reads after
    ACCESSES = 36

    def inputs(self, seed: int):
        first = seed * self.BATCH
        return [
            ["run", "--scenario", "migration", "--seed", str(s), "--format", "csv"]
            for s in range(first, first + self.BATCH)
        ]

    def run(self, batch, checks: Checks) -> Outcome:
        stats = {}
        wall = 0.0
        for argv in batch:
            seed = argv[argv.index("--seed") + 1]
            label = f"migration seed {seed}"
            seconds, modes = run_cli(argv, checks, label)
            wall += seconds
            checks.check(tuple(modes) == ("active",), f"{label}: modes reported {tuple(modes)}")
            s = modes["active"]
            accesses = s["data_hits"] + s["data_misses"]
            checks.check(accesses == self.ACCESSES, f"{label}: {accesses} accesses")
            stats[seed] = s
        return Outcome(wall, stats, self.ACCESSES)


WORKLOADS = {w.name: w for w in (Histogram(), WalkStorm(), Migration())}
