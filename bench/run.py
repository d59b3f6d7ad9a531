"""Benchmark of the lightv-sim simulator's host time and memory.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With `--trace 0` it measures the end-to-end metrics untraced; with
`--trace 1` it runs the same inputs untraced and then traced, and reports
the per-layer metrics and the tracing overhead.  Every run first replays
the stored golden input, then checks every output it produces.  Human-
readable lines come first; the last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GOLDENS = HERE / "goldens.json"


if not (SRC / "lightv_sim" / "__init__.py").is_file():
    sys.exit(f"error: no package source under {SRC}")
sys.path.insert(0, str(SRC))

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lightv_sim import scenarios  # noqa: E402


# --- per-layer metrics ------------------------------------------------------
#
# Each entry: metric name -> (span, statistic).  A `.count` is calls per run
# of the workload, `.ns`/`.ms` the inclusive time per call, `self_*` the
# self time per call, `*_per_access` per trace access.  0 means the layer
# was not entered on this workload.
SPAN_METRICS = {
    "mmu.Tlb.lookup.ns": ("mmu.Tlb.lookup", "ns"),
    "coherence.Cache.probe.ns": ("coherence.Cache.probe", "ns"),
    "mmu.translate.self_ns": ("mmu.Mmu.translate", "self_ns"),
    "machine.run_trace.self_ns_per_access": ("machine.Machine.run_trace", "self_ns_per_access"),
    "scenarios.gen_histogram_trace.ns_per_access": ("scenarios.gen_histogram_trace", "ns_per_access"),
    "machine.trace_digest.ns_per_access": ("machine.trace_digest", "ns_per_access"),
    "mmu.hardware_walk.count": ("mmu.Mmu.hardware_walk", "count"),
    "mmu.hardware_walk.ns": ("mmu.Mmu.hardware_walk", "ns"),
    "mmu.hardware_walk.self_ns": ("mmu.Mmu.hardware_walk", "self_ns"),
    "coherence.walk_read.ns": ("coherence.CoherentInterconnect.walk_read", "ns"),
    "coherence.walk_read.self_ns": ("coherence.CoherentInterconnect.walk_read", "self_ns"),
    "coherence.read_byte.ns": ("coherence.CoherentInterconnect.read_byte", "ns"),
    "coherence.read_byte.self_ns": ("coherence.CoherentInterconnect.read_byte", "self_ns"),
    "coherence.write_byte.ns": ("coherence.CoherentInterconnect.write_byte", "ns"),
    "coherence.write_byte.self_ns": ("coherence.CoherentInterconnect.write_byte", "self_ns"),
    "machine.Dram.read_line.count": ("machine.Dram.read_line", "count"),
    "machine.Dram.read_line.ns": ("machine.Dram.read_line", "ns"),
    "lightv.handle_snoop.count": ("lightv.LightV.handle_snoop", "count"),
    "lightv.handle_snoop.ns": ("lightv.LightV.handle_snoop", "ns"),
    "lightv.handle_snoop.self_ns": ("lightv.LightV.handle_snoop", "self_ns"),
    "lightv.path_check.ns": ("lightv.LightV.path_check", "ns"),
    "lightv.manipulate_line.ns": ("lightv.LightV.manipulate_line", "ns"),
    "machine.Dram.write_line.count": ("machine.Dram.write_line", "count"),
    "machine.Dram.write_line.ns": ("machine.Dram.write_line", "ns"),
    "lightv.activate.ms": ("lightv.LightV.activate", "ms"),
    "addressing.build_tables.ms": ("addressing.build_tables", "ms"),
    "addressing.reference_walk.count": ("addressing.reference_walk", "count"),
    "machine.Machine.init.ms": ("machine.Machine.init", "ms"),
    "machine.register_space.ms": ("machine.Machine.register_space", "ms"),
    "machine.Dram.write_bytes.ms": ("machine.Dram.write_bytes", "ms"),
    "cli.main.self_ms": ("cli.main", "self_ms"),
}
UNITS = {"count": "count", "ns": "ns", "self_ns": "ns", "ms": "ms", "self_ms": "ms",
         "ns_per_access": "ns", "self_ns_per_access": "ns"}
# Simulated per-layer metrics: the machines' own counters, summed over the
# machines of one run, and the overheads between modes.
COUNTER_METRICS = ("coherence.snoops_issued", "coherence.snoops_acked",
                   "coherence.writebacks", "machine.dram_reads", "machine.dram_writes",
                   "lightv.lines_manipulated", "lightv.context_lost", "lightv.data_captures")
RATIO_METRICS = ("mmu.tlb_hit_ratio", "lightv.ack_ratio", "coherence.data_hit_ratio",
                 "coherence.walk_hit_ratio")
OTHER_METRICS = {
    "scenarios.trace_bytes_per_access": "B",
    "active_overhead_pct": "%",
    "passive_overhead_pct": "%",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> dict:
    units = {name: UNITS[stat] for name, (_, stat) in SPAN_METRICS.items()}
    units.update({name: "count" for name in COUNTER_METRICS})
    units.update({name: "ratio" for name in RATIO_METRICS})
    units.update(OTHER_METRICS)
    return units


END_TO_END_UNITS = {"accesses_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


FABRIC_COUNTERS = ("data_hits", "data_misses", "walk_reads", "walk_hits",
                   "snoops_issued", "snoops_acked", "writebacks")
AGENT_COUNTERS = ("lines_manipulated", "context_lost", "data_captures")


def machine_counters(machines) -> dict:
    """Lifetime counters of the given machines, summed."""
    out = dict.fromkeys(FABRIC_COUNTERS + AGENT_COUNTERS + ("dram_reads", "dram_writes"), 0)
    for m in machines:
        for name in FABRIC_COUNTERS:
            out[name] += getattr(m.counters, name)
        if m.lightv is not None:
            for name in AGENT_COUNTERS:
                out[name] += getattr(m.lightv, name)
        out["dram_reads"] += m.dram.reads
        out["dram_writes"] += m.dram.writes
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans, counters, outcomes, trace_bytes, overhead) -> dict:
    runs = len(outcomes)
    trace_len = outcomes[0].trace_len
    totals = spans.totals()
    values = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        count, incl, own = totals.get(span, (0, 0, 0))
        values[metric] = {
            "count": count / runs,
            "ns": _ratio(incl, count),
            "self_ns": _ratio(own, count),
            "ms": _ratio(incl, count) / 1e6,
            "self_ms": _ratio(own, count) / 1e6,
            "ns_per_access": _ratio(incl, count * trace_len),
            "self_ns_per_access": _ratio(own, count * trace_len),
        }[stat]
    for name in COUNTER_METRICS:
        values[name] = counters[name.split(".", 1)[1]] / runs
    translates = totals.get("mmu.Mmu.translate", (0,))[0]
    walks = totals.get("mmu.Mmu.hardware_walk", (0,))[0]
    values["mmu.tlb_hit_ratio"] = _ratio(translates - walks, translates)
    values["lightv.ack_ratio"] = _ratio(counters["snoops_acked"], counters["snoops_issued"])
    values["coherence.data_hit_ratio"] = _ratio(
        counters["data_hits"], counters["data_hits"] + counters["data_misses"])
    values["coherence.walk_hit_ratio"] = _ratio(counters["walk_hits"], counters["walk_reads"])
    values["scenarios.trace_bytes_per_access"] = trace_bytes
    values["active_overhead_pct"] = workloads.overhead_pct(outcomes[0].stats, "active")
    values["passive_overhead_pct"] = workloads.overhead_pct(outcomes[0].stats, "passive")
    values["trace.overhead_s"], values["trace.overhead_pct"] = overhead
    return values


def trace_bytes_per_access(seed: int) -> float:
    """Memory held by the histogram trace list, per access (list, tuples and
    every distinct element object)."""
    trace = scenarios.gen_histogram_trace(
        scenarios.histogram_workload(scale=workloads.Histogram.scale, seed=seed))
    seen = set()
    total = sys.getsizeof(trace)
    for entry in trace:
        total += sys.getsizeof(entry)
        for item in entry:
            if id(item) not in seen:
                seen.add(id(item))
                total += sys.getsizeof(item)
    return total / len(trace)


# --- the run loop -------------------------------------------------------------


class Loop:
    """Runs one input after another and checks every output.

    Runs of one input must give identical simulated statistics, and those
    of the golden input must equal the stored golden.
    """

    def __init__(self, workload, checks):
        self.workload = workload
        self.checks = checks
        self.speed = hostspeed.HostSpeed()
        self.golden = json.loads(GOLDENS.read_text())[workload.name]
        self.reference = None  # first outcome on the current input
        self._seed = self._inputs = None

    def run(self, seed: int):
        if seed != self._seed:
            self._seed, self._inputs, self.reference = seed, self.workload.inputs(seed), None
        outcome = self.workload.run(self._inputs, self.checks)
        label = f"{self.workload.name} seed {seed}"
        if seed == self.golden["seed"]:
            self.checks.check(outcome.stats == self.golden["stats"],
                              f"{label}: stats differ from golden")
        if self.reference is None:
            self.reference = outcome
        else:
            self.checks.check(outcome.stats == self.reference.stats,
                              f"{label}: stats differ between runs")
        return outcome

    def timed(self, seconds: float, seed: int, clock):
        """Repeat the input of `seed` until `seconds` have passed (at least
        once), timing the host speed probe before each run.  Returns
        [(host seconds, accesses, set-up seconds)] per run."""
        samples = []
        deadline = time.perf_counter() + seconds
        while True:
            self.speed.measure()
            outcome = self.run(seed)
            samples.append((outcome.wall_s, outcome.accesses, clock.take()[0]))
            if time.perf_counter() >= deadline:
                return samples


def run_untraced(name: str, seed: int, seconds: float):
    """Warm up on the golden input, then run the loop untraced.

    Returns (loop, checks, samples).
    """
    checks = workloads.Checks()
    clock = tracer.SetupClock()
    with tracer.patched(clock.replacements()):
        loop = Loop(workloads.WORKLOADS[name], checks)
        loop.run(loop.golden["seed"])
        clock.take()
        samples = loop.timed(seconds, seed, clock)
    return loop, checks, samples


def measure(name: str, seed: int, seconds: float):
    """Untraced run: (checks, end-to-end metrics, extra report lines).

    Host times are scaled to the reference host of `hostspeed`; the raw
    values are in the report lines.
    """
    loop, checks, samples = run_untraced(name, seed, seconds)
    throughput = statistics.median(a / w for w, a, _ in samples)
    setup = statistics.median(s for _, _, s in samples)
    factor = loop.speed.factor
    metrics = {
        "accesses_per_s": throughput * factor,
        "setup_s": setup / factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    stats = loop.reference.stats
    extra = {
        "host_slowdown": (factor, "x"),
        "accesses_per_s, raw": (throughput, "1/s"),
        "setup_s, raw": (setup, "s"),
        "checks_failed_ratio": (checks.failed / checks.attempted, "ratio"),
        "active_overhead_pct": (workloads.overhead_pct(stats, "active"), "%"),
        "passive_overhead_pct": (workloads.overhead_pct(stats, "passive"), "%"),
    }
    if name == "migration":
        extra["migrations_per_s"] = (throughput * factor / workloads.Migration.ACCESSES, "1/s")
    report = [f"{len(samples)} runs measured"]
    report += [f"  {k:<44} {v:.6g} {u}" for k, (v, u) in extra.items()]
    return checks, metrics, report


def measure_traced(name: str, seed: int, seconds: float):
    """Traced run: the same input untraced, then traced.

    Returns (checks, per-layer metrics, extra report lines).
    """
    loop, checks, samples = run_untraced(name, seed, seconds / 4)
    wall_untraced = sum(w for w, _, _ in samples)

    # Wrappers go in before any machine is built: a machine binds its
    # agent's `handle_snoop` when it registers the agent.
    found = tracer.targets()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in found]
    spans = tracer.Tracer()
    clock = tracer.SetupClock(keep_machines=True)
    with tracer.patched(clock.replacements()), tracer.patched(spans.replacements(found)):
        traced = [loop.run(seed) for _ in samples]
    machines = clock.take()[1]
    checks.check(
        all(vars(owner)[attr] is raw for owner, attr, raw in originals),
        "a wrapper is still installed after the traced run",
    )
    checks.check(
        spans.roots > 0 and not spans.root_mismatches,
        f"root spans whose self times do not sum to their wall time: {spans.root_mismatches[:3]}",
    )
    wall_traced = sum(o.wall_s for o in traced)
    overhead = ((wall_traced - wall_untraced) / len(traced),
                (wall_traced / wall_untraced - 1) * 100)
    trace_bytes = trace_bytes_per_access(seed) if name == "histogram" else 0.0
    metrics = per_layer_metrics(spans, machine_counters(machines), traced, trace_bytes, overhead)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"spans-{name}-seed{seed}.json"
    out.write_text(json.dumps({"workload": name, "seed": seed, "runs": len(traced),
                               "root_spans": spans.roots, "spans": spans.to_json()},
                              indent=1) + "\n")
    report = [f"{len(traced)} runs traced, spans written to {out.relative_to(ROOT)}",
              f"  root spans checked: {spans.roots}, timer resolution {spans.resolution_ns} ns"]
    return checks, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.trace:
        checks, metrics, report = measure_traced(args.workload, args.seed, args.seconds)
        units = per_layer_units()
    else:
        checks, metrics, report = measure(args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in report:
        print(line)
    for key, value in metrics.items():
        print(f"  {key:<44} {value:.6g} {units[key]}")
    print(f"checks: {checks.attempted} attempted, {checks.failed} failed")
    for failure in checks.failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
