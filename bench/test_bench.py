"""The benchmark's own tests: `python3 -m pytest bench` from the checkout root."""

import json
import shutil
import subprocess
import sys

import hostspeed
import run
import tracer
import workloads
from lightv_sim import cli, mmu
from lightv_sim.machine import Machine, MachineConfig

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_inputs_are_deterministic_per_seed_and_differ_across_seeds():
    for w in workloads.WORKLOADS.values():
        assert w.inputs(5) == w.inputs(5) != w.inputs(6)
    a, c = workloads.gen_walk_storm(5), workloads.gen_walk_storm(6)
    assert a.mappings != c.mappings and a.rules != c.rules and a.trace != c.trace


def test_walk_storm_layout_passes_strict_activation():
    inp = workloads.gen_walk_storm(0)
    assert len(inp.mappings) == 1024 and len(inp.rules) == 64
    assert len({va >> 30 for va, _, _ in inp.mappings}) == 8
    assert len({r.va_start >> 30 for r in inp.rules}) == 4
    assert len(inp.redirect) == 512
    m = Machine(MachineConfig(mode="active"))
    m.register_space(workloads.WALK_STORM_ASID, inp.mappings)
    m.activate_rules(inp.rules, strict=True)
    frames = [pfn for _, pfn, _ in inp.mappings] + list(inp.redirect.values())
    assert len(set(frames)) == len(frames)
    assert min(frames) >= m.allocator.next_pfn


def test_untraced_run_executes_the_original_methods():
    found = tracer.targets()
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _ in found}
    setup = {(Machine, name) for name in tracer.SETUP_METHODS}
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    clock = tracer.SetupClock()
    with tracer.patched(clock.replacements()):
        during = {key: vars(key[0])[key[1]] for key in originals}
        sys.setprofile(profile)
        try:
            workloads.WalkStorm().run(workloads.gen_walk_storm(0, accesses=64), workloads.Checks())
        finally:
            sys.setprofile(None)
    assert clock.seconds > 0
    assert all(during[key] is raw for key, raw in originals.items() if key not in setup)
    assert all(vars(owner)[attr] is raw for (owner, attr), raw in originals.items())
    assert mmu.Tlb.lookup.__code__ in called
    span_code = tracer.Tracer()._wrap("probe", len).__code__
    assert span_code not in called


def test_traced_run_spans_every_layer_checks_roots_and_restores():
    found = tracer.targets()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in found]
    names = {name for _, _, name in found}
    assert {span for span, _ in run.SPAN_METRICS.values()} <= names
    spans = tracer.Tracer()
    checks = workloads.Checks()
    with tracer.patched(spans.replacements(found)):
        workloads.WalkStorm().run(workloads.gen_walk_storm(0, accesses=256), checks)
    assert checks.failed == 0
    assert all(vars(owner)[attr] is raw for owner, attr, raw in originals)
    assert spans.roots > 0 and spans.root_mismatches == []
    totals = spans.totals()
    # bound to the fabric when the machine registers its agent
    assert totals["lightv.LightV.handle_snoop"][0] > 0
    roots = sum(incl for (_, parent), (_, incl, _) in spans.spans.items() if parent is None)
    assert roots == sum(own for _, _, own in totals.values())


def test_host_speed_probe_runs_no_package_code():
    files = set()

    def profile(frame, event, arg):
        files.add(frame.f_code.co_filename)

    speed = hostspeed.HostSpeed()
    sys.setprofile(profile)
    try:
        speed.measure()
    finally:
        sys.setprofile(None)
    assert not any("lightv_sim" in f for f in files)
    assert speed.factor == speed.samples[0] / hostspeed.NOMINAL_S


def test_checks_catch_wrong_outputs():
    checks = workloads.Checks()
    good = {"total_cycles": 10, "snoops_issued": 0}
    stats = {
        "baseline": dict.fromkeys(workloads.STATS, 0) | good,
        "passive": dict.fromkeys(workloads.STATS, 0) | {"total_cycles": 11},
        "active": dict.fromkeys(workloads.STATS, 0) | {"total_cycles": 10},
    }
    workloads.check_modes(stats, checks, "synthetic")
    assert checks.attempted == 2 and checks.failed == 2

    checks = workloads.Checks()
    loop = run.Loop(workloads.WORKLOADS["migration"], checks)
    loop.golden["stats"]["7"]["total_cycles"] += 1
    loop.run(0)
    assert checks.failures == ["migration seed 0: stats differ from golden"]
    loop.run(0)
    assert checks.failed == 2 and checks.attempted == 2 * (3 * 50 + 1) + 1


def test_reports_name_every_benchmark_metric():
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        units = run.per_layer_units() if trace else run.END_TO_END_UNITS
        assert units == declared
        measure = run.measure_traced if trace else run.measure
        checks, metrics, _ = measure("migration", 1, 0.2)
        assert checks.failed == 0 and checks.attempted > 0
        assert set(metrics) == set(declared)


def test_histogram_self_test_reproduces_roadmap_goldens():
    checks = workloads.Checks()
    argv = ["run", "--scenario", "histogram", "--mode", "all", "--scale", "0.01",
            "--seed", "0", "--format", "csv"]
    _, stats = workloads.run_cli(argv, checks, "self-test")
    assert checks.failed == 0
    assert stats["baseline"]["total_cycles"] == stats["passive"]["total_cycles"] == 4_372_770
    assert stats["active"]["total_cycles"] == 4_377_635
    assert stats["active"]["lines_manipulated"] == 139
    assert {s["dram_reads"] for s in stats.values()} == {9_431}
    assert {s["walk_reads"] for s in stats.values()} == {423}


def test_command_prints_one_json_result_and_fails_without_the_package(tmp_path):
    cmd = BENCHMARK["command"] + ["--workload", "migration", "--seed", "2",
                                  "--seconds", "0.2", "--trace", "0"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0

    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    bare = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert bare.returncode != 0
    assert '"metrics"' not in bare.stdout
