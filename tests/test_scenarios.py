import dataclasses
import random
from itertools import zip_longest

import pytest

from lightv_sim import cli, scenarios
from lightv_sim.addressing import (
    ATTR_CACHEABLE,
    ATTR_WRITABLE,
    PAGE_SHIFT,
    PAGE_SIZE,
    reference_walk,
)
from lightv_sim.lightv import LightV, RewriteRule, RuleError
from lightv_sim.machine import AllocatorExhausted, Machine, MachineConfig, TraceAbort, compare_runs
from lightv_sim.scenarios import (
    CODE_BASE_VA,
    CODE_PAGES,
    HOT_PAGE_VA,
    IMAGE_BASE_VA,
    HistogramWorkload,
    MigrationPlan,
    _layout_histogram,
    gen_histogram_trace,
    histogram_workload,
    random_bytes,
    run_demand_paging_hazard,
    run_isolation_hazard,
    run_migration,
    run_overhead_experiment,
)

from helpers import machines_built
from oracles import cycle_law_gap, histogram_trace_by_byte, hot_content_by_byte


@pytest.fixture(scope="module")
def config():
    return MachineConfig()


@pytest.fixture(scope="module")
def tiny_experiment(config):
    with machines_built() as machines:
        experiment = run_overhead_experiment(config, histogram_workload(scale=0.001, seed=5))
    assert [cycle_law_gap(m) for m in machines] == [0, 0, 0]
    return experiment


def test_empty_image_touches_only_code_pages():
    w = HistogramWorkload(image_bytes=0)
    trace = gen_histogram_trace(w)
    assert trace
    code_end = CODE_BASE_VA + CODE_PAGES * 4096
    assert all(CODE_BASE_VA <= va < code_end for _, _, va, _ in trace)


def test_hot_page_access_census():
    w = HistogramWorkload(image_bytes=10_000)
    trace = gen_histogram_trace(w)
    hot = sum(
        1 for _, _, va, _ in trace if HOT_PAGE_VA <= va < HOT_PAGE_VA + 4096
    )
    assert hot == 2 * w.image_bytes  # one read + one write per image byte


def test_trace_generation_is_seeded():
    w = HistogramWorkload(image_bytes=5000, seed=9)
    assert gen_histogram_trace(w) == gen_histogram_trace(w)
    w2 = HistogramWorkload(image_bytes=5000, seed=10)
    assert gen_histogram_trace(w) != gen_histogram_trace(w2)


HISTOGRAM_SIZES = [
    pytest.param(HistogramWorkload(image_bytes=n, seed=7), id=str(n))
    for n in (0, 1, 63, 64, 65, 4095, 4096, 4097, 4096 + 63, 2 * 4096 + 64, 70_000, 257 * 4096 + 3)
] + [
    pytest.param(histogram_workload(scale=0.001, seed=seed), id=f"scale-0.001-seed-{seed}")
    for seed in (0, 3)
]


@pytest.mark.parametrize("w", HISTOGRAM_SIZES)
def test_histogram_closed_forms_match_the_per_byte_counts(w):
    assert scenarios.expected_hot_content(w) == hot_content_by_byte(w)
    got = scenarios.iter_histogram_trace(w)
    assert all(a == b for a, b in zip_longest(got, histogram_trace_by_byte(w)))


def test_a_negative_image_size_is_rejected():
    with pytest.raises(ValueError, match="image_bytes must be >= 0"):
        HistogramWorkload(image_bytes=-1).validate()
    # The trace validates when it is asked for, before any access is read.
    with pytest.raises(ValueError, match="image_bytes must be >= 0"):
        scenarios.iter_histogram_trace(HistogramWorkload(image_bytes=-1))


def test_histogram_layout_takes_its_data_frames_in_one_run():
    m = Machine(MachineConfig())
    w = histogram_workload(scale=0.001)
    first = m.allocator.next_pfn
    hot_pfn, _ = _layout_histogram(m, w)
    vas = (
        [IMAGE_BASE_VA + k * PAGE_SIZE for k in range(w.image_pages)]
        + [HOT_PAGE_VA]
        + [CODE_BASE_VA + k * PAGE_SIZE for k in range(CODE_PAGES)]
    )
    space = m.spaces[0]
    pfns = [reference_walk(space, va, m.dram) >> PAGE_SHIFT for va in vas]
    assert pfns == list(range(first, first + len(vas)))  # what one alloc each gave
    assert hot_pfn == first + w.image_pages


def test_an_oversized_histogram_fails_before_it_takes_a_frame(capsys):
    # 678,716 pages: under MAX_MAPPED_PAGES, over the 2 GiB aperture
    m = Machine(MachineConfig())
    first = m.allocator.next_pfn
    with pytest.raises(AllocatorExhausted, match="no free frames left in the DRAM aperture"):
        _layout_histogram(m, histogram_workload(scale=50))
    assert m.allocator.next_pfn == first and not m.spaces
    assert cli.main(["run", "--scenario", "histogram", "--scale", "50"]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: no free frames left in the DRAM aperture\n")


def test_histogram_functional_equivalence(tiny_experiment):
    exp = tiny_experiment
    assert exp.checks["functional_equal"]
    assert exp.checks["active_in_replacement_frame"]
    assert exp.stats["active"].lines_manipulated > 0
    assert exp.checks["hot_page_redirected"]
    assert exp.checks["active_original_untouched"]


def test_histogram_overhead_bounds(tiny_experiment):
    exp = tiny_experiment
    assert compare_runs(exp.stats["baseline"], exp.stats["passive"]).relative == 0.0
    active = compare_runs(exp.stats["baseline"], exp.stats["active"]).relative
    assert 0.0 < active < scenarios.ACTIVE_OVERHEAD_MAX
    assert exp.ok


def test_histogram_ok_requires_untouched_original(tiny_experiment):
    checks = {**tiny_experiment.checks, "active_original_untouched": False}
    written = dataclasses.replace(tiny_experiment, checks=checks)
    assert tiny_experiment.ok
    assert not written.ok


def test_histogram_csv_rows(tiny_experiment):
    rows = scenarios.csv_rows("histogram", tiny_experiment.stats, seed=5, scale=0.001)
    assert [r["mode"] for r in rows] == ["baseline", "passive", "active"]
    assert all(r["scenario"] == "histogram" for r in rows)


def test_demand_paging_hazard(config):
    with machines_built() as machines:
        report = run_demand_paging_hazard(config)
    assert machines and all(cycle_law_gap(m) == 0 for m in machines)
    assert report.ok
    assert report.checks["control_does_not_fault"]
    assert report.checks["active_fault_in_window"]
    assert report.checks["passive_fault_outside_window"]
    assert report.stats["active"].faults[0].level == 2
    assert "watermark window: True" in report.text()


def test_isolation_hazard(config):
    with machines_built() as machines:
        report = run_isolation_hazard(config)
    assert len(machines) == 3 and all(cycle_law_gap(m) == 0 for m in machines)
    assert report.ok
    text = report.text().splitlines()
    assert report.checks["strict_rejected"] and "level-0" in text[0]
    assert report.checks["deviated"]
    assert text[2] == "neighbour under permissive activation: fault:L1"
    assert report.checks["control_unaffected"]


def test_migration_idle_accessor_copies_page(config):
    report = run_migration(MigrationPlan(accessor_ops=0, post_ops=4, seed=2), config)
    assert report.ok
    assert report.checks["no_lost_writes"] and report.checks["no_stale_reads"]


def test_migration_interleaved_batch(config):
    for seed in range(25):
        with machines_built() as machines:
            report = run_migration(MigrationPlan(seed=seed), config)
        assert report.ok, f"seed {seed}: {report.text()}"
        assert cycle_law_gap(*machines) == 0, f"seed {seed}"
        assert machines[0].dram.dma_reads == 64, f"seed {seed}"


def test_migration_write_mid_copy_lands_at_destination(config):
    # heavy write mix so some writes land between DMA chunks
    plan = MigrationPlan(accessor_ops=60, seed=13)
    report = run_migration(plan, config)
    assert report.ok and report.checks["no_lost_writes"]


@pytest.mark.parametrize("sets, ways", [(4, 1), (1, 2)])
def test_small_caches_need_the_writeback_mirror(monkeypatch, sets, ways):
    # So few lines evict dirty destination lines mid-window, and the
    # trailing DMA copy then brings back the source's old bytes unless the
    # mirror has written the evicted line to the source too.
    config = MachineConfig(cache_sets=sets, cache_ways=ways)
    plans = [MigrationPlan(seed=seed) for seed in range(20)]
    for plan in plans:
        report = run_migration(plan, config)
        assert report.ok, f"seed {plan.seed}: {report.text()}"
    monkeypatch.setattr(LightV, "on_writeback", lambda self, line_addr, payload: None)
    for plan in plans:
        report = run_migration(plan, config)
        assert not report.checks["no_lost_writes"] and not report.ok, f"seed {plan.seed}"


def test_migration_source_check_sees_lines_left_in_the_cache(monkeypatch, config):
    # Opening the window must flush the source page's lines; without that,
    # source-tagged lines are still cached when the run ends, and the check
    # runs before the final flush empties the cache.
    assert run_migration(MigrationPlan(seed=1), config).checks["source_clean"]
    monkeypatch.setattr(Machine, "invalidate_page_lines", lambda self, pa_base: None)
    report = run_migration(MigrationPlan(seed=1), config)
    assert not report.checks["source_clean"] and not report.ok
    assert "source frame unreferenced: False" in report.text()


def test_random_bytes_draws_the_randrange_stream():
    # the migration page fill; a CPython change to randrange shows here
    for seed in range(200):
        for n in (0, 1, 2, 63, 64, 4095, 4096, 4097, 10_000):
            want, got = random.Random(seed), random.Random(seed)
            expected = bytes(want.randrange(256) for _ in range(n))
            assert random_bytes(got, n) == expected, (seed, n)
            assert got.getstate() == want.getstate(), (seed, n)


def test_migration_deterministic_reports(config):
    a = run_migration(MigrationPlan(seed=3), config)
    b = run_migration(MigrationPlan(seed=3), config)
    assert a == b


# -- the lockstep runner ---------------------------------------------------------

RW = ATTR_WRITABLE | ATTR_CACHEABLE
LOCKSTEP_PAGES = [(8 << 30, 0x90000), (9 << 30, 0x90001), (10 << 30, 0x90002)]
LOCKSTEP_RULES = [RewriteRule(1, 0, 9 << 30, (9 << 30) + 4096, 0xA0000)]


def lockstep_trace(n, seed=0):
    """Reads and writes over the three pages, with an unmapped access now
    and then, so that faults land in every chunk."""
    rng = random.Random(seed)
    trace = []
    for _ in range(n):
        if rng.random() < 0.01:
            trace.append((0, "R", (11 << 30) + rng.randrange(4096), None))
            continue
        va = rng.choice(LOCKSTEP_PAGES)[0] + rng.randrange(4096)
        if rng.random() < 0.3:
            trace.append((0, "W", va, rng.randrange(256)))
        else:
            trace.append((0, "R", va, None))
    return trace


def one_mode_at_a_time(config, trace):
    """Each mode's RunStats from `Machine.run_trace` on the list."""
    stats = {}
    for mode in scenarios.MODES:
        m = Machine(config.with_mode(scenarios.MACHINE_MODE[mode]))
        m.register_space(0, [(va, pfn, RW) for va, pfn in LOCKSTEP_PAGES])
        if mode == "active":
            m.activate_rules(LOCKSTEP_RULES)
        stats[mode] = m.run_trace(trace)
    return stats


def test_lockstep_runner_matches_one_mode_at_a_time():
    config = MachineConfig(fault_policy="record", tlb_entries=2, cache_sets=4, cache_ways=2)
    trace = lockstep_trace(2 * scenarios.CHUNK + 700)
    mappings = [(va, pfn, RW) for va, pfn in LOCKSTEP_PAGES]
    report = scenarios.run_custom_trace(config, mappings, LOCKSTEP_RULES, trace)
    want = one_mode_at_a_time(config, trace)
    assert report.stats == want
    faults = want["baseline"].faults
    assert faults[0].index < scenarios.CHUNK < 2 * scenarios.CHUNK < faults[-1].index
    assert want["active"].lines_manipulated > 0


def test_lockstep_runner_reads_a_one_shot_iterator_once():
    config = MachineConfig(fault_policy="record")
    trace = lockstep_trace(scenarios.CHUNK + 10, seed=1)
    pulled = []

    def one_shot():
        for access in trace:
            pulled.append(access)
            yield access

    def prepare(m, _):
        m.register_space(0, [(va, pfn, RW) for va, pfn in LOCKSTEP_PAGES])
        return LOCKSTEP_RULES

    runs = scenarios.run_modes(config, scenarios.MODES, one_shot(), prepare)
    assert pulled == trace
    assert [mode for mode, _, _ in runs] == list(scenarios.MODES)
    assert {mode: run for mode, _, run in runs} == one_mode_at_a_time(config, trace)
    # every mode ran each access it pulled: a data hit, a data miss or a fault
    for _, _, run in runs:
        assert run.data_hits + run.data_misses + len(run.faults) == len(pulled)


def test_rules_are_activated_on_every_active_machine():
    # "control" labels a second active machine: `prepare` sees each label,
    # and the control's rules are activated as the active machine's are.
    labels = []

    def prepare(m, label):
        labels.append(label)
        m.register_space(0, [(va, pfn, RW) for va, pfn in LOCKSTEP_PAGES])
        return LOCKSTEP_RULES

    modes = ("control", "passive", "active")
    trace = lockstep_trace(300, seed=2)
    runs = scenarios.run_modes(MachineConfig(fault_policy="record"), modes, trace, prepare)
    assert labels == list(modes)
    assert [m.config.mode for _, m, _ in runs] == ["active", "passive", "active"]
    (_, control, control_run), (_, _, passive_run), (_, _, active_run) = runs
    assert list(control.lightv.rules) == [rule.rule_id for rule in LOCKSTEP_RULES]
    assert control_run == active_run != passive_run
    assert control_run.lines_manipulated > 0


def test_a_held_failure_stops_every_later_mode():
    # Passive lacks the second page and active the first: one mode after
    # another, passive's fault at trace[1] ends the run before active runs,
    # in this chunk or the next.
    (a, a_pfn), (b, b_pfn), _ = LOCKSTEP_PAGES
    pages = {"absent": [(a, a_pfn), (b, b_pfn)], "passive": [(a, a_pfn)], "active": [(b, b_pfn)]}

    def prepare(m, _):
        m.register_space(0, [(va, pfn, RW) for va, pfn in pages[m.config.mode]])
        return []

    trace = [(0, "R", a, None), (0, "R", b, None)] + [(0, "R", a, None)] * scenarios.CHUNK
    with pytest.raises(TraceAbort) as info:
        scenarios.run_modes(MachineConfig(), scenarios.MODES, trace, prepare)
    assert (info.value.index, info.value.va) == (1, b)


@pytest.mark.parametrize("faulting, raised", [(True, TraceAbort), (False, RuleError)])
def test_a_failed_setup_is_held_like_a_failed_run(faulting, raised):
    # Active mode's rule names an unknown address space; baseline faults on
    # trace[1] when `faulting`, and that fault comes first, as it would one
    # mode after another.
    def prepare(m, _):
        m.register_space(0, [(va, pfn, RW) for va, pfn in LOCKSTEP_PAGES])
        return [RewriteRule(1, 7, 9 << 30, (9 << 30) + 4096, 0xA0000)]

    trace = [(0, "R", 8 << 30, None), (0, "R", (11 << 30) if faulting else (10 << 30), None)]
    with pytest.raises(raised):
        scenarios.run_modes(MachineConfig(), scenarios.MODES, trace, prepare)


@pytest.mark.parametrize("baseline_faults, message", [
    (True, "fault abort: trace[5000]: fault at va 0x340000000 (level 0, pte @ 0x80000068)\n"),
    (False, "fault abort: trace[0]: fault at va 0x200200000 (level 1, pte @ 0x201000008)\n"),
])
def test_abort_reports_the_first_failing_mode(tmp_path, capsys, baseline_faults, message):
    # Under a permissive rule, active mode faults on the neighbour that
    # shares the target's level-0 slot at trace[0]; baseline and passive
    # fault only on the unmapped access at trace[5000], in a later chunk.
    # As when the modes ran one after another, baseline's fault is the one
    # reported, and active's only when baseline runs the trace clean.
    target, neighbour = 8 << 30, (8 << 30) | (1 << 21)
    (tmp_path / "loose.json").write_text('{"strict_isolation": false}')
    (tmp_path / "map.txt").write_text(f"{target:#x} 0x90000 wc\n{neighbour:#x} 0x90001 wc\n")
    (tmp_path / "rules.txt").write_text(f"0 {target:#x} {target + 4096:#x} 0xa0000\n")
    lines = [f"0 R {neighbour + k % 64:#x}\n" for k in range(2 * scenarios.CHUNK + 1)]
    if baseline_faults:
        lines[5000] = "0 R 0x340000000\n"
    (tmp_path / "trace.txt").write_text("".join(lines))
    code = cli.main([
        "run", "--scenario", "custom-trace", "--config", str(tmp_path / "loose.json"),
        "--trace", str(tmp_path / "trace.txt"), "--mappings", str(tmp_path / "map.txt"),
        "--rules", str(tmp_path / "rules.txt"),
    ])
    assert code == cli.EXIT_FAULT
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", message)
