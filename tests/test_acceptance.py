"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import time

import pytest

from lightv_sim.addressing import (
    ATTR_CACHEABLE,
    ATTR_WRITABLE,
    TranslationFault,
)
from lightv_sim import cli, scenarios
from lightv_sim.coherence import CacheState
from lightv_sim.lightv import CONTEXT_CAPACITY, RewriteRule, WatermarkWindow
from lightv_sim.machine import Machine, MachineConfig, compare_runs

from helpers import cache_lines, data_access, dram_clone, machines_built
from oracles import apply_rule_by_edit, brute_walk, cycle_law_gap

RW = ATTR_WRITABLE | ATTR_CACHEABLE


@pytest.fixture(scope="module")
def histogram_experiment():
    # default latency config, histogram trace at scale 1/100
    with machines_built() as machines:
        experiment = scenarios.run_overhead_experiment(
            MachineConfig(), scenarios.histogram_workload(scale=0.01, seed=0)
        )
    assert [cycle_law_gap(m) for m in machines] == [0, 0, 0]
    return experiment


def _outcome(fn):
    try:
        return ("pa", fn())
    except TranslationFault as fault:
        return ("fault", fault.level)


def test_criterion_1_oracle_translation_equivalence():
    started = time.monotonic()
    rng = random.Random(0xACCE55)
    mismatches = checked = 0
    for c in range(100):
        crng = random.Random(rng.randrange(1 << 30))
        cfg = MachineConfig(
            mode="absent" if c % 2 == 0 else "passive",
            tlb_entries=crng.choice((0, 8, 64)),
            cache_ptes=crng.choice((False, True)),
        )
        m = Machine(cfg)
        pages = crng.sample(range(1 << 27), crng.randint(10, 40))
        mappings = [(p << 12, m.allocator.alloc(), RW) for p in pages]
        space = m.register_space(0, mappings)
        for _ in range(1000):
            if crng.random() < 0.6:
                va = (crng.choice(pages) << 12) | crng.randrange(4096)
            else:
                va = crng.randrange(1 << 39)
            expected = brute_walk(space.pgd_base, va, m.dram.read_qword)
            got = _outcome(lambda: m.mmu.translate(0, va))
            checked += 1
            if got != expected:
                mismatches += 1
    elapsed = time.monotonic() - started
    assert checked == 100_000
    assert mismatches == 0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (oracle translation equivalence, {checked} checks,"
          f" {elapsed:.1f}s): PASS")


def test_criterion_2_redirection_correctness():
    started = time.monotonic()
    rng = random.Random(0xD1BEC7)
    combos = [(False, 64), (False, 0), (True, 64), (True, 0)]
    configs_run = 0
    for cache_ptes, tlb_entries in combos:
        for _ in range(25):
            crng = random.Random(rng.randrange(1 << 30))
            cfg = MachineConfig(
                mode="active", cache_ptes=cache_ptes, tlb_entries=tlb_entries
            )
            active = Machine(cfg)
            baseline = Machine(cfg.with_mode("absent"))
            n_rules = crng.randint(1, 16)
            slots = crng.sample(range(512), n_rules + 6)
            rule_slots, free_slots = slots[:n_rules], slots[n_rules:]
            mappings, rules = [], []
            for k, i0 in enumerate(rule_slots):
                pages = crng.randint(1, 4)
                start = (i0 << 30) + crng.randrange(0, (1 << 30) - pages * 4096, 4096)
                for p in range(pages):
                    mappings.append((start + p * 4096, active.allocator.alloc(), RW))
                repl = active.allocator.alloc()
                for _ in range(pages - 1):
                    active.allocator.alloc()  # reserve the rest of the run
                rules.append(
                    RewriteRule(k + 1, 0, start, start + pages * 4096, repl)
                )
            non_targets = []
            for i0 in free_slots:
                va = (i0 << 30) + crng.randrange(0, 1 << 30, 4096)
                mappings.append((va, active.allocator.alloc(), RW))
                non_targets.append(va)
            active.register_space(0, mappings)
            # baseline reuses the same data frames; start its table frames
            # past everything active allocated so nothing collides
            baseline.allocator.alloc_run(
                active.allocator.next_pfn - baseline.allocator.next_pfn
            )
            baseline.register_space(0, mappings)
            ghost = dram_clone(active.dram)
            space = active.spaces[0]
            for rule in rules:
                apply_rule_by_edit(ghost, space, rule)
            active.activate_rules(rules, strict=True)
            for rule in rules:
                for va in range(rule.va_start, rule.va_end, 4096):
                    for off in (0, crng.randrange(4096)):
                        expected = brute_walk(
                            space.pgd_base, va + off, ghost.read_qword
                        )
                        got = _outcome(lambda: active.mmu.translate(0, va + off))
                        assert got == expected, (
                            f"target {va + off:#x}: {got} != ghost {expected}"
                        )
            for va in non_targets:
                off = crng.randrange(4096)
                got = _outcome(lambda: active.mmu.translate(0, va + off))
                want = _outcome(lambda: baseline.mmu.translate(0, va + off))
                assert got == want, f"non-target {va + off:#x} deviated"
            configs_run += 1
    elapsed = time.monotonic() - started
    assert configs_run == 100
    assert elapsed < 120, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 (redirection vs ghost oracle, {configs_run} configs"
          f" x 4 combos, {elapsed:.1f}s): PASS")


def test_criterion_3_histogram_functional_transparency(histogram_experiment):
    exp = histogram_experiment
    assert exp.checks["functional_equal"], "hot-page contents differ across modes"
    assert exp.stats["active"].lines_manipulated > 0  # the hot page was redirected
    # the bytes physically reside in the replacement frame (DRAM readback),
    # and the originally mapped frame never saw a write
    assert exp.checks["active_in_replacement_frame"]
    assert exp.checks["active_original_untouched"]
    print("\nACCEPTANCE 3 (histogram functional transparency): PASS")


def test_criterion_4_overhead_properties(histogram_experiment):
    exp = histogram_experiment
    passive = compare_runs(exp.stats["baseline"], exp.stats["passive"]).relative
    active = compare_runs(exp.stats["baseline"], exp.stats["active"]).relative
    assert abs(passive) < 0.005, f"passive overhead {passive:+.4%}"
    assert 0.0 < active < 0.015, f"active overhead {active:+.4%}"
    # golden simulated results of this run; host-speed work must not move them
    stats = exp.stats
    assert stats["baseline"].total_cycles == stats["passive"].total_cycles == 4_372_770
    assert stats["active"].total_cycles == 4_377_635
    assert stats["active"].lines_manipulated == 139
    assert {s.dram_reads for s in stats.values()} == {9_431}
    assert {s.walk_reads for s in stats.values()} == {423}
    print(f"\nACCEPTANCE 4 (overhead: passive {passive:+.4%},"
          f" active {active:+.4%}): PASS")


def _assert_single_writer(machines):
    owners = {}
    for m in machines:
        for line in cache_lines(m.cache):
            assert line.state in (
                CacheState.MODIFIED,
                CacheState.EXCLUSIVE,
                CacheState.SHARED,
            )
            assert len(line.payload) == 64 and line.tag % 64 == 0
            if line.state in (CacheState.MODIFIED, CacheState.EXCLUSIVE):
                assert line.tag not in owners, f"two owners for {line.tag:#x}"
                owners[line.tag] = m


def test_criterion_5_coherence_invariant_suite():
    started = time.monotonic()
    rng = random.Random(0xC0FFEE)
    total = 0
    for mode in ("absent", "active"):
        m = Machine(MachineConfig(mode=mode, cache_sets=32, cache_ways=2))
        page_vas = [8 << 30, 9 << 30, 10 << 30, (10 << 30) + 4096]
        mappings = [(va, m.allocator.alloc(), RW) for va in page_vas]
        m.register_space(0, mappings)
        if mode == "active":
            repl = m.allocator.alloc()
            m.activate_rules([RewriteRule(1, 0, 8 << 30, (8 << 30) + 4096, repl)])
        shadow = {}
        for i in range(50_000):
            va = rng.choice(page_vas) + rng.randrange(4096)
            roll = rng.random()
            if roll < 0.4:
                value = rng.randrange(256)
                data_access(m, 0, va, True, value)
                shadow[va] = value
            elif roll < 0.97:
                assert data_access(m, 0, va) == shadow.get(va, 0), f"va {va:#x}"
            elif roll < 0.99:
                pa = m.mmu.translate(0, va)
                m.cci.invalidate_line(pa & ~63)
            else:
                page = va & ~4095
                m.tlb.invalidate_range(0, page, page + 4096)
            if i % 2000 == 0:
                _assert_single_writer([m])
            total += 1
        _assert_single_writer([m])
    elapsed = time.monotonic() - started
    assert total == 100_000
    assert elapsed < 60, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 5 (coherence invariants, {total} accesses,"
          f" {elapsed:.1f}s): PASS")


def test_criterion_6_watermark_codec_exhaustive():
    window = WatermarkWindow(0x20_0000)
    for level in (1, 2):
        for ctx in range(CONTEXT_CAPACITY):
            assert window.decode(window.encode(level, ctx)) == (level, ctx)
    rng = random.Random(0x5EED)
    dram_lo, dram_hi = 0x8000_0000 >> 12, 0x1_0000_0000 >> 12
    for _ in range(10_000):
        pfn = rng.randrange(dram_lo, dram_hi)
        assert window.decode(pfn) is None
    print(f"\nACCEPTANCE 6 (watermark codec, {2 * CONTEXT_CAPACITY} pairs"
          " + 10000 aperture frames): PASS")


def test_criterion_7_hazard_reproductions():
    cfg = MachineConfig()
    with machines_built() as machines:
        demand = scenarios.run_demand_paging_hazard(cfg)
        isolation = scenarios.run_isolation_hazard(cfg)
    assert machines and all(cycle_law_gap(m) == 0 for m in machines)
    assert demand.checks["control_does_not_fault"]
    assert demand.checks["active_fault_in_window"]
    assert demand.checks["passive_fault_outside_window"]
    assert isolation.checks["strict_rejected"]
    assert isolation.checks["deviated"]
    assert isolation.checks["control_unaffected"]
    # determinism of the reports themselves
    assert scenarios.run_demand_paging_hazard(cfg) == demand
    assert scenarios.run_isolation_hazard(cfg) == isolation
    print("\nACCEPTANCE 7 (hazard reproductions): PASS")


def test_criterion_8_migration_linearizability():
    started = time.monotonic()
    cfg = MachineConfig(cache_sets=32, cache_ways=2)
    for seed in range(1000):
        plan = scenarios.MigrationPlan(seed=seed, accessor_ops=20, post_ops=6)
        with machines_built() as machines:
            report = scenarios.run_migration(plan, cfg)
        assert cycle_law_gap(*machines) == 0, f"seed {seed}"
        assert machines[0].dram.dma_reads == 64, f"seed {seed}"
        assert report.checks["no_stale_reads"], f"seed {seed}"
        assert report.checks["no_lost_writes"], f"seed {seed}"
        assert report.checks["translations_to_destination"], f"seed {seed}"
        assert report.checks["source_clean"], f"seed {seed}"
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 8 (migration linearizability, 1000 interleavings,"
          f" {elapsed:.1f}s): PASS")


def test_criterion_9_deterministic_reports(tmp_path):
    jobs = (
        ["run", "--scenario", "histogram", "--mode", "all", "--seed", "2",
         "--scale", "0.0005", "--format", "csv"],
        ["run", "--scenario", "migration", "--seed", "5", "--format", "csv"],
        ["run", "--scenario", "demand-paging", "--format", "csv"],
        ["run", "--scenario", "isolation", "--format", "csv"],
    )
    for i, job in enumerate(jobs):
        a, b = tmp_path / f"{i}a.csv", tmp_path / f"{i}b.csv"
        assert cli.main(job + ["--out", str(a)]) == 0
        assert cli.main(job + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"job {job} not deterministic"
    print("\nACCEPTANCE 9 (byte-identical reports): PASS")
