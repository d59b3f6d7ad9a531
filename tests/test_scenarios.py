import dataclasses

import pytest

from lightv_sim.machine import MachineConfig
from lightv_sim import scenarios
from lightv_sim.scenarios import (
    HistogramWorkload,
    MigrationPlan,
    gen_histogram_trace,
    histogram_workload,
    run_demand_paging_hazard,
    run_isolation_hazard,
    run_migration,
    run_overhead_experiment,
)


@pytest.fixture(scope="module")
def config():
    return MachineConfig()


@pytest.fixture(scope="module")
def tiny_experiment(config):
    return run_overhead_experiment(config, histogram_workload(scale=0.001, seed=5))


def test_empty_image_touches_only_code_pages():
    w = HistogramWorkload(image_bytes=0)
    trace = gen_histogram_trace(w)
    assert trace
    code_end = w.code_base_va + w.code_pages * 4096
    assert all(w.code_base_va <= va < code_end for _, _, va, _ in trace)


def test_hot_page_access_census():
    w = HistogramWorkload(image_bytes=10_000)
    trace = gen_histogram_trace(w)
    hot = sum(
        1 for _, _, va, _ in trace if w.hot_page_va <= va < w.hot_page_va + 4096
    )
    assert hot == 2 * w.image_bytes  # one read + one write per image byte


def test_trace_generation_is_seeded():
    w = HistogramWorkload(image_bytes=5000, seed=9)
    assert gen_histogram_trace(w) == gen_histogram_trace(w)
    w2 = HistogramWorkload(image_bytes=5000, seed=10)
    assert gen_histogram_trace(w) != gen_histogram_trace(w2)


def test_workload_region_overlap_rejected():
    w = HistogramWorkload(image_base_va=HistogramWorkload.hot_page_va)
    with pytest.raises(ValueError, match="overlap"):
        w.validate()


def test_histogram_functional_equivalence(tiny_experiment):
    exp = tiny_experiment
    assert exp.functional_equal
    assert exp.hot_contents["active"] == exp.expected_hot
    assert exp.stats["active"].lines_manipulated > 0
    assert exp.active_original_untouched


def test_histogram_overhead_bounds(tiny_experiment):
    exp = tiny_experiment
    assert exp.passive_overhead.relative == 0.0
    assert 0.0 < exp.active_overhead.relative < scenarios.ACTIVE_OVERHEAD_MAX
    assert exp.ok


def test_histogram_ok_requires_untouched_original(tiny_experiment):
    written = dataclasses.replace(tiny_experiment, active_original_untouched=False)
    assert tiny_experiment.ok
    assert not written.ok


def test_histogram_csv_rows(tiny_experiment):
    rows = scenarios.csv_rows("histogram", tiny_experiment.stats, seed=5, scale=0.001)
    assert [r["mode"] for r in rows] == ["baseline", "passive", "active"]
    assert all(r["scenario"] == "histogram" for r in rows)


def test_demand_paging_hazard(config):
    report = run_demand_paging_hazard(config)
    assert report.ok
    assert report.control_faults == 0
    assert report.active_in_window and not report.passive_in_window
    assert report.active_fault.level == 2
    assert "watermark window: True" in report.text()


def test_isolation_hazard(config):
    report = run_isolation_hazard(config)
    assert report.ok
    assert report.strict_rejected and "level-0" in report.rejection
    assert report.deviated and report.neighbor_outcome.startswith("fault:L1")
    assert report.control_unaffected


def test_migration_idle_accessor_copies_page(config):
    report = run_migration(MigrationPlan(accessor_ops=0, post_ops=4, seed=2), config)
    assert report.ok
    assert report.lost_writes == 0 and report.stale_reads == 0


def test_migration_interleaved_batch(config):
    for seed in range(25):
        report = run_migration(MigrationPlan(seed=seed), config)
        assert report.ok, f"seed {seed}: {report.text()}"


def test_migration_write_mid_copy_lands_at_destination(config):
    # heavy write mix so some writes land between DMA chunks
    plan = MigrationPlan(accessor_ops=60, seed=13)
    report = run_migration(plan, config)
    assert report.ok and report.lost_writes == 0


def test_migration_plan_validation():
    with pytest.raises(ValueError, match="aligned"):
        MigrationPlan(page_va=0x123).validate()
    with pytest.raises(ValueError, match="chunk"):
        MigrationPlan(dma_chunk_bytes=100).validate()
    with pytest.raises(ValueError, match="differ"):
        MigrationPlan(source_pfn=5, destination_pfn=5).validate()


def test_migration_deterministic_reports(config):
    a = run_migration(MigrationPlan(seed=3), config)
    b = run_migration(MigrationPlan(seed=3), config)
    assert a == b
