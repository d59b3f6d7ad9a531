import gc
import json
import random
import weakref

import pytest

from lightv_sim.addressing import ATTR_WRITABLE
from lightv_sim.coherence import LatencyConfig
from lightv_sim.lightv import RewriteRule
from lightv_sim.machine import (
    AllocatorExhausted,
    ConfigError,
    Dram,
    FrameAllocator,
    Machine,
    MachineConfig,
    TraceAbort,
    TraceError,
    compare_runs,
    format_trace,
    load_config,
    parse_trace,
    trace_digest,
)

from helpers import make_machine

RW = ATTR_WRITABLE
PAGE_VA = 8 << 30


def simple_machine(mode="absent", **overrides):
    m = make_machine(mode, **overrides)
    m.register_space(0, [(PAGE_VA, 0x90000, RW), (9 << 30, 0x90001, RW)])
    return m


# -- configuration --------------------------------------------------------------


def test_default_build_shapes():
    assert len(make_machine("absent").cci.agents) == 0
    assert len(make_machine("passive").cci.agents) == 1
    assert len(make_machine("active").cci.agents) == 1


def test_window_overlapping_dram_rejected():
    cfg = MachineConfig(watermark_base_pfn=0x80000)  # inside the aperture
    with pytest.raises(ConfigError, match="watermark_base_pfn"):
        Machine(cfg)


def test_bad_latency_rejected():
    cfg = MachineConfig(latencies=LatencyConfig(snoop=-1))
    with pytest.raises(ConfigError, match="latencies"):
        cfg.validate()


def test_bad_geometry_and_mode_rejected():
    with pytest.raises(ConfigError, match="cache_sets"):
        MachineConfig(cache_sets=100).validate()
    with pytest.raises(ConfigError, match="mode"):
        MachineConfig(mode="turbo").validate()
    with pytest.raises(ConfigError, match="fault_policy"):
        MachineConfig(fault_policy="panic").validate()


def test_config_dict_roundtrip(tmp_path):
    cfg = MachineConfig(mode="active", tlb_entries=16, cache_ptes=True)
    clone = MachineConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert load_config(str(path)) == cfg


def test_config_file_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text(json.dumps({"latencies": {"warp": 1}}))
    with pytest.raises(ConfigError, match="latencies.warp"):
        load_config(str(path))


def test_activate_requires_active_mode():
    m = simple_machine("passive")
    with pytest.raises(RuntimeError, match="mode"):
        m.activate_rules([])


@pytest.mark.parametrize("mode", ["absent", "passive", "active"])
def test_machine_is_freed_without_the_cycle_collector(mode):
    m = simple_machine(mode, debug_tlb_check=True)
    if mode == "active":
        m.activate_rules([RewriteRule(1, 0, PAGE_VA, PAGE_VA + 4096, 0xA0000)])
    m.run_trace([(0, "W", PAGE_VA, 1), (0, "R", PAGE_VA, None), (0, "R", PAGE_VA, None)])
    if mode == "active":
        m.deactivate_rule(1)
    ref = weakref.ref(m)
    gc.disable()
    try:
        del m
        assert ref() is None
    finally:
        gc.enable()


# -- dram and allocator ----------------------------------------------------------


def test_dram_zero_fill_and_bounds():
    dram = Dram(0x8000_0000, 1 << 20)
    assert dram.read_line(0x8000_0000) == bytes(64)
    assert dram.read_qword(0x8000_0040) == 0
    with pytest.raises(ValueError):
        dram.read_line(0x7FFF_FFC0)
    with pytest.raises(ValueError):
        dram.write_line(0x8000_0000 + (1 << 20), bytes(64))


def test_dram_byte_ops_cross_lines():
    dram = Dram(0x8000_0000, 1 << 20)
    data = bytes(range(200))
    dram.write_bytes(0x8000_0020, data)
    assert dram.read_bytes(0x8000_0020, 200) == data
    assert dram.read_qword(0x8000_0020) == int.from_bytes(data[:8], "little")


def test_dram_digest_tracks_content():
    dram = Dram(0x8000_0000, 1 << 20)
    d0 = dram.content_digest()
    dram.write_qword(0x8000_1000, 0xAB)
    assert dram.content_digest() != d0
    clone = dram.clone()
    assert clone.content_digest() == dram.content_digest()
    clone.write_qword(0x8000_1000, 0xCD)
    assert clone.content_digest() != dram.content_digest()
    assert dram.read_qword(0x8000_1000) == 0xAB


def test_allocator_exhaustion():
    dram = Dram(0x8000_0000, 3 * 4096)
    alloc = FrameAllocator(dram)
    for _ in range(3):
        alloc.alloc()
    with pytest.raises(AllocatorExhausted):
        alloc.alloc()


# -- trace running ----------------------------------------------------------------


def test_empty_trace_zero_cycles():
    m = simple_machine()
    stats = m.run_trace([])
    assert stats.total_cycles == 0
    assert stats.to_dict()["data_hits"] == 0


def test_determinism_replay():
    rng = random.Random(41)
    trace = []
    for _ in range(500):
        va = PAGE_VA + rng.randrange(4096)
        if rng.random() < 0.4:
            trace.append((0, "W", va, rng.randrange(256)))
        else:
            trace.append((0, "R", va, None))

    def run():
        m = simple_machine("active")
        stats = m.run_trace(trace)
        return stats, m.dram.content_digest(), m.cache.snapshot()

    assert run() == run()


def test_tlb_hit_reads_cost_exactly_hit_latency():
    m = simple_machine()
    m.run_trace([(0, "R", PAGE_VA, None)])  # warm the TLB and the line
    n = 50
    stats = m.run_trace([(0, "R", PAGE_VA, None)] * n)
    assert stats.total_cycles == n * m.config.latencies.cache_hit
    assert stats.data_hits == n and stats.walk_reads == 0


def test_cycle_additivity_against_manual_accumulation():
    rng = random.Random(42)
    ops = []
    for _ in range(300):
        va = (PAGE_VA if rng.random() < 0.5 else 9 << 30) + rng.randrange(4096)
        op = "W" if rng.random() < 0.3 else "R"
        ops.append((0, op, va, rng.randrange(256) if op == "W" else None))

    manual = simple_machine()
    total = 0
    for asid, op, va, data in ops:
        before = manual.clock.now
        if op == "W":
            manual.mem_write(asid, va, data)
        else:
            manual.mem_read(asid, va)
        total += manual.clock.now - before
    fresh = simple_machine()
    stats = fresh.run_trace(ops)
    assert stats.total_cycles == total


def test_conservation_against_flat_shadow():
    rng = random.Random(43)
    m = simple_machine("active")
    shadow = {}
    for _ in range(2000):
        va = (PAGE_VA if rng.random() < 0.5 else 9 << 30) + rng.randrange(4096)
        if rng.random() < 0.4:
            value = rng.randrange(256)
            m.mem_write(0, va, value)
            shadow[va] = value
        else:
            assert m.mem_read(0, va) == shadow.get(va, 0)


def test_compare_runs_identity_and_guard():
    m = simple_machine()
    trace = [(0, "R", PAGE_VA, None)] * 10
    a = m.run_trace(trace)
    b = simple_machine().run_trace(trace)
    report = compare_runs(a, b)
    assert report.relative != 0.0 or a.total_cycles == b.total_cycles
    other = simple_machine().run_trace([(0, "R", 9 << 30, None)])
    with pytest.raises(ValueError, match="different traces"):
        compare_runs(a, other)


def test_fault_abort_policy():
    m = simple_machine()
    with pytest.raises(TraceAbort) as exc:
        m.run_trace([(0, "R", 10 << 30, None)])
    assert exc.value.index == 0


def test_fault_record_policy():
    m = simple_machine(fault_policy="record")
    stats = m.run_trace([(0, "R", 10 << 30, None), (0, "R", PAGE_VA, None)])
    assert len(stats.faults) == 1
    fault = stats.faults[0]
    assert fault.level == 0 and fault.va == 10 << 30
    assert fault.pte_address == m.spaces[0].pgd_base + 10 * 8


def test_trace_text_roundtrip():
    trace = [(0, "R", PAGE_VA, None), (1, "W", 0x1000, 0x7F)]
    text = format_trace(trace)
    assert parse_trace(text) == trace
    assert trace_digest(parse_trace(text)) == trace_digest(trace)


def test_trace_parse_errors():
    with pytest.raises(TraceError, match="line 1"):
        parse_trace("0 X 0x1000\n")
    with pytest.raises(TraceError, match="data byte"):
        parse_trace("0 W 0x1000\n")
    assert parse_trace("# empty\n\n") == []


def test_stats_text_rendering():
    m = simple_machine()
    stats = m.run_trace([(0, "R", PAGE_VA, None)])
    text = stats.text()
    assert "total_cycles" in text and "walk_reads" in text
