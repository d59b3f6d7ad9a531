"""Differential test: the fused data-access path against the layered one.

`Mmu.access` resolves a TLB hit followed by a cache hit by itself and hands
everything else to the walker and the fabric.  The reference below drives
the layers one call at a time (`translate`, then `read_byte`/`write_byte`),
and every simulated result must come out identical.
"""

import random

import pytest

from lightv_sim.addressing import (
    ATTR_CACHEABLE,
    ATTR_WRITABLE,
    TranslationFault,
    reference_walk,
)
from lightv_sim.coherence import LINE_BYTES, CacheState
from lightv_sim.lightv import RewriteRule
from lightv_sim.machine import FAULT_RECORD, Machine, MachineConfig

RW = ATTR_WRITABLE | ATTR_CACHEABLE
PLAIN_VAS = [(8 << 30) + k * 4096 for k in range(6)] + [(8 << 30) | (3 << 21)]
RULE_VA = 9 << 30
CAPTURE_VA = 10 << 30
UNMAPPED_VA = (8 << 30) + 100 * 4096


def build(tlb_entries, cache_ptes, debug_tlb_check):
    """Active machine with a tiny TLB and cache, one rewrite rule and an
    open capture window over the page at CAPTURE_VA."""
    m = Machine(
        MachineConfig(
            mode="active",
            cache_sets=4,
            cache_ways=2,
            tlb_entries=tlb_entries,
            cache_ptes=cache_ptes,
            debug_tlb_check=debug_tlb_check,
            fault_policy=FAULT_RECORD,
        )
    )
    alloc = m.allocator.alloc
    capture_dst = alloc()
    mappings = [(va, alloc(), RW) for va in PLAIN_VAS + [RULE_VA]]
    m.register_space(0, mappings + [(CAPTURE_VA, capture_dst, RW)])
    m.activate_rules([RewriteRule(1, 0, RULE_VA, RULE_VA + 4096, alloc())])
    capture_src = alloc()
    m.dram.write_bytes(capture_src << 12, bytes(range(256)) * 16)
    m.lightv.begin_page_capture(
        {
            (capture_dst << 12) + off: (capture_src << 12) + off
            for off in range(0, 4096, LINE_BYTES)
        }
    )
    return m


def random_trace(seed, n=600):
    rng = random.Random(seed)
    pages = PLAIN_VAS + [RULE_VA, CAPTURE_VA]
    recent = []
    trace = []
    for _ in range(n):
        roll = rng.random()
        if recent and roll < 0.5:
            va = rng.choice(recent)
        elif roll < 0.97:
            va = rng.choice(pages) + rng.randrange(8) * LINE_BYTES + rng.randrange(64)
        else:
            va = UNMAPPED_VA + rng.randrange(4096)
        recent = (recent + [va])[-6:]
        if rng.random() < 0.35:
            trace.append((0, "W", va, rng.randrange(256)))
        else:
            trace.append((0, "R", va, None))
    return trace


def run_layered(m, trace):
    """The layer-by-layer path: translate, then a byte access on the fabric."""
    values, faults = [], []
    for index, (asid, op, va, value) in enumerate(trace):
        try:
            pa = m.mmu.translate(asid, va)
        except TranslationFault as fault:
            faults.append((index, fault.level, fault.pte_address))
            continue
        if op == "W":
            m.cci.write_byte(m.cache, pa, value)
        else:
            values.append(m.cci.read_byte(m.cache, pa))
    return values, faults


def run_access(m, trace):
    values, faults = [], []
    for index, (asid, op, va, value) in enumerate(trace):
        try:
            got = m.mmu.access(asid, va, op == "W", value)
        except TranslationFault as fault:
            faults.append((index, fault.level, fault.pte_address))
            continue
        if op == "R":
            values.append(got)
    return values, faults


def simulated_state(m):
    return {
        "cycles": m.clock.now,
        "counters": m.counters.snapshot(),
        "dram": (m.dram.reads, m.dram.writes, m.dram.content_digest()),
        "lightv": {
            "data_captures": m.lightv.data_captures,
            "context_lost": m.lightv.context_lost,
            "contexts_live": len(m.lightv._ctx_by_id),
        },
        "lines_manipulated": m.lightv.lines_manipulated,
        "cache": m.cache.snapshot(),
        "tlb": list(m.tlb._entries.items()),
    }


@pytest.mark.parametrize("debug_tlb_check", [False, True])
@pytest.mark.parametrize("cache_ptes", [False, True])
@pytest.mark.parametrize("tlb_entries", [0, 4])
def test_fused_path_matches_layered_path(tlb_entries, cache_ptes, debug_tlb_check):
    # A captured line arrives SHARED; the write after it must take the
    # READ_UNIQUE upgrade instead of the hit path.
    first, upgrade = (0, "R", CAPTURE_VA + 5, None), (0, "W", CAPTURE_VA + 5, 0xA5)
    trace = [first, upgrade] + random_trace(seed=tlb_entries + 2 * cache_ptes)
    fused, stepped, layered = (
        build(tlb_entries, cache_ptes, debug_tlb_check) for _ in range(3)
    )

    captured = reference_walk(fused.spaces[0], CAPTURE_VA, fused.dram)
    fused.run_trace(trace[:1])
    assert fused.cache.lookup(captured).state is CacheState.SHARED
    fused.run_trace(trace[1:2])
    assert fused.cache.lookup(captured).state is CacheState.MODIFIED
    stats = fused.run_trace(trace[2:])
    fused_faults = [(f.index + 2, f.level, f.pte_address) for f in stats.faults]

    stepped_values, stepped_faults = run_access(stepped, trace)
    layered_values, layered_faults = run_layered(layered, trace)
    assert fused_faults == stepped_faults == layered_faults
    assert stepped_values == layered_values
    want = simulated_state(layered)
    assert simulated_state(fused) == want
    assert simulated_state(stepped) == want

    # the trace reached every path it is meant to compare
    c = want["counters"]
    assert c["data_hits"] and c["data_misses"] and c["writebacks"]
    assert c["snoops_acked"] and want["lines_manipulated"] and layered_faults
    assert want["lightv"]["data_captures"] >= 2


def test_out_of_range_va_is_rejected():
    m = build(4, False, False)
    for va in (-1, 1 << 39):
        with pytest.raises(ValueError, match="out of range"):
            m.mmu.access(0, va)
        with pytest.raises(ValueError, match="out of range"):
            m.run_trace([(0, "R", va, None)])


def test_write_without_value_fails_before_any_state_moves():
    m = build(4, False, False)
    m.run_trace([(0, "W", PLAIN_VAS[0], 1)])  # warm: the next write would hit
    before = simulated_state(m)
    with pytest.raises(TypeError):
        m.run_trace([(0, "W", PLAIN_VAS[0], None)])
    with pytest.raises(TypeError):
        m.mem_write(0, PLAIN_VAS[1], None)
    assert simulated_state(m) == before


def test_debug_tlb_check_guards_the_hit_path():
    m = build(4, False, True)
    m.mem_read(0, PLAIN_VAS[0])
    m.mem_read(0, PLAIN_VAS[0])  # a clean TLB and cache hit raises nothing
    m.tlb.insert(0, PLAIN_VAS[0] >> 12, 0xDEAD, 0)  # poison the cached frame
    with pytest.raises(AssertionError, match="stale TLB entry"):
        m.mem_read(0, PLAIN_VAS[0])
