"""Differential test: the batched hit loop against the layered path.

`Machine.replay` (which `run_trace` runs) resolves a TLB hit followed by a
cache hit inline, serves an access to either of the two lines it resolved
last without a lookup, tallies those hits in a local, and hands everything
else to the walker and the fabric.  The reference below drives the layers
one call at a time (`translate`, then `read_byte`/`write_byte`), and every
simulated result must come out identical -- including the cycle total and
the counters each fabric miss sees while the loop runs, and the LRU order of
the TLB and of every cache set.  The walk memo `Mmu.translate` replays is
checked the same way, against a twin machine whose memo is always empty.
"""

import hashlib
import random

import pytest

from lightv_sim.addressing import (
    ATTR_CACHEABLE,
    ATTR_WRITABLE,
    PAGE_SHIFT,
    PFN_BITS,
    PTE_PRESENT,
    TranslationFault,
    encode_pte,
    reference_walk,
)
from lightv_sim.coherence import LINE_BYTES, CacheState, FabricGap
from lightv_sim.lightv import RewriteRule, RuleError
from lightv_sim.machine import FAULT_RECORD, Machine, MachineConfig
from lightv_sim.mmu import ASID_SHIFT, PAGE_FIELD, WALK_MEMO_LINES
from lightv_sim.scenarios import _layout_histogram, histogram_workload, iter_histogram_trace

from helpers import cache_snapshot, data_access
from oracles import cycle_law_gap

RW = ATTR_WRITABLE | ATTR_CACHEABLE
PLAIN_VAS = [(8 << 30) + k * 4096 for k in range(6)] + [(8 << 30) | (3 << 21)]
RULE_VA = 9 << 30
CAPTURE_VA = 10 << 30
UNMAPPED_VA = (8 << 30) + 100 * 4096


def build(tlb_entries, cache_ptes, debug_tlb_check, sets=4, ways=2):
    """Active machine with a tiny TLB and cache, one rewrite rule and an
    open capture window over the page at CAPTURE_VA."""
    m = Machine(
        MachineConfig(
            mode="active",
            cache_sets=sets,
            cache_ways=ways,
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


def build_plain(mode, cache_ptes):
    """A machine with no rule and no capture: the pages `build` maps, on a
    cache and TLB as small, so walks miss and walk fills evict."""
    m = Machine(
        MachineConfig(
            mode=mode,
            cache_sets=4,
            cache_ways=2,
            tlb_entries=2,
            cache_ptes=cache_ptes,
            fault_policy=FAULT_RECORD,
        )
    )
    alloc = m.allocator.alloc
    m.register_space(0, [(va, alloc(), RW) for va in PLAIN_VAS + [RULE_VA, CAPTURE_VA]])
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
            m.cci.write_byte(pa, value)
        else:
            values.append(m.cci.read_byte(pa))
    return values, faults


def run_access(m, trace, after=None):
    """`data_access` one access at a time; `after()`, if given, runs after
    each access, faulting or not."""
    values, faults = [], []
    for index, (asid, op, va, value) in enumerate(trace):
        try:
            got = data_access(m, asid, va, op == "W", value)
        except TranslationFault as fault:
            faults.append((index, fault.level, fault.pte_address))
        else:
            if op == "R":
                values.append(got)
        if after is not None:
            after()
    return values, faults


def event_counters(m):
    """The counter snapshot without `total_cycles`, which the logs and
    states below record on their own, ahead of the counters."""
    counters = m.counters.snapshot()
    del counters["total_cycles"]
    return counters


def spy_on_misses(m):
    """Log the cycle total and counters at every snoop the fabric broadcasts
    (the spy NACKs, so it changes nothing); returns the log."""
    log = []

    def spy(line_addr):
        log.append((line_addr, m.counters.total_cycles, event_counters(m)))

    m.cci.register_agent(spy)
    return log


def simulated_state(m):
    return {
        "cycles": m.counters.total_cycles,
        "counters": event_counters(m),
        "dram": (m.dram.reads, m.dram.writes, m.dram.content_digest()),
        "lightv": None if m.config.mode == "absent" else {
            "data_captures": m.lightv.data_captures,
            "context_lost": m.lightv.context_lost,
            "contexts_live": len(m.lightv._ctx_by_id),
        },
        "lines_manipulated": m.tally()["lines_manipulated"],
        "cache": cache_snapshot(m.cache),
        # Each entry as (asid, page), its key decoded, in LRU order.
        "tlb": [
            ((key >> ASID_SHIFT, key & PAGE_FIELD), entry) for key, entry in m.tlb._entries.items()
        ],
    }


def cache_lru(m):
    """Each cache set's line addresses, least recently used first (the
    TLB's order is in `simulated_state`)."""
    return [list(ways) for ways in m.cache._sets]


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
    fused_log, stepped_log, layered_log = map(spy_on_misses, (fused, stepped, layered))

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
    assert cache_lru(fused) == cache_lru(stepped) == cache_lru(layered)
    assert fused_log == stepped_log == layered_log

    # the trace reached every path it is meant to compare
    c = want["counters"]
    assert c["data_hits"] and c["data_misses"] and c["writebacks"]
    assert c["snoops_acked"] and want["lines_manipulated"] and layered_faults
    assert want["lightv"]["data_captures"] >= 2
    assert len(layered_log) > 100


def test_a_failing_access_keeps_the_hits_before_it():
    m, ref = build(4, False, False), build(4, False, False)
    x, y = PLAIN_VAS[0], PLAIN_VAS[1]
    warm = [(0, "W", x, 1), (0, "W", y, 2)]
    # The last read hits the older memo line, on another page: its TLB
    # touch is owed when the write without a value fails.
    hits = [(0, "R", x + k, None) for k in range(3)] + [(0, "R", y, None), (0, "R", x, None)]
    m.run_trace(warm)
    ref.run_trace(warm)
    with pytest.raises(TypeError):
        m.run_trace(hits + [(0, "W", x, None)])
    run_layered(ref, hits)
    assert simulated_state(m) == simulated_state(ref)
    assert cache_lru(m) == cache_lru(ref)
    assert [key & PAGE_FIELD for key in m.tlb._entries][-2:] == [y >> 12, x >> 12]


def test_out_of_range_va_is_rejected():
    m = build(4, False, False)
    for va in (-1, 1 << 39):
        with pytest.raises(ValueError, match="out of range"):
            data_access(m, 0, va)
        with pytest.raises(ValueError, match="out of range"):
            m.run_trace([(0, "R", va, None)])


def test_write_without_value_fails_before_any_state_moves():
    m = build(4, False, False)
    m.run_trace([(0, "W", PLAIN_VAS[0], 1)])  # warm: the next write would hit
    before = simulated_state(m)
    with pytest.raises(TypeError):
        m.run_trace([(0, "W", PLAIN_VAS[0], None)])
    assert simulated_state(m) == before


def test_debug_tlb_check_guards_the_hit_path():
    m = build(4, False, True)
    data_access(m, 0, PLAIN_VAS[0])
    data_access(m, 0, PLAIN_VAS[0])  # a clean TLB and cache hit raises nothing
    # Poison the cached frame with another page's, whose line is cached, so
    # that the stale entry gives a TLB hit and a cache hit.
    data_access(m, 0, PLAIN_VAS[1])
    other = m.mmu.translate(0, PLAIN_VAS[1]) >> 12
    m.tlb._entries[0 << ASID_SHIFT | PLAIN_VAS[0] >> 12] = other, 0
    with pytest.raises(AssertionError, match="stale TLB entry"):
        data_access(m, 0, PLAIN_VAS[0])
    with pytest.raises(AssertionError, match="stale TLB entry"):
        m.run_trace([(0, "R", PLAIN_VAS[0], None)])


def replay_vs_layered(make, trace):
    """Run `trace` in one `run_trace` call on one machine from `make()` and
    layer by layer on another; assert every simulated result agrees and
    return (the first machine, its RunStats)."""
    fused, layered = make(), make()
    fused_log, layered_log = spy_on_misses(fused), spy_on_misses(layered)
    stats = fused.run_trace(trace)
    _, layered_faults = run_layered(layered, trace)
    assert [(f.index, f.level, f.pte_address) for f in stats.faults] == layered_faults
    assert simulated_state(fused) == simulated_state(layered)
    assert cache_lru(fused) == cache_lru(layered)
    assert fused_log == layered_log
    return fused, stats


def test_a_repeated_write_to_a_shared_line_takes_the_upgrade():
    # The captured line arrives SHARED; the second read of it is resolved
    # inline, and the write right after must still take READ_UNIQUE.
    x = CAPTURE_VA + 5
    trace = [(0, "R", x, None), (0, "R", x, None), (0, "W", x, 0xA5),
             (0, "R", x, None), (0, "W", x, 0x5A)]
    m, stats = replay_vs_layered(lambda: build(4, False, False), trace)
    assert (stats.data_hits, stats.data_misses) == (3, 2)
    line = m.cache.lookup(reference_walk(m.spaces[0], x, m.dram) & -LINE_BYTES)
    assert line.state is CacheState.MODIFIED and line.payload[5] == 0x5A


def test_a_repeated_line_in_another_asid_is_not_served_from_the_first():
    va = PLAIN_VAS[0] + 9

    def make():
        m = build(4, False, False)
        m.register_space(1, [(PLAIN_VAS[0], m.allocator.alloc(), RW)])
        return m

    trace = [(0, "W", va, 1), (1, "W", va, 2), (0, "R", va, None), (1, "W", va, 3),
             (1, "R", va, None), (0, "R", va, None)]
    m, _ = replay_vs_layered(make, trace)
    assert (data_access(m, 0, va), data_access(m, 1, va)) == (1, 3)


@pytest.mark.parametrize("middle", ["evict", "fault"])
def test_the_repeat_memo_resets_after_a_full_path_access(middle):
    # x, then w in x's page and another set: the memo holds w and, older,
    # x.  The full-path access to y evicts x's line or faults, and clears
    # the memo, so the next access to x takes the full path.
    x = PLAIN_VAS[0] + 3
    w = x + LINE_BYTES
    y = PLAIN_VAS[1] if middle == "evict" else UNMAPPED_VA
    trace = [(0, "R", x, None), (0, "W", x, 7), (0, "R", w, None), (0, "R", y, None),
             (0, "R", x, None), (0, "W", x, 8)]
    # With cached walk lines, the fills of y's walk push x's line out.
    cache_ptes = middle == "evict"
    probe = build(4, cache_ptes, False)
    probe.run_trace(trace[:3])
    x_line = reference_walk(probe.spaces[0], x, probe.dram) & -LINE_BYTES
    assert probe.cache.lookup(x_line) is not None
    probe.run_trace(trace[3:4])
    assert (probe.cache.lookup(x_line) is None) == cache_ptes
    m, stats = replay_vs_layered(lambda: build(4, cache_ptes, False), trace)
    # evict: x's read after y misses; fault: it is a full-path hit
    assert (stats.data_hits, stats.data_misses, len(stats.faults)) == (
        (2, 4, 0) if middle == "evict" else (3, 2, 1)
    )
    assert data_access(m, 0, x) == 8


@pytest.mark.parametrize("tlb_entries, debug_tlb_check", [(0, False), (4, True), (4, False)])
def test_runs_of_one_line_match_the_layered_path(tlb_entries, debug_tlb_check):
    rng = random.Random(tlb_entries + debug_tlb_check)
    trace = []
    for _ in range(60):
        line = rng.choice(PLAIN_VAS + [RULE_VA, CAPTURE_VA]) + rng.randrange(4) * LINE_BYTES
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.4:
                trace.append((0, "W", line + rng.randrange(64), rng.randrange(256)))
            else:
                trace.append((0, "R", line + rng.randrange(64), None))
    _, stats = replay_vs_layered(lambda: build(tlb_entries, False, debug_tlb_check), trace)
    assert stats.data_hits > len(trace) // 2 and stats.data_misses


# The two lines of each pairing.  Frames are page-aligned, so in a 4-set
# cache two lines share a set when their line numbers within their pages
# agree mod 4; in a 1-set cache every line shares the one set.
TWO_LINE_PAIRS = {
    "same-page-same-set": (PLAIN_VAS[0] + 64, PLAIN_VAS[0] + 5 * 64),
    "same-page-other-set": (PLAIN_VAS[0] + 64, PLAIN_VAS[0] + 2 * 64),
    "other-page-same-set": (PLAIN_VAS[0] + 64, PLAIN_VAS[1] + 64),
    "other-page-other-set": (PLAIN_VAS[0] + 64, PLAIN_VAS[1] + 2 * 64),
}


def two_line_trace(rng, x, y, n=300):
    """Accesses that mostly alternate between the lines at x and y, with
    runs on one line and, now and then, a burst of other lines: another
    line of x's or y's page, a line of a third or fourth page, a captured
    (SHARED) line, a fault."""
    others = [x + 8 * 64, y + 3 * 64, PLAIN_VAS[2], PLAIN_VAS[3] + 64, CAPTURE_VA + 64,
              UNMAPPED_VA]
    trace, line = [], x
    while len(trace) < n:
        roll = rng.random()
        if roll < 0.6:
            line = y if line == x else x
        burst = [rng.choice(others) for _ in range(rng.randint(1, 3))] if roll > 0.85 else []
        for va in [line] + burst:
            if rng.random() < 0.3:
                trace.append((0, "W", va + rng.randrange(64), rng.randrange(256)))
            else:
                trace.append((0, "R", va + rng.randrange(64), None))
    return trace


def lockstep(fused, stepped, trace, rng, longest=40):
    """Run `trace` on `fused` by `run_trace` in chunks of random length, so
    that chunks end with and without a TLB touch owed, and on `stepped` one
    `data_access` at a time; after each chunk the TLB and cache LRU orders
    must agree.  Returns the fused run's faults."""
    faults, start = [], 0
    while start < len(trace):
        chunk = trace[start : start + rng.randint(1, longest)]
        stats = fused.run_trace(chunk)
        faults += [(f.index + start, f.level, f.pte_address) for f in stats.faults]
        run_access(stepped, chunk)
        assert list(fused.tlb._entries) == list(stepped.tlb._entries)
        assert cache_lru(fused) == cache_lru(stepped)
        start += len(chunk)
    return faults


# A TLB of 3 holds a third page beside the two memo pages, and a fourth
# evicts one of the three, so a touch paid late or not at all before a TLB
# hit on the third page changes a victim.
@pytest.mark.parametrize("pairing", sorted(TWO_LINE_PAIRS))
@pytest.mark.parametrize("sets, ways", [(4, 1), (1, 2), (4, 2)])
@pytest.mark.parametrize("tlb_entries", [1, 2, 3])
def test_two_line_memo_keeps_every_lru_order(tlb_entries, sets, ways, pairing):
    x, y = TWO_LINE_PAIRS[pairing]
    for seed in range(8):
        rng = random.Random(seed)
        trace = two_line_trace(rng, x, y)
        fused, stepped, layered = (
            build(tlb_entries, False, False, sets, ways) for _ in range(3)
        )
        logs = [spy_on_misses(m) for m in (fused, stepped, layered)]
        fused_faults = lockstep(fused, stepped, trace, rng, longest=16)
        _, layered_faults = run_layered(layered, trace)
        assert fused_faults == layered_faults
        assert simulated_state(fused) == simulated_state(stepped) == simulated_state(layered)
        assert cache_lru(fused) == cache_lru(layered)
        assert logs[0] == logs[1] == logs[2]


@pytest.mark.parametrize("ways", [1, 2])
@pytest.mark.parametrize("tlb_entries", [2, 64])
def test_two_line_memo_on_the_histogram_trace(tlb_entries, ways):
    # Per image byte: a read of the image line, then a read and a write of
    # a shuffled hot-page line; the image read hits the older memo line.
    w = histogram_workload(0.0002, seed=5)
    trace = list(iter_histogram_trace(w))

    def make():
        m = Machine(MachineConfig(mode="active", cache_sets=4, cache_ways=ways,
                                  tlb_entries=tlb_entries))
        _, rule = _layout_histogram(m, w)
        m.activate_rules([rule])
        return m

    fused, stepped = make(), make()
    fused_log, stepped_log = spy_on_misses(fused), spy_on_misses(stepped)
    lockstep(fused, stepped, trace, random.Random(tlb_entries + ways), longest=4096)
    assert simulated_state(fused) == simulated_state(stepped)
    assert cache_lru(fused) == cache_lru(stepped)
    assert fused_log == stepped_log
    assert stepped.counters.data_hits > len(trace) // 2


def miss_path_cases():
    """(case, machine, trace seed): every `test_fused_path_matches_layered_path`
    machine, then rule-free machines in absent and passive mode."""
    for tlb_entries in (0, 4):
        for cache_ptes in (False, True):
            for debug_tlb_check in (False, True):
                m = build(tlb_entries, cache_ptes, debug_tlb_check)
                seed = tlb_entries + 2 * cache_ptes
                yield f"active-{tlb_entries}-{cache_ptes}-{debug_tlb_check}", m, seed
    for mode in ("absent", "passive"):
        for cache_ptes in (False, True):
            yield f"{mode}-{cache_ptes}", build_plain(mode, cache_ptes), 5 + cache_ptes


def miss_path_digest(m, seed):
    """Three digests of the run: one of the values read, the faults and
    `simulated_state`, one of each cache set's final LRU order, and one of
    each set's LRU order after every access."""
    first, upgrade = (0, "R", CAPTURE_VA + 5, None), (0, "W", CAPTURE_VA + 5, 0xA5)
    orders = hashlib.sha256()
    result = run_access(
        m,
        [first, upgrade] + random_trace(seed),
        after=lambda: orders.update(repr(cache_lru(m)).encode()),
    )
    return (
        hashlib.sha256(repr((result, simulated_state(m))).encode()).hexdigest(),
        hashlib.sha256(repr(cache_lru(m)).encode()).hexdigest(),
        orders.hexdigest(),
    )


# `miss_path_digest` per case.  The first digest was recorded before walk
# reads had a fabric transaction of their own: the walk transaction must
# keep every value read, fault, cycle, counter, cache line and TLB entry.
# The second, recorded with the two-line replay memo in place, pins the
# LRU order of every cache set, which `simulated_state`'s sorted cache
# snapshot does not.  The third, recorded before the data transaction ran
# in one body, pins every set's LRU order after each access of the run.
MISS_PATH_GOLDENS = {
    "active-0-False-False": (
        "6899c962c78d54e0de6b63e28c36b4d6d759a24b350bc35130d2de584ac2aa73",
        "22fab93eab232fd00d0fedbc8ce2e96d2d5bd0cc60c7f7e4ef04fa56c694ceae",
        "7f522ab9cbaee44558959b4ae5dc7f51c2a3ed09c2414245c98830178c50c368",
    ),
    "active-0-False-True": (
        "6899c962c78d54e0de6b63e28c36b4d6d759a24b350bc35130d2de584ac2aa73",
        "22fab93eab232fd00d0fedbc8ce2e96d2d5bd0cc60c7f7e4ef04fa56c694ceae",
        "7f522ab9cbaee44558959b4ae5dc7f51c2a3ed09c2414245c98830178c50c368",
    ),
    "active-0-True-False": (
        "cc100d79b276fafb405fb4c44e825991c786a2849a12927fd81928aa76c60d7a",
        "37a2f9f88f84bed88e4295b196b760376650ffb4c211fabe090f37898ed8f6e4",
        "703aa34c0ff0fafe4fb9bfe91320d9ec8ff0175695d8d6665cc88e9e01275ccd",
    ),
    "active-0-True-True": (
        "cc100d79b276fafb405fb4c44e825991c786a2849a12927fd81928aa76c60d7a",
        "37a2f9f88f84bed88e4295b196b760376650ffb4c211fabe090f37898ed8f6e4",
        "703aa34c0ff0fafe4fb9bfe91320d9ec8ff0175695d8d6665cc88e9e01275ccd",
    ),
    "active-4-False-False": (
        "e23347e86792eb11fcc87c6365550689508b496b773b3cab794394015fcf4799",
        "6e56997ed084c889aea431f1f0f87b7a9d9986b234c46020a945d21cfe9a8034",
        "cc1dc2d4de837e363ff5567c359b5bd40ebb3f180108d34a3794c050a9d93442",
    ),
    "active-4-False-True": (
        "e23347e86792eb11fcc87c6365550689508b496b773b3cab794394015fcf4799",
        "6e56997ed084c889aea431f1f0f87b7a9d9986b234c46020a945d21cfe9a8034",
        "cc1dc2d4de837e363ff5567c359b5bd40ebb3f180108d34a3794c050a9d93442",
    ),
    "active-4-True-False": (
        "a86bc14ac36487df01aaf28b5ab459e8f74ff7b8a3afe6f1e5fbe1802a10c820",
        "7dc444a70165edd1959716135d8586ec45f07ba4006a0fb2809eea8a475a8587",
        "2fd24c5ae63434418cdd5cd758594f46da787a8d4cbf91d66d87fa617c26ce0d",
    ),
    "active-4-True-True": (
        "a86bc14ac36487df01aaf28b5ab459e8f74ff7b8a3afe6f1e5fbe1802a10c820",
        "7dc444a70165edd1959716135d8586ec45f07ba4006a0fb2809eea8a475a8587",
        "2fd24c5ae63434418cdd5cd758594f46da787a8d4cbf91d66d87fa617c26ce0d",
    ),
    "absent-False": (
        "0df5c76c2851eca395fccd17b95baedd2df6c617b9512a2c802e0ecf5b01d647",
        "f165fccd9a26f3375519c57331bf5f87da07884ac458f36acea432655a7ec20f",
        "fbc71be3b5a7698f894425a71430a166b5b5da8876499bda7951c1032e3d4f00",
    ),
    "absent-True": (
        "634faedae96c3b833e5b60413e2f50bf1d19a126dcf97dca37af711cd4fafd51",
        "2f48e8404bbc03b57f9387243a826d6b395505e37409407a4ccc5c7395fd2862",
        "3f31b645e080cb8249aa80da15a6d999e47c72ca42c65b825eb9fe456f44315b",
    ),
    "passive-False": (
        "027a8a701df67a612948ee6e3a0f0b4507ce118bb9cd0e4b5a20007d60f60d69",
        "f165fccd9a26f3375519c57331bf5f87da07884ac458f36acea432655a7ec20f",
        "fbc71be3b5a7698f894425a71430a166b5b5da8876499bda7951c1032e3d4f00",
    ),
    "passive-True": (
        "f0095d1319f059f262fad867a30e6629861d1743e48f1226f9bb06a9f729421a",
        "2f48e8404bbc03b57f9387243a826d6b395505e37409407a4ccc5c7395fd2862",
        "3f31b645e080cb8249aa80da15a6d999e47c72ca42c65b825eb9fe456f44315b",
    ),
}


def test_miss_path_matches_recorded_goldens():
    got, gaps = {}, {}
    for case, m, seed in miss_path_cases():
        got[case] = miss_path_digest(m, seed)
        gaps[case] = cycle_law_gap(m)
    assert got == MISS_PATH_GOLDENS
    assert gaps == dict.fromkeys(MISS_PATH_GOLDENS, 0)


# -- the walk memo that `Mmu.translate` replays -----------------------------

TABLE_VA = 11 << 30  # asid 1's page over asid 0's leaf table of PLAIN_VAS[:6]
# Pages whose leaf entries share a line with a page of PLAIN_VAS or RULE_VA:
# RULE_VA's neighbour is mapped (no rule covers it), slots 6 and 7 of
# PLAIN_VAS[:6]'s leaf line are not.
SIBLING_VAS = [RULE_VA + 4096, PLAIN_VAS[5] + 4096, PLAIN_VAS[5] + 2 * 4096]
_FRAME_FIELD = ((1 << PFN_BITS) - 1) << PAGE_SHIFT


def descriptor(m, va, level):
    """Address of the level-`level` descriptor a walk of asid 0's `va`
    reads, by the entries DRAM holds now (present or not)."""
    base = m.spaces[0].pgd_base
    for lvl, shift in enumerate((30, 21, PAGE_SHIFT)):
        addr = base + ((va >> shift) & 0x1FF) * 8
        if lvl == level:
            return addr
        base = m.dram.read_qword(addr) & _FRAME_FIELD


def build_memo_machine(mode, cache_ptes):
    """A machine on which every input of a walk can change: asid 0 maps
    PLAIN_VAS and RULE_VA; asid 1 maps TABLE_VA over asid 0's leaf table,
    so data accesses fill and dirty a walked line; the first of
    SIBLING_VAS is mapped too; `copy` is a data frame
    holding that leaf table with PLAIN_VAS[1] mapped elsewhere, for moving
    the level-1 entry to and back and for capture windows (it is no table
    frame, so a window may cover it); `src` is a capture source holding the
    table's first line with PLAIN_VAS[0] mapped elsewhere."""
    m = Machine(
        MachineConfig(
            mode=mode, cache_sets=4, cache_ways=2, tlb_entries=0, cache_ptes=cache_ptes
        )
    )
    alloc = m.allocator.alloc
    m.register_space(0, [(va, alloc(), RW) for va in PLAIN_VAS + [RULE_VA] + SIBLING_VAS[:1]])
    leaf_table = descriptor(m, PLAIN_VAS[0], 2) & ~0xFFF
    m.register_space(1, [(TABLE_VA, leaf_table >> PAGE_SHIFT, RW)])
    m.copy, m.src, m.elsewhere = alloc() << PAGE_SHIFT, alloc() << PAGE_SHIFT, alloc()
    m.tables = (leaf_table, m.copy)
    m.dram.write_bytes(m.copy, m.dram.read_bytes(leaf_table, 4096))
    m.dram.write_qword(m.copy + 8, encode_pte(True, m.elsewhere, RW))
    m.dram.write_bytes(m.src, m.dram.read_bytes(leaf_table, 64))
    m.dram.write_qword(m.src, encode_pte(True, m.elsewhere, RW))
    m.rules = [
        RewriteRule(1, 0, RULE_VA, RULE_VA + 4096, alloc()),
        RewriteRule(2, 0, PLAIN_VAS[0], PLAIN_VAS[6], m.allocator.alloc_run(6).start),
    ]
    return m


def random_memo_ops(rng, mode, n):
    """About `n` operations: mostly accesses, then every kind of change to
    a walk's inputs that the machine's mode allows.  A table edit is a
    toggle between accesses that favour the page it edits, undone after a
    few of them, so the tables stay close to their mapped state; moves,
    rule changes and capture windows persist."""
    kinds = ["access"] * 12 + ["flip", "flip", "move", "rewrite", "poke", "poke"]
    if mode != "absent":
        kinds += ["capture", "release", "close"]
    if mode == "active":
        kinds += ["rule", "rule"]
    pages = PLAIN_VAS + [RULE_VA]

    def access(page=None):
        if page is None or rng.random() < 0.5:
            page = rng.choice(pages + SIBLING_VAS + [UNMAPPED_VA])
        value = rng.randrange(256) if rng.random() < 0.3 else None
        return "access", page + rng.randrange(4096), value

    for _ in range(n):
        kind = rng.choice(kinds)
        if kind == "access":
            yield access()
        elif kind in ("flip", "rewrite", "poke"):
            # flip edits any page's walk; rewrite and poke one of PLAIN_VAS[:6]
            edit = (kind, rng.randrange(8 if kind == "flip" else 6), rng.randrange(3))
            yield access(pages[edit[1]])
            yield edit
            for _ in range(rng.randrange(4)):
                yield access(pages[edit[1]])
            yield edit
        elif kind == "rule":
            yield kind, rng.randrange(2), None
        else:
            yield kind, None, None


def apply_memo_op(m, op, translate_reads=False):
    """Run one operation; returns what it returned or raised.  With
    `translate_reads`, a read only translates its address."""
    kind, arg, extra = op
    try:
        if kind == "access":
            if extra is None and translate_reads:
                return m.mmu.translate(0, arg)
            return data_access(m, 0, arg, extra is not None, extra)
        if kind == "flip":  # the present bit of one level's descriptor
            addr = descriptor(m, (PLAIN_VAS + [RULE_VA])[arg], extra)
            m.dram.write_qword(addr, m.dram.read_qword(addr) ^ PTE_PRESENT)
        elif kind == "move":  # the level-1 entry over PLAIN_VAS[:6], to `copy` and back
            addr = descriptor(m, PLAIN_VAS[0], 1)
            raw = m.dram.read_qword(addr)
            now = raw & _FRAME_FIELD
            other = m.tables[1] if now == m.tables[0] else m.tables[0]
            m.dram.write_qword(addr, raw & ~_FRAME_FIELD | other)
        elif kind == "rewrite":  # one leaf entry of `copy`, through write_bytes
            addr = m.copy + arg * 8
            m.dram.write_bytes(addr, (m.dram.read_qword(addr) ^ PTE_PRESENT).to_bytes(8, "little"))
        elif kind == "poke":  # one leaf entry's present bit, through the PE cache
            va = TABLE_VA + arg * 8
            data_access(m, 1, va, True, data_access(m, 1, va) ^ PTE_PRESENT)
            if extra == 0:  # and written back at once
                m.invalidate_page_lines(m.tables[0])
        elif kind == "rule":
            rule = m.rules[arg]
            if rule.rule_id in m.lightv.rules:
                m.deactivate_rule(rule.rule_id)
            else:
                m.activate_rules([rule], strict=False)
        elif kind == "capture":
            m.lightv.begin_page_capture({m.copy: m.src})
        elif kind == "release":
            m.lightv.release_captured([m.copy])
        else:
            m.lightv.end_page_capture()
    except (TranslationFault, FabricGap, RuleError) as exc:
        return type(exc).__name__, str(exc)
    return None


def compare_with_memo_emptied_twin(mode, cache_ptes, translate_reads):
    """A machine against a twin whose memo is emptied before every step,
    compared after every step.  The twin registers no agent: a foreign
    agent would turn the memo off on both."""
    memo, twin = build_memo_machine(mode, cache_ptes), build_memo_machine(mode, cache_ptes)
    walk_reads = {}
    for m in (memo, twin):
        real = m.cci.walk_read
        walk_reads[m] = calls = []
        m.cci.walk_read = lambda *args, real=real, calls=calls: calls.append(1) or real(*args)
    rng = random.Random(f"{mode}-{cache_ptes}")
    for step, op in enumerate(random_memo_ops(rng, mode, 1500)):
        twin.dram.walk_memo.forget()
        got = apply_memo_op(memo, op, translate_reads)
        assert got == apply_memo_op(twin, op, translate_reads), (step, op)
        assert simulated_state(memo) == simulated_state(twin), (step, op)
        assert cache_lru(memo) == cache_lru(twin), (step, op)
    # the memo replayed walks unless PTE caching turned it off
    replayed = len(walk_reads[twin]) - len(walk_reads[memo])
    assert (replayed > 0) != cache_ptes and replayed >= 0
    assert memo.counters.walk_hits and memo.counters.writebacks
    assert cycle_law_gap(memo) == cycle_law_gap(twin) == 0


@pytest.mark.parametrize("cache_ptes", [False, True])
@pytest.mark.parametrize("mode", ["absent", "passive", "active"])
def test_walk_memo_matches_walks_with_no_memo(mode, cache_ptes):
    compare_with_memo_emptied_twin(mode, cache_ptes, translate_reads=False)


@pytest.mark.parametrize("cache_ptes", [False, True])
@pytest.mark.parametrize("mode", ["absent", "passive", "active"])
def test_walk_memo_matches_walks_with_no_memo_through_translate(mode, cache_ptes):
    """The same operations, each read a bare `translate`: the hazards,
    `verify` and migration reach the memo that way, with no data access."""
    compare_with_memo_emptied_twin(mode, cache_ptes, translate_reads=True)


def test_walk_memo_never_passes_its_bound():
    # one page per leaf line, so each page stores a leaf line of its own
    m = Machine(MachineConfig(tlb_entries=0))
    pages = [(1 << 30) + k * 8 * 4096 for k in range(WALK_MEMO_LINES + 100)]
    m.register_space(0, [(va, 0x9_0000 + k, RW) for k, va in enumerate(pages)])
    sizes = set()
    for va in pages:
        data_access(m, 0, va)
        sizes.add(len(m.dram.walk_memo.walks))
    assert max(sizes) == WALK_MEMO_LINES and len(m.dram.walk_memo.walks) == 100
    assert m.counters.walk_reads == 3 * len(pages)


def test_a_fill_of_a_served_walk_line_drops_the_memo():
    """Asid 1 maps a data page onto the level-2 watermark frame of RULE_VA's
    context.  Reading it after a walk of RULE_VA was stored makes LightV's
    ACK fill the PE cache with the watermark line that walk read, which no
    DRAM read logs; the walk of the other page of that leaf line must then
    hit that line, as it does on a twin whose memo is emptied."""
    data_va = 12 << 30
    machines = []
    for _ in range(2):
        m = Machine(MachineConfig(mode="active", tlb_entries=0))
        m.register_space(0, [(RULE_VA, m.allocator.alloc(), RW), (RULE_VA + 4096, m.allocator.alloc(), RW)])
        m.activate_rules([RewriteRule(1, 0, RULE_VA, RULE_VA + 2 * 4096, m.allocator.alloc_run(2).start)])
        ctx = m.lightv._ctx_by_key[0, (RULE_VA >> 30, 0)]
        leaf_frame = m.lightv.window.encode(2, ctx.context_id)
        m.register_space(1, [(data_va, leaf_frame, RW)])
        machines.append(m)
    memo, twin = machines
    outcomes = []
    for m in machines:
        m.mmu.translate(0, RULE_VA)
        if m is memo:
            assert memo.dram.walk_memo.walks
        twin.dram.walk_memo.forget()
        data_access(m, 1, data_va)  # the leaf line of RULE_VA and its neighbour
        assert m.cache.lookup(leaf_frame << PAGE_SHIFT) is not None
        twin.dram.walk_memo.forget()
        hits = m.counters.walk_hits
        outcomes.append(m.mmu.translate(0, RULE_VA + 4096 + 5))
        assert m.counters.walk_hits == hits + 1
    assert outcomes[0] == outcomes[1]
    assert memo.tally() == twin.tally()
    assert cycle_law_gap(memo) == cycle_law_gap(twin) == 0


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("mode", ["absent", "passive", "active"])
def test_an_allocating_walk_fill_of_a_walked_line_drops_the_memo(mode, level):
    """`cache_ptes` is fixed for a machine's life, so `Mmu` never both
    stores walks and allocates; only a direct allocating `walk_read` fills
    a line of a stored walk.  The walk of a sibling page must then hit
    that line, as it does on a twin whose memo is emptied.  In active mode
    the walk's level-0 line is a served one."""
    (memo, pages), (twin, _) = leaf_runs_machine(mode), leaf_runs_machine(mode)
    walked, sibling = pages[8], pages[11]  # one leaf line, outside every rule
    for m in (memo, twin):
        m.mmu.translate(0, walked)
    assert memo.dram.walk_memo.walks
    line = descriptor(memo, walked, level) & ~63
    outcomes = []
    for m in (memo, twin):
        twin.dram.walk_memo.forget()
        m.cci.walk_read(line, allocate=True)
        assert m.cache.lookup(line) is not None
        twin.dram.walk_memo.forget()
        hits = m.counters.walk_hits
        outcomes.append(m.mmu.translate(0, sibling))
        assert m.counters.walk_hits == hits + 1
    assert outcomes[0] == outcomes[1]
    assert simulated_state(memo) == simulated_state(twin)
    assert cache_lru(memo) == cache_lru(twin)


def _write_through(m, port, addr, value):
    """Store the qword `value` at `addr` through one DRAM write port."""
    data = value.to_bytes(8, "little")
    if port == "write_line":
        line_addr, off = addr & ~63, addr & 63
        line = bytearray(m.dram.read_bytes(line_addr, 64))
        line[off : off + 8] = data
        m.dram.write_line(line_addr, line)
    elif port == "write_qword":
        m.dram.write_qword(addr, value)
    else:
        m.dram.write_bytes(addr, data)


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("port", ["write_line", "write_qword", "write_bytes"])
def test_a_dram_write_to_a_walked_line_drops_the_memo(port, level):
    """Every DRAM write port stores through `Dram._store`, which drops the
    memo when a stored walk read the line it writes.  Clearing the present
    bit of a descriptor of a stored walk must make a sibling page fault as
    it does on a twin whose memo is emptied.  The machine is active, so the
    walk's level-0 line is a served one, built from the line written."""
    (memo, pages), (twin, _) = leaf_runs_machine("active"), leaf_runs_machine("active")
    walked, sibling = pages[8], pages[11]  # one leaf line, outside every rule
    for m in (memo, twin):
        m.mmu.translate(0, walked)
    assert memo.dram.walk_memo.walks
    addr = descriptor(memo, sibling, level)  # in a line the walk of `walked` read
    assert addr & ~63 == descriptor(memo, walked, level) & ~63
    outcomes = []
    for m in (memo, twin):
        twin.dram.walk_memo.forget()
        _write_through(m, port, addr, m.dram.read_qword(addr) & ~PTE_PRESENT)
        try:
            outcomes.append(m.mmu.translate(0, sibling))
        except TranslationFault as fault:
            outcomes.append((fault.level, fault.pte_address))
    assert outcomes[0] == outcomes[1] == (level, addr)
    assert simulated_state(memo) == simulated_state(twin)


def leaf_runs_machine(mode, runs=4, holes=()):
    """A machine on a 4x2 cache and a 2-entry TLB mapping `runs` runs of 8
    pages, each run aligned on one leaf line, but for the pages in `holes`;
    in active mode a rule redirects each run in the first level-0 slot,
    which holds every second run."""
    m = Machine(
        MachineConfig(mode=mode, cache_sets=4, cache_ways=2, tlb_entries=2, fault_policy=FAULT_RECORD)
    )
    runs = [((1 + k % 2) << 30) + k * (1 << 21) + (k % 3) * 8 * 4096 for k in range(runs)]
    pages = [base + j * 4096 for base in runs for j in range(8)]
    m.register_space(0, [(va, 0x9_0000 + k, RW) for k, va in enumerate(pages) if va not in holes])
    if mode == "active":
        m.activate_rules(
            [
                RewriteRule(k + 1, 0, base, base + 8 * 4096, 0xA_0000 + 8 * k)
                for k, base in enumerate(runs[::2])
            ],
            strict=False,
        )
    return m, pages


@pytest.mark.parametrize("mode", ["absent", "passive", "active"])
def test_a_leaf_line_walks_once_for_its_eight_pages(mode):
    (memo, pages), (twin, _) = leaf_runs_machine(mode), leaf_runs_machine(mode)
    walk_reads = {}
    for m in (memo, twin):
        real = m.cci.walk_read
        walk_reads[m] = calls = []
        m.cci.walk_read = lambda *args, real=real, calls=calls: calls.append(args[0]) or real(*args)
    rng = random.Random(mode)
    for _ in range(800):
        va = rng.choice(pages) + rng.randrange(4096)
        value = rng.randrange(256) if rng.random() < 0.3 else None
        twin.dram.walk_memo.forget()
        got = data_access(memo, 0, va, value is not None, value)
        assert got == data_access(twin, 0, va, value is not None, value)
        assert simulated_state(memo) == simulated_state(twin)
        assert cache_lru(memo) == cache_lru(twin)
    # one real walk (three walk reads) per leaf line, each line walked
    assert len(walk_reads[memo]) == 3 * len(pages) // 8
    assert len(walk_reads[twin]) > 10 * len(walk_reads[memo])
    assert len(memo.dram.walk_memo.walks) == len(pages) // 8
    assert memo.counters.walk_reads == twin.counters.walk_reads > 800


@pytest.mark.parametrize("mode", ["absent", "passive", "active"])
def test_a_missing_sibling_faults_like_a_walk(mode):
    (memo, pages), (twin, _) = (leaf_runs_machine(mode, holes={(1 << 30) + 5 * 4096}) for _ in "ab")
    hole = pages[5]
    for m in (memo, twin):
        data_access(m, 0, pages[0])
    deltas, faults = [], []
    for m in (memo, twin):
        twin.dram.walk_memo.forget()
        before = m.tally()
        with pytest.raises(TranslationFault) as fault:
            data_access(m, 0, hole + 7)
        after = m.tally()
        deltas.append({k: after[k] - before[k] for k in after})
        faults.append((fault.value.level, fault.value.pte_address))
    assert deltas[0] == deltas[1] and deltas[0]["walk_reads"] == 3
    assert faults[0] == faults[1] and faults[0][0] == 2
    entries, _ = memo.dram.walk_memo.walks[(0 << ASID_SHIFT | pages[0] >> 12) >> 3]
    assert not entries[5] & PTE_PRESENT and entries[4] & PTE_PRESENT
    assert simulated_state(memo) == simulated_state(twin)


@pytest.mark.parametrize("edit", ["present", "frame"])
def test_a_leaf_entry_write_reaches_its_sibling(edit):
    (memo, pages), (twin, _) = leaf_runs_machine("absent"), leaf_runs_machine("absent")
    sibling = pages[3]
    for m in (memo, twin):
        data_access(m, 0, pages[0])
        data_access(m, 0, sibling, True, 0x5A)
        m.flush_cache()
    entry = descriptor(memo, sibling, 2)
    assert memo.dram.walk_memo.walks and entry == descriptor(twin, sibling, 2)
    results = []
    for m in (memo, twin):
        twin.dram.walk_memo.forget()
        raw = m.dram.read_qword(entry)
        new = raw ^ PTE_PRESENT if edit == "present" else raw + (1 << PAGE_SHIFT)
        m.dram.write_qword(entry, new)
        m.tlb.invalidate_range(0, sibling, sibling + 4096)
        try:
            results.append(data_access(m, 0, sibling))
        except TranslationFault as fault:
            results.append((fault.level, fault.pte_address))
    assert results[0] == results[1] == ((2, entry) if edit == "present" else 0)
    assert simulated_state(memo) == simulated_state(twin)


# (snoops, SHA-256 of `spy_on_misses`'s log) per machine, recorded before
# walks had a memo.
FOREIGN_AGENT_LOGS = {
    "absent": (4514, "a8c72545ba1d59974089e86b980e4a6620d3ea54113d69ed649d3c6e9589afbf"),
    "passive": (4514, "a8c72545ba1d59974089e86b980e4a6620d3ea54113d69ed649d3c6e9589afbf"),
    "active": (2192, "c436e7e6a7129745278aec0ab84ffb314be8efa11c5a80f55321ced0045776ac"),
}


@pytest.mark.parametrize("mode", list(FOREIGN_AGENT_LOGS))
def test_a_foreign_agent_sees_every_snoop(mode):
    m = build(4, False, False) if mode == "active" else build_plain(mode, False)
    log = spy_on_misses(m)
    m.run_trace(random_trace(seed=5, n=2000))
    digest = hashlib.sha256(repr(log).encode()).hexdigest()
    assert (len(log), digest) == FOREIGN_AGENT_LOGS[mode]
    assert not m.dram.walk_memo.walks


def test_a_faulting_walk_faults_every_time():
    m = build_plain("passive", False)
    deltas = []
    for _ in range(2):
        before = m.tally()
        with pytest.raises(TranslationFault) as fault:
            m.mmu.translate(0, UNMAPPED_VA)
        after = m.tally()
        deltas.append(({k: after[k] - before[k] for k in after}, fault.value.level))
    assert deltas[0] == deltas[1] and deltas[0][0]["walk_reads"] == 3
    assert not m.dram.walk_memo.walks
