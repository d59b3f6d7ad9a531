import random

import pytest

from lightv_sim import lightv as lv
from lightv_sim.addressing import (
    ATTR_CACHEABLE,
    ATTR_USER,
    ATTR_WRITABLE,
    PTE_PRESENT,
    MappingError,
    TranslationFault,
    decode_pte,
)
from lightv_sim.coherence import FabricGap
from lightv_sim.lightv import (
    IsolationError,
    RewriteRule,
    RuleError,
    WatermarkWindow,
    parse_rules,
)
from lightv_sim.machine import AllocatorExhausted

from helpers import make_machine
from oracles import (
    activation_error,
    capture_error,
    present_entries_by_entry,
    rule_lookups,
    served_chunk,
)

RW = ATTR_WRITABLE | ATTR_CACHEABLE
WINDOW = WatermarkWindow(0x20_0000)
# DRAM from 2 GiB to 14 GiB, with the watermark window moved above it
BIG_DRAM = {"dram_size": 0x3_0000_0000, "watermark_base_pfn": 0x40_0000}


def active_machine(pages, **overrides):
    m = make_machine("active", **overrides)
    m.register_space(0, [(va, pfn, RW) for va, pfn in pages])
    return m


def one_rule_machine(target=8 << 30, pages_extra=(), rule_pages=1, **overrides):
    pages = [(target + k * 4096, 0x90000 + k) for k in range(rule_pages)]
    pages += list(pages_extra)
    m = active_machine(pages, **overrides)
    repl = 0xA0000
    rule = RewriteRule(1, 0, target, target + rule_pages * 4096, repl)
    return m, rule, repl


# -- watermark codec ---------------------------------------------------------


def test_watermark_roundtrip_spot():
    assert WINDOW.decode(WINDOW.encode(1, 7)) == (1, 7)
    assert WINDOW.decode(WINDOW.encode(2, 4095)) == (2, 4095)


def test_watermark_decode_outside_window():
    assert WINDOW.decode(0x80000) is None
    assert WINDOW.decode(0x90000) is None


def test_watermark_encode_validation():
    with pytest.raises(ValueError):
        WINDOW.encode(0, 1)
    with pytest.raises(ValueError):
        WINDOW.encode(3, 1)
    with pytest.raises(ValueError):
        WINDOW.encode(1, 4096)


def test_watermark_window_alignment():
    with pytest.raises(ValueError):
        WatermarkWindow(0x20_0001)
    with pytest.raises(ValueError):
        WatermarkWindow(1 << 28)  # aligned but past the frame-number range


# -- activation and the watch set ---------------------------------------------


def test_empty_rule_list_behaves_passive():
    m, _, _ = one_rule_machine()
    m.activate_rules([])
    assert m.lightv.watch == {}
    assert m.lightv.handle_snoop(m.spaces[0].pgd_base) is None


def test_single_rule_watches_the_pgd_line():
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    pgd_base = m.spaces[0].pgd_base
    expected_line = (pgd_base + 8 * 8) & ~63
    assert set(m.lightv.watch) == {expected_line}
    assert m.lightv.watch[expected_line] == [(0, 8, pgd_base)]


def test_two_rules_one_line_two_contexts():
    # slots 8 and 9 live in the same 64-byte table line
    pages = [(8 << 30, 0x90000), (9 << 30, 0x90001)]
    m = active_machine(pages)
    rules = [
        RewriteRule(1, 0, 8 << 30, (8 << 30) + 4096, 0xA0000),
        RewriteRule(2, 0, 9 << 30, (9 << 30) + 4096, 0xA0001),
    ]
    m.activate_rules(rules)
    assert len(m.lightv.watch) == 1
    level1 = [c for c in m.lightv._ctx_by_id.values() if c.level == 1]
    assert sorted(c.prefix for c in level1) == [(8,), (9,)]


def test_activation_invalidates_target_tlb():
    m, rule, repl = one_rule_machine()
    pa_before = m.mmu.translate(0, 8 << 30)
    m.activate_rules([rule])
    reads = m.counters.walk_reads
    pa_after = m.mmu.translate(0, 8 << 30)
    assert m.counters.walk_reads == reads + 3  # re-walked, not the stale TLB entry
    assert pa_after == repl << 12
    assert pa_before != pa_after


def test_activation_flushes_stale_watched_lines():
    # with PTE caching on, a pre-activation walk caches the real PGD line;
    # activation must purge it or the redirect never engages
    m, rule, repl = one_rule_machine(cache_ptes=True)
    m.mmu.translate(0, 8 << 30)
    m.activate_rules([rule])
    assert m.mmu.translate(0, 8 << 30) == repl << 12


def test_activation_flushes_a_cached_line_that_gains_a_slot():
    # slots 8 and 9 share one level-0 line; with PTE caching on, the walk
    # under rule 1 caches that line as served for slot 8 alone
    m = active_machine([(8 << 30, 0x90000), (9 << 30, 0x90001)], cache_ptes=True)
    m.activate_rules([RewriteRule(1, 0, 8 << 30, (8 << 30) + 4096, 0xA0000)])
    assert m.mmu.translate(0, 8 << 30) == 0xA0000 << 12
    m.activate_rules([RewriteRule(2, 0, 9 << 30, (9 << 30) + 4096, 0xA0001)])
    assert m.mmu.translate(0, 9 << 30) == 0xA0001 << 12
    assert m.mmu.translate(0, 8 << 30) == 0xA0000 << 12


def test_rule_validation_errors():
    m, rule, _ = one_rule_machine()
    with pytest.raises(RuleError, match="aligned"):
        RewriteRule(9, 0, 0x100, 0x1100, 0xA0000).validate()
    with pytest.raises(RuleError, match="span"):
        RewriteRule(9, 0, 0x2000, 0x2000, 0xA0000).validate()
    with pytest.raises(RuleError, match="asid"):
        m.activate_rules([RewriteRule(9, 5, 8 << 30, (8 << 30) + 4096, 0xA0000)])
    with pytest.raises(RuleError, match="aperture"):
        m.activate_rules([RewriteRule(9, 0, 8 << 30, (8 << 30) + 4096, 0x20_0000)])


def test_unknown_attribute_override_bits_fail_activation_before_any_change():
    m, rule, _ = one_rule_machine()
    before = agent_state(m)
    bad = RewriteRule(1, 0, rule.va_start, rule.va_end, rule.replacement_base_pfn, 0x10)
    with pytest.raises(RuleError, match="rule 1: unknown attribute override bits"):
        m.activate_rules([bad])
    assert agent_state(m) == before


def test_overlapping_rules_rejected():
    m, rule, _ = one_rule_machine(rule_pages=2)
    other = RewriteRule(2, 0, rule.va_start + 4096, rule.va_start + 8192, 0xA8000)
    with pytest.raises(RuleError, match="overlap"):
        m.activate_rules([rule, other])
    m.activate_rules([rule])
    with pytest.raises(RuleError, match="overlap"):
        m.activate_rules([other])


def test_duplicate_rule_id_rejected():
    m, rule, _ = one_rule_machine()
    twin = RewriteRule(1, 0, 9 << 30, (9 << 30) + 4096, 0xA8000)
    with pytest.raises(RuleError, match="given twice"):
        m.activate_rules([rule, twin], strict=False)
    assert m.lightv.rules == {} and m.lightv._ctx_by_id == {}
    m.activate_rules([rule])
    with pytest.raises(RuleError, match="already active"):
        m.activate_rules([twin])


def test_strict_rejects_unmapped_target():
    m = active_machine([(8 << 30, 0x90000)])
    rule = RewriteRule(1, 0, 9 << 30, (9 << 30) + 4096, 0xA0000)
    with pytest.raises(IsolationError, match="pre-mapped"):
        m.activate_rules([rule], strict=True)
    m.activate_rules([rule], strict=False)


def test_strict_rejects_shared_level0_slot():
    pages = [(8 << 30, 0x90000), ((8 << 30) | (1 << 21), 0x90001)]
    m = active_machine(pages)
    rule = RewriteRule(1, 0, 8 << 30, (8 << 30) + 4096, 0xA0000)
    with pytest.raises(IsolationError, match="shares level-0"):
        m.activate_rules([rule], strict=True)


def test_strict_error_names_first_rule_in_call_order():
    # three rules share slot 8 with one unruled neighbour; slot 9 is clean
    ruled = [(8 << 30) | (i1 << 21) for i1 in (0, 1, 2)]
    neighbour = (8 << 30) | (5 << 21) | (3 << 12)
    pages = [(va, 0x90000 + k) for k, va in enumerate(ruled + [neighbour, 9 << 30])]
    m = active_machine(pages)
    rules = [RewriteRule(4, 0, 9 << 30, (9 << 30) + 4096, 0xA0004)]
    rules += [
        RewriteRule(3 - k, 0, va, va + 4096, 0xA0000 + k) for k, va in enumerate(ruled)
    ]
    with pytest.raises(IsolationError) as err:
        m.activate_rules(rules, strict=True)
    assert str(err.value) == "rule 3: neighbour mapping 0x200a03000 shares level-0 slot 8"
    assert m.lightv.rules == {} and m.lightv.watch == {}


def test_strict_scans_each_level0_slot_once(monkeypatch):
    # 16 rules of 2 pages in 2 slots, 2 level-2 tables per slot
    TABLES, RULES_PER_TABLE, RULE_PAGES = 2, 4, 2
    rules, pages = [], []
    for i0 in (8, 9):
        for i1 in range(TABLES):
            for r in range(RULES_PER_TABLE):
                va = (i0 << 30) | (i1 << 21) | (r * 16 << 12)
                pfn = 0x90000 + len(pages)
                pages += [(va + k * 4096, pfn + k) for k in range(RULE_PAGES)]
                rules.append(RewriteRule(len(rules) + 1, 0, va, va + RULE_PAGES * 4096,
                                         0xA0000 + len(pages)))
    m = active_machine(pages)
    reads = []
    raw_read = type(m.dram).read_qword
    monkeypatch.setattr(type(m.dram), "read_qword", lambda d, a: reads.append(a) or raw_read(d, a))
    m.activate_rules(rules, strict=True)
    per_slot_scan = 1 + 512 + 512 * TABLES  # level-0 entry, level-1 table, level-2 tables
    premapped = 3 * len(pages)  # one reference walk per page
    contexts = 2 * 1 + 2 * TABLES * 2  # table-base reads of the new contexts
    assert len(reads) <= 2 * per_slot_scan + premapped + contexts


def test_strict_scan_reads_uncounted_and_names_the_first_neighbour():
    # neighbours in two level-1 slots of slot 8; the scan goes in (i1, i2) order
    ruled = 8 << 30
    neighbours = [ruled | (i1 << 21) | (i2 << 12) for i1, i2 in ((5, 9), (3, 200), (3, 7))]
    pages = [(ruled, 0x90000)] + [(va, 0x90001 + k) for k, va in enumerate(neighbours)]
    m = active_machine(pages)
    counts = m.dram.reads, m.dram.writes
    with pytest.raises(IsolationError) as err:
        m.activate_rules([RewriteRule(1, 0, ruled, ruled + 4096, 0xA0000)], strict=True)
    assert str(err.value) == "rule 1: neighbour mapping 0x200607000 shares level-0 slot 8"
    assert (m.dram.reads, m.dram.writes) == counts
    m = active_machine([(ruled, 0x90000), (9 << 30, 0x90001)])
    counts = m.dram.reads, m.dram.writes
    m.activate_rules([RewriteRule(1, 0, ruled, ruled + 4096, 0xA0000)], strict=True)
    assert (m.dram.reads, m.dram.writes) == counts


def test_strict_accepts_joint_coverage():
    # two rules that jointly own the slot's mappings pass the strict check
    pages = [(8 << 30, 0x90000), ((8 << 30) | (1 << 21), 0x90001)]
    m = active_machine(pages)
    rules = [
        RewriteRule(1, 0, 8 << 30, (8 << 30) + 4096, 0xA0000),
        RewriteRule(2, 0, (8 << 30) | (1 << 21), ((8 << 30) | (1 << 21)) + 4096, 0xA0001),
    ]
    m.activate_rules(rules, strict=True)



def test_activation_extends_the_rule_lookups_as_a_rebuild_would():
    # `activate` extends the lookups for its own rules only; after any run
    # of activations and deactivations they must equal a rebuild from every
    # active rule, and the lines it returns those a rebuild gives
    rng = random.Random(29)
    for _ in range(25):
        m = make_machine("active")
        # four pages under each of slots 8-17 (two level-0 lines) of asid 0
        # and slots 8-9 of asid 1
        for asid, slots in ((0, range(8, 18)), (1, (8, 9))):
            m.register_space(asid, [
                ((i0 << 30) + (k << 12), 0x90000 + (asid << 12) + (i0 << 4) + k, RW)
                for i0 in slots for k in range(4)
            ])
        agent = m.lightv
        next_id = 1
        for _ in range(30):
            if agent.rules and rng.random() < 0.3:
                agent.deactivate(rng.choice(list(agent.rules)))
            else:
                batch = []
                for _ in range(rng.randint(1, 3)):
                    asid = rng.choice((0, 0, 1))
                    i0 = rng.choice((8, 9) if asid else range(8, 18))
                    start = (i0 << 30) + (rng.randrange(4) << 12)
                    end = start + (rng.randint(1, 3) << 12)
                    if rng.random() < 0.2 and i0 not in (9, 17):  # into the next slot
                        end = ((i0 + 1) << 30) + (rng.randint(1, 4) << 12)
                    batch.append(RewriteRule(next_id, asid, start, end, 0xA0000 + 8 * next_id))
                    next_id += 1
                old_watch = {line: list(slots) for line, slots in agent.watch.items()}
                chunks = agent._chunk_lines(batch) if agent._ctx_by_key else []
                state = agent_state(m)
                try:
                    ranges, lines = agent.activate(batch, strict=False)
                except RuleError:  # an overlap
                    assert agent_state(m) == state
                    continue
                _, watch = rule_lookups(agent)
                expected = [line for line, slots in watch if slots != old_watch.get(line)]
                assert lines == expected + chunks
                assert ranges == [(r.asid, r.va_start, r.va_end) for r in batch]
            by_slot, watch = rule_lookups(agent)
            assert list(agent._rules_by_slot.items()) == by_slot
            assert list(agent.watch.items()) == watch
            assert list(agent._bounds) == list(agent.rules)
            for rule_id, (rule, *bounds) in agent._bounds.items():
                run = rule.replacement_run
                assert rule is agent.rules[rule_id]
                assert bounds == [rule.asid, rule.va_start, rule.va_end, run.start, run.stop]


def test_present_entries_match_a_per_entry_reference():
    # empty, one-entry (first, last, anywhere), sparse, around the switch
    # to one whole unpack, all-but-one and full tables; the entries that
    # are not present hold random bits with the present bit clear
    rng = random.Random(17)
    cases = [set(), {0}, {511}, {rng.randrange(512)}, set(range(1, 512)), set(range(511))]
    for count in (2, 8, 24, 25, 32, 100, 511, 512):
        cases += [set(rng.sample(range(512), count)) for _ in range(4)]
    for present in cases:
        table = b"".join(
            (rng.getrandbits(64) | 1 if i in present else rng.getrandbits(64) & ~1).to_bytes(8, "little")
            for i in range(512)
        )
        got = list(lv._present_entries(table))
        assert got == present_entries_by_entry(table)
        assert [i for i, _ in got] == sorted(present)

# -- snoop handling ------------------------------------------------------------


def test_snoop_unrelated_line_nacks():
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    assert m.lightv.handle_snoop(0x8000_0000) is None


def test_passive_mode_always_nacks():
    m = make_machine("passive")
    m.register_space(0, [(8 << 30, 0x90000, RW)])
    assert m.lightv.watch == {} and m.lightv._ctx_by_id == {}
    assert m.lightv.handle_snoop(m.spaces[0].pgd_base) is None
    m.mmu.translate(0, 8 << 30)
    assert (m.counters.snoops_issued, m.counters.snoops_acked) == (3, 0)
    assert m.lightv.lines_manipulated == m.lightv.context_lost == 0


def test_watched_line_differs_only_at_target_entries():
    extra = [((9 << 30) + k * 4096, 0x91000 + k) for k in range(3)]
    m, rule, _ = one_rule_machine(pages_extra=extra)
    m.activate_rules([rule])
    line_addr = next(iter(m.lightv.watch))
    real = bytes(m.dram.read_line(line_addr))
    reads = m.dram.reads
    payload, serve_cycles = m.lightv.handle_snoop(line_addr)
    assert len(payload) == 64
    assert serve_cycles == m.config.latencies.lightv + m.config.latencies.dram
    assert m.dram.reads == reads + 1  # the real line, read once
    assert m.dram.read_line(line_addr) == real  # rewritten in a copy
    changed = {
        i // 8
        for i in range(64)
        if payload[i] != real[i]
    }
    assert changed == {8 % 8}  # only the target's slot within the line
    # the rewritten entry is present and points into the watermark window
    raw = int.from_bytes(payload[0:8], "little")
    present, pfn, attrs = decode_pte(raw)
    assert present and m.lightv.window.contains_pfn(pfn)
    assert m.lightv.window.decode(pfn)[0] == 1
    # neighbouring entries decode to real frames, never watermarks
    for slot in range(1, 8):
        raw = int.from_bytes(payload[slot * 8 : slot * 8 + 8], "little")
        _, pfn, _ = decode_pte(raw)
        assert not m.lightv.window.contains_pfn(pfn)


def test_path_check_states():
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    pgd_line = next(iter(m.lightv.watch))
    assert m.lightv.path_check(pgd_line) is m.lightv.watch[pgd_line]
    assert m.lightv.path_check(pgd_line) == [(0, 8, m.spaces[0].pgd_base)]
    assert m.lightv.path_check(0x8000_0000) is None
    ctx = m.lightv._ctx_by_key[(0, (8,))]
    wm_line = m.lightv.window.encode(1, ctx.context_id) << 12
    assert m.lightv.path_check(wm_line) is ctx
    # a watermark whose level disagrees with its context is a lost context
    wrong_level = m.lightv.window.encode(2, ctx.context_id) << 12
    assert m.lightv.path_check(wrong_level) is None
    assert m.lightv.context_lost == 1


def test_leaf_chunk_carries_replacement_and_merged_attrs():
    m, rule, repl = one_rule_machine()
    rule = RewriteRule(
        rule.rule_id, 0, rule.va_start, rule.va_end, repl, attr_overrides=ATTR_WRITABLE
    )
    m.activate_rules([rule])
    m.mmu.translate(0, 8 << 30)  # populate context table bases via the walk
    ctx = m.lightv._ctx_by_key[(0, (8, 0))]
    wm_frame = m.lightv.window.encode(2, ctx.context_id) << 12
    payload, _ = m.lightv.handle_snoop(wm_frame)  # chunk holding index2 = 0
    raw = int.from_bytes(payload[0:8], "little")
    present, pfn, attrs = decode_pte(raw)
    assert (present, pfn) == (True, repl)
    assert attrs == RW | ATTR_WRITABLE  # original attrs merged with override


def test_wm_chunk_off_path_slots_are_blank():
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    m.mmu.translate(0, 8 << 30)
    ctx = m.lightv._ctx_by_key[(0, (8, 0))]
    wm_frame = m.lightv.window.encode(2, ctx.context_id) << 12
    payload, _ = m.lightv.handle_snoop(wm_frame)
    assert payload[8:] == bytes(56)  # everything but the single leaf slot


def test_manipulate_line_identity_off_path():
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    ctx = m.lightv._ctx_by_key[(0, (8,))]
    wm_frame = m.lightv.window.encode(1, ctx.context_id) << 12
    # a chunk whose slots are all outside the rule's index1 span
    off_path_line = wm_frame + 8 * 64
    match = m.lightv.path_check(off_path_line)
    assert match is ctx
    assert m.lightv.manipulate_line(match, off_path_line) == bytes(64)


def test_context_lost_is_diagnosed_and_unclaimed():
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    dead_line = m.lightv.window.encode(2, 99) << 12  # no such context
    assert m.lightv.handle_snoop(dead_line) is None
    assert m.lightv.context_lost == 1
    with pytest.raises(FabricGap):
        m.cci.read_byte(dead_line)


def test_context_capacity_bound(monkeypatch):
    monkeypatch.setattr(lv, "CONTEXT_CAPACITY", 4)
    m = active_machine([(k << 30, 0x90000 + k) for k in range(4)])
    rules = [
        RewriteRule(k + 1, 0, k << 30, (k << 30) + 4096, 0xA0000 + k) for k in range(4)
    ]
    with pytest.raises(lv.ContextCapacityError):
        m.activate_rules(rules)


def test_failed_activation_leaves_no_trace():
    # five 2 GiB rules need 5 x 2 x 513 contexts, more than the cache holds;
    # a 12 GiB DRAM aperture holds their five disjoint replacement runs
    m = active_machine(
        [(k << 31, 0x90000 + k) for k in range(5)] + [(11 << 30, 0x91000)],
        **BIG_DRAM,
    )
    big = [
        RewriteRule(k + 1, 0, k << 31, (k + 1) << 31, 0x10_0000 + k * 0x8_0000)
        for k in range(5)
    ]
    with pytest.raises(lv.ContextCapacityError):
        m.activate_rules(big, strict=False)
    assert m.lightv.rules == {} and m.lightv.watch == {}
    assert m.lightv._ctx_by_id == {} and m.lightv._ctx_by_key == {}
    assert m.lightv._rules_by_slot == {}
    m.activate_rules([RewriteRule(9, 0, 11 << 30, (11 << 30) + 4096, 0xA0000)])
    assert m.mmu.translate(0, 11 << 30) == 0xA0000 << 12


def agent_state(m):
    """Everything `activate` and `begin_page_capture` may change on the agent."""
    agent = m.lightv
    return (
        dict(agent.rules),
        repr(agent.watch),
        repr(agent._ctx_by_key),
        dict(agent._rules_by_slot),
        list(agent._free_ids),
        dict(agent.captures),
        dict(agent._mirror),
    )


def machine_state(m):
    """Everything a failed `register_space` must leave as it found it."""
    return m.allocator.next_pfn, m.dram.content_digest(), dict(m.spaces), agent_state(m)


def _activation_case(rng):
    """A machine with some rules active and a walk memo filled, and a
    random batch of rules to activate strictly.

    Slots 8, 9 and 10 share a level-0 line, slot 40 has one.  Slot 11 and
    level-1 index 7 are never mapped, and each leaf table has holes, so a
    range can miss an entry at any level.  Replacement runs come from a
    small pool, so they often meet, or start on a page-table frame.
    """
    pages = []
    for i0 in (8, 9, 10):
        for i1 in (0, 1, 5):
            pages += [(i0 << 30) | (i1 << 21) | (i2 << 12)
                      for i2 in (*range(24), *range(504, 512)) if rng.random() < 0.7]
    pages += [(40 << 30) | (k << 12) for k in range(4)]
    m = active_machine([(va, 0x90000 + n) for n, va in enumerate(pages)])
    tables = sorted(m.spaces[0].table_pfns)

    def random_rule(rule_id):
        if rng.random() < 0.2:
            va_start, size = 40 << 30, 4
        else:
            if rng.random() < 0.6:
                va_start = rng.choice(pages)
            elif rng.random() < 0.5 and m.lightv.rules:
                va_start = rng.choice(list(m.lightv.rules.values())).va_start
            else:  # may run into the next level-1 index
                va_start = (rng.choice((8, 9, 11)) << 30) | (rng.choice((1, 5, 7)) << 21)
                va_start -= rng.randrange(4) << 12
            size = rng.randint(1, 10)
        base = rng.choice((0xA0000 + rng.randrange(24), 0xA0000 + rng.randrange(24),
                           rng.choice(tables) - rng.randrange(2)))
        return RewriteRule(rule_id, 0, va_start, va_start + size * 4096, base)

    for rule_id in (1, 2, 3)[: rng.randint(0, 3)]:
        rule = random_rule(rule_id)
        if activation_error(m.lightv, [rule], strict=False) is None:
            m.activate_rules([rule], strict=False)
    for va in rng.sample(pages, 6) + [(40 << 30) | 4096]:
        try:
            m.mmu.translate(0, va)
        except TranslationFault:
            pass  # an unruled neighbour of a loose rule
    return m, [random_rule(rng.randint(1, 12)) for _ in range(rng.randint(1, 4))]


def _error_kind(error, agent):
    if error is None:
        return "activated"
    text = error[1]
    if text.endswith("overlap"):
        other = int(text.split()[3])
        return "overlaps an active rule" if other in agent.rules else "overlaps a batch rule"
    for kind in ("share replacement frames", "hold page tables", "outside DRAM aperture",
                 "neighbour mapping", "given twice", "already active",
                 "level 0 ", "level 1 ", "level 2 "):
        if kind in text:
            return kind
    return text


def test_strict_activation_matches_a_reference_that_reads_every_entry():
    rng = random.Random(21)
    kinds = set()
    for case in range(400):
        m, batch = _activation_case(rng)
        expected = activation_error(m.lightv, batch)
        kinds.add(_error_kind(expected, m.lightv))
        before = agent_state(m)
        memo = dict(m.dram.walk_memo.walks)
        assert memo, case
        try:
            m.activate_rules(batch)
        except RuleError as exc:
            assert (type(exc).__name__, str(exc)) == expected, case
            assert agent_state(m) == before and m.dram.walk_memo.walks == memo, case
        else:
            assert expected is None, case
            assert all(m.lightv.rules[r.rule_id] is r for r in batch)
    assert kinds == {
        "activated", "overlaps an active rule", "overlaps a batch rule",
        "share replacement frames", "hold page tables", "outside DRAM aperture",
        "neighbour mapping", "given twice", "already active", "level 0 ", "level 1 ", "level 2 ",
    }


def test_activation_rejects_a_run_over_page_tables():
    m, rule, _ = one_rule_machine()
    other = m.register_space(1, [(9 << 30, 0x90100, RW)])
    level1_pfn = decode_pte(m.dram.read_qword(other.pgd_base + 9 * 8))[1]
    leaf_table_pfn = decode_pte(m.dram.read_qword(level1_pfn << 12))[1]  # index1 0
    before = agent_state(m)
    # the run's first frame is asid 0's level-0 table; its second is asid
    # 1's leaf table
    for base in (m.spaces[0].pgd_base >> 12, leaf_table_pfn - 1):
        bad = RewriteRule(1, 0, 8 << 30, (8 << 30) + 2 * 4096, base)
        with pytest.raises(RuleError, match="hold page tables"):
            m.activate_rules([bad], strict=False)
        assert agent_state(m) == before
    m.activate_rules([rule])
    assert m.mmu.translate(0, 8 << 30) == 0xA0000 << 12


def test_activation_rejects_runs_shared_within_a_call():
    pages = [(8 << 30, 0x90000), (8 << 30 | 4096, 0x90001), (9 << 30, 0x90002)]
    m = active_machine(pages)
    rules = [
        RewriteRule(1, 0, 8 << 30, (8 << 30) + 2 * 4096, 0xA0000),
        RewriteRule(2, 0, 9 << 30, (9 << 30) + 4096, 0xA0001),
    ]
    before = agent_state(m)
    with pytest.raises(RuleError, match="rules 2 and 1 share replacement frames"):
        m.activate_rules(rules)
    assert agent_state(m) == before
    m.activate_rules(rules[:1])
    assert m.mmu.translate(0, 9 << 30) == 0x90002 << 12


def test_activation_rejects_a_run_shared_with_an_active_rule():
    m, rule, _ = one_rule_machine(pages_extra=[(9 << 30, 0x90100)])
    m.activate_rules([rule])
    # a different asid: replacement frames are physical, so asids do not part them
    m.register_space(1, [(9 << 30, 0x90101, RW)])
    before = agent_state(m)
    for asid in (0, 1):
        clash = RewriteRule(2, asid, 9 << 30, (9 << 30) + 4096, 0xA0000)
        with pytest.raises(RuleError, match="rules 2 and 1 share replacement frames"):
            m.activate_rules([clash])
        assert agent_state(m) == before
    m.activate_rules([RewriteRule(2, 1, 9 << 30, (9 << 30) + 4096, 0xA0001)])
    assert m.mmu.translate(1, 9 << 30) == 0xA0001 << 12


def test_failed_capture_leaves_no_trace():
    # the second pair's source is misaligned; the first pair is good
    m, rule, _ = one_rule_machine()
    pairs = {0x9100_0000: 0x9200_0000, 0x9100_0040: 0x9200_0001}
    with pytest.raises(ValueError, match="aligned"):
        m.lightv.begin_page_capture(pairs)
    assert m.lightv.watch == {} and m.lightv._mirror == {}
    assert m.lightv.captures == {}
    m.activate_rules([rule])
    assert m.lightv.handle_snoop(0x9100_0000) is None  # not served from 0x92000000


@pytest.mark.parametrize("port", ["access", "walk_read"])
def test_a_mirrored_writeback_inside_a_fill_keeps_what_the_fill_read(port):
    """A fill that evicts a Modified captured line writes it back, and the
    mirror then writes its source line in DRAM, in place.  When the fill's
    own line is that source line, it is cached (and a walk read returns
    it) as DRAM held it before the writeback."""
    src, dst = 0x90000 << 12, 0x90001 << 12
    m = make_machine("active", cache_sets=1, cache_ways=1)
    m.dram.write_bytes(src, bytes(range(64)))
    m.lightv.begin_page_capture({dst: src})
    m.cci.access(dst + 1, True, 0xA5)  # served from src, then Modified
    if port == "access":
        assert m.cci.access(src + 1, False) == 1
    else:
        assert m.cci.walk_read(src, allocate=True) == bytes(range(64))
    assert m.cache.lookup(src).payload == bytes(range(64))
    assert m.dram.read_bytes(src, 3) == bytes([0, 0xA5, 2])  # the mirrored writeback


def test_capture_rejects_a_watched_table_line():
    # a capture window on the rule's level-0 line would replace its watch
    m, rule, repl = one_rule_machine()
    m.activate_rules([rule])
    pgd_line = next(iter(m.lightv.watch))
    state = agent_state(m)
    with pytest.raises(ValueError, match="lies in a page table of asid 0"):
        m.lightv.begin_page_capture({0x9100_0000: 0x9200_0000, pgd_line: 0x9200_0040})
    assert agent_state(m) == state
    m.lightv.end_page_capture()
    m.tlb.invalidate_range(0, 8 << 30, (8 << 30) + 4096)
    m.cci.invalidate_line(pgd_line)
    assert m.mmu.translate(0, 8 << 30) == repl << 12


def test_capture_rejects_page_table_lines():
    # a destination in a table frame would have table reads served from its
    # source; a source in one would have captured writebacks mirrored over it
    m, rule, repl = one_rule_machine()
    other = m.register_space(1, [(9 << 30, 0x90100, RW)])
    m.activate_rules([rule])
    level1_pfn = decode_pte(m.dram.read_qword(other.pgd_base + 9 * 8))[1]
    state = agent_state(m)
    bad = [
        {0x9100_0000: 0x9200_0000, (level1_pfn << 12) + 0x40: 0x9200_0040},
        {0x9100_0000: 0x9200_0000, 0x9100_0040: m.spaces[0].pgd_base + 0x80},
    ]
    for pairs, asid in zip(bad, (1, 0)):
        with pytest.raises(ValueError, match=f"lies in a page table of asid {asid}"):
            m.lightv.begin_page_capture(pairs)
        assert agent_state(m) == state
    # the rule's own replacement frame stays capturable, as migration needs
    m.lightv.begin_page_capture({repl << 12: 0x9100_0000})
    assert m.mmu.translate(0, 8 << 30) == repl << 12


def test_capture_rejects_lines_outside_the_dram_aperture():
    # a destination on a watermark line would have the next walk read the
    # source bytes as a table; a source past the aperture would fail only
    # when its destination is read, after the miss was counted
    m, rule, repl = one_rule_machine()
    m.activate_rules([rule])
    ctx = m.lightv._ctx_by_key[(0, (8,))]
    wm_line = m.lightv.window.encode(1, ctx.context_id) << 12
    state = agent_state(m)
    for pairs, line in (
        ({0x9100_0000: 0x9200_0000, wm_line: 0x9200_0040}, wm_line),
        ({0x9100_0000: 0x10_0000_0000}, 0x10_0000_0000),
    ):
        with pytest.raises(ValueError, match=f"capture line {line:#x} outside DRAM aperture"):
            m.lightv.begin_page_capture(pairs)
        assert agent_state(m) == state
    assert m.mmu.translate(0, 8 << 30) == repl << 12


def test_register_space_keeps_tables_off_capture_windows():
    # the five table frames of the space below are the run from next_pfn;
    # a window opened there before the space exists, on a destination or a
    # source, would have table reads served from elsewhere or overwritten
    m = make_machine("active")
    first = m.allocator.next_pfn
    pgd_line = (first << 12) + 8 * 8
    mappings = [(8 << 30, 0x90000, RW), (9 << 30, 0x90001, RW)]
    for pairs, line in (
        ({pgd_line: 0x9200_0000}, pgd_line),
        ({0x9200_0000: ((first + 4) << 12) + 0xFC0}, ((first + 4) << 12) + 0xFC0),
    ):
        m.lightv.begin_page_capture(pairs)
        state = machine_state(m)
        with pytest.raises(MappingError, match=f"capture line {line:#x} lies in a page table of asid 0"):
            m.register_space(0, mappings)
        assert machine_state(m) == state
        m.lightv.end_page_capture()
    m.lightv.begin_page_capture({0x9200_0000: (first + 5) << 12})  # past the run
    m.register_space(0, mappings)
    m.lightv.end_page_capture()
    assert m.allocator.next_pfn == first + 5
    assert pgd_line == (m.spaces[0].pgd_base + 8 * 8) & ~63
    rules = [
        RewriteRule(1, 0, 8 << 30, (8 << 30) + 4096, 0xA0000),
        RewriteRule(2, 0, 9 << 30, (9 << 30) + 4096, 0xA0001),
    ]
    m.activate_rules(rules)
    assert m.mmu.translate(0, 9 << 30) == 0xA0001 << 12


def test_capture_names_the_first_bad_line_of_a_page_window():
    # Each frame is checked once, at its first line; the error must still
    # name the line the per-line checks would: the first misaligned line
    # of any pair, else the first line outside the aperture or in a table
    # frame, in pair order, destination before source.
    m, rule, repl = one_rule_machine()
    m.register_space(1, [(9 << 30, 0x90100, RW)])
    m.activate_rules([rule])
    tables = sorted(pfn << 12 for space in m.spaces.values() for pfn in space.table_pfns)
    bad_lines = [
        lambda off: tables[0] + off,  # the level-0 table of asid 0
        lambda off: tables[-1] + off,  # a leaf table of asid 1
        lambda off: 0x10_0000_0000 + off,  # past the aperture
        lambda off: 0x7FFF_F000 + off,  # below it
        lambda off: 0x9300_0000 + off + 8,  # misaligned
    ]
    rng = random.Random(3)
    state = agent_state(m)
    for case in range(200):
        dst, src = 0x9100_0000, 0x9200_0000
        pairs = [[dst + off, src + off] for off in range(0, 4096, 64)]
        for _ in range(rng.randint(1, 3)):
            off = rng.randrange(0, 4096, 64)
            pairs[rng.randrange(64)][rng.randrange(2)] = rng.choice(bad_lines)(off)
        pairs = dict(pairs)
        expected = capture_error(m.lightv, pairs)
        if expected is None:  # two bad destinations landed on one key
            continue
        with pytest.raises(ValueError) as err:
            m.lightv.begin_page_capture(pairs)
        assert type(err.value) is ValueError and str(err.value) == expected, case
        assert agent_state(m) == state
    # pair 20's source in a table frame, a later line of that frame, then
    # a line outside the aperture: the first of them is named
    pairs = {0x9100_0000 + off: 0x9200_0000 + off for off in range(0, 4096, 64)}
    pairs[0x9100_0000 + 20 * 64] = tables[0] + 0x80
    pairs[0x9100_0000 + 30 * 64] = tables[0] + 0x40
    pairs[0x9100_0000 + 40 * 64] = 0x10_0000_0000
    with pytest.raises(ValueError) as err:
        m.lightv.begin_page_capture(pairs)
    assert str(err.value) == f"capture line {tables[0] + 0x80:#x} lies in a page table of asid 0"
    pairs[0x9100_0000 + 10 * 64] = 0x10_0000_0040
    with pytest.raises(ValueError) as err:
        m.lightv.begin_page_capture(pairs)
    assert str(err.value) == "capture line 0x1000000040 outside DRAM aperture"
    assert agent_state(m) == state


@pytest.mark.parametrize("bad, message", [
    ((10 << 30, 0x90101, RW), "conflicting duplicate mapping for 0x280000000"),
    ((11 << 30, 0x90102, 0x10), "unknown attribute bits: 0x10"),
])
def test_register_space_checks_every_mapping_first(bad, message):
    # the good mappings before the bad one would take table frames and
    # write entries if the tables were built as the mappings are read
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    state = machine_state(m)
    with pytest.raises(MappingError, match=message):
        m.register_space(1, [(9 << 30, 0x90100, RW), (10 << 30, 0x90101, 0), bad])
    assert machine_state(m) == state
    m.register_space(1, [(9 << 30, 0x90100, RW)])
    assert m.mmu.translate(1, 9 << 30) == 0x90100 << 12


def test_register_space_rejects_tables_past_the_aperture_before_taking_a_frame():
    # four frames of DRAM; the space needs five table frames
    m = make_machine("active", dram_size=4 * 4096)
    state = machine_state(m)
    with pytest.raises(AllocatorExhausted):
        m.register_space(0, [(8 << 30, 0x90000, RW), (9 << 30, 0x90001, RW)])
    assert machine_state(m) == state
    m.register_space(0, [(8 << 30, 0x90000, RW)])
    assert m.allocator.next_pfn == state[0] + 3


# -- end-to-end redirection, transparency, deactivation -------------------------


def test_rule_across_a_level0_boundary():
    # one rule over 4 pages each side of the slot 8 / slot 9 boundary
    lo = (9 << 30) - 4 * 4096
    pages = [(lo + k * 4096, 0x90000 + k) for k in range(8)]
    m = active_machine(pages, tlb_entries=4)
    repl = 0xA0000
    m.activate_rules([RewriteRule(1, 0, lo, lo + 8 * 4096, repl)], strict=True)
    assert {i0 for _, i0, _ in m.lightv.watch[next(iter(m.lightv.watch))]} == {8, 9}
    trace = [(0, "W", va + k, k + 1) for k, (va, _) in enumerate(pages)]
    trace += [(0, "R", va + k, None) for k, (va, _) in enumerate(pages)]
    stats = m.run_trace(trace)
    assert stats.lines_manipulated > 0
    for k, (va, pfn) in enumerate(pages):
        assert m.lightv.expected_pa(0, va + k) == ((repl + k) << 12) + k
        assert m.mmu.translate(0, va + k) == ((repl + k) << 12) + k
    m.flush_cache()
    for k, (va, pfn) in enumerate(pages):
        assert m.read_frame(repl + k)[k] == k + 1
        assert not any(m.read_frame(pfn))
    m.deactivate_rule(1)
    for k, (va, pfn) in enumerate(pages):
        assert m.mmu.translate(0, va + k) == (pfn << 12) + k
        assert m.lightv.expected_pa(0, va + k) == (pfn << 12) + k
    m.run_trace([(0, "W", va, 0x5A) for va, _ in pages])
    m.flush_cache()
    assert all(m.read_frame(pfn)[0] == 0x5A for _, pfn in pages)



def test_redirection_and_transparency():
    extra = [((9 << 30) + k * 4096, 0x91000 + k) for k in range(4)]
    baseline = make_machine("absent")
    baseline.register_space(
        0, [(8 << 30, 0x90000, RW)] + [(va, pfn, RW) for va, pfn in extra]
    )
    m, rule, repl = one_rule_machine(pages_extra=extra)
    m.activate_rules([rule])
    for va, _ in extra:
        for off in (0, 0x7FF):
            assert (
                m.mmu.translate(0, va + off)
                == baseline.mmu.translate(0, va + off)
            )
    assert m.mmu.translate(0, (8 << 30) + 0x40) == (repl << 12) + 0x40


def test_deactivate_restores_baseline():
    m, rule, repl = one_rule_machine()
    pa_before = m.mmu.translate(0, 8 << 30)
    m.activate_rules([rule])
    assert m.mmu.translate(0, 8 << 30) == repl << 12
    m.deactivate_rule(1)
    assert m.lightv.watch == {}
    assert m.lightv._ctx_by_id == {}
    reads = m.counters.walk_reads
    assert m.mmu.translate(0, 8 << 30) == pa_before
    assert m.counters.walk_reads == reads + 3


def test_deactivate_purges_cached_watermarks():
    m, rule, repl = one_rule_machine(cache_ptes=True, tlb_entries=0)
    m.activate_rules([rule])
    assert m.mmu.translate(0, 8 << 30) == repl << 12
    m.deactivate_rule(1)
    assert m.mmu.translate(0, 8 << 30) == 0x90000 << 12


def test_double_deactivate_errors():
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    m.deactivate_rule(1)
    with pytest.raises(RuleError, match="unknown rule"):
        m.deactivate_rule(1)


def test_deactivate_keeps_sibling_rule_on_shared_line():
    pages = [(8 << 30, 0x90000), (9 << 30, 0x90001)]
    m = active_machine(pages)
    rules = [
        RewriteRule(1, 0, 8 << 30, (8 << 30) + 4096, 0xA0000),
        RewriteRule(2, 0, 9 << 30, (9 << 30) + 4096, 0xA0001),
    ]
    m.activate_rules(rules)
    m.deactivate_rule(1)
    assert m.mmu.translate(0, 8 << 30) == 0x90000 << 12
    assert m.mmu.translate(0, 9 << 30) == 0xA0001 << 12


@pytest.mark.xfail(
    strict=True,
    raises=TranslationFault,
    reason="the watermark chunk leaves an entry no rule covers non-present, so the"
    " page of a rule removed from a still-watched level-0 slot faults at level 2",
)
@pytest.mark.parametrize("cache_ptes", [False, True])
def test_deactivate_under_a_shared_slot_restores_the_real_frame(cache_ptes):
    a = 8 << 30
    m = active_machine([(a, 0x90000), (a + 4096, 0x90001)], cache_ptes=cache_ptes)
    m.activate_rules([
        RewriteRule(1, 0, a, a + 4096, 0xA0000),
        RewriteRule(2, 0, a + 4096, a + 8192, 0xA0001),
    ])
    m.deactivate_rule(1)
    assert m.mmu.translate(0, a) == m.lightv.expected_pa(0, a)


def test_cache_robustness_under_pte_caching():
    # interleave target / non-target walks with PTE caching on and no TLB:
    # cached watermark lines must keep redirection and transparency intact
    rng = random.Random(31)
    extra = [((9 << 30) + k * 4096, 0x91000 + k) for k in range(6)]
    m, rule, repl = one_rule_machine(
        pages_extra=extra, rule_pages=2, cache_ptes=True, tlb_entries=0
    )
    m.activate_rules([rule])
    for _ in range(300):
        if rng.random() < 0.5:
            k = rng.randrange(2)
            va = (8 << 30) + k * 4096 + rng.randrange(4096)
            assert m.mmu.translate(0, va) == ((repl + k) << 12) | (va & 4095)
        else:
            va, pfn = extra[rng.randrange(len(extra))]
            off = rng.randrange(4096)
            assert m.mmu.translate(0, va + off) == (pfn << 12) | off


def test_watch_set_grows_during_walk():
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    line_addr = next(iter(m.lightv.watch))
    ctx1 = m.lightv._ctx_by_key[(0, (8,))]
    assert ctx1.original_table_addr is not None  # seeded at activation
    m.lightv.handle_snoop(line_addr)
    # serving level 0 refreshed the level-1 context; its chunk then
    # resolves the leaf context before the walker can request it
    wm1 = m.lightv.window.encode(1, ctx1.context_id) << 12
    m.lightv.handle_snoop(wm1)
    ctx2 = m.lightv._ctx_by_key[(0, (8, 0))]
    assert ctx2.original_table_addr is not None


def test_a_context_without_a_real_table_is_seeded_none_and_served_blank():
    # slot 9 has a level-1 table but no entry at index1 0; slot 10 has none
    m = active_machine([(8 << 30, 0x90000), ((9 << 30) | (5 << 21), 0x90001)])
    rules = [RewriteRule(1, 0, 9 << 30, (9 << 30) + 4096, 0xA0000),
             RewriteRule(2, 0, 10 << 30, (10 << 30) + 4096, 0xA0001)]
    m.activate_rules(rules, strict=False)
    bases = {k[1]: c.original_table_addr for k, c in m.lightv._ctx_by_key.items()}
    assert bases[(9,)] is not None
    assert [bases[p] for p in ((9, 0), (10,), (10, 0))] == [None, None, None]
    reads = m.dram.reads
    for prefix in ((9, 0), (10,), (10, 0)):
        ctx = m.lightv._ctx_by_key[0, prefix]
        wm_frame = m.lightv.window.encode(ctx.level, ctx.context_id) << 12
        payload, _ = m.lightv.handle_snoop(wm_frame)
        assert payload == bytes(64), prefix
    assert m.dram.reads == reads  # a blank chunk reads no DRAM line


def test_rule_file_parsing():
    text = "# rules\n0 0x200000000 0x200001000 0xa0000 w\n1 1000 2000 0xa0010\n"
    rules = parse_rules(text.splitlines())
    assert rules[0] == RewriteRule(1, 0, 8 << 30, (8 << 30) + 4096, 0xA0000, ATTR_WRITABLE)
    assert rules[1] == RewriteRule(2, 1, 0x1000, 0x2000, 0xA0010, None)
    with pytest.raises(RuleError, match="line 1"):
        parse_rules(["0 0x1000\n"])


def test_rule_file_bad_flag_is_a_rule_error():
    with pytest.raises(RuleError, match="^line 2: unknown attribute flag 'x'$"):
        parse_rules(["# rules\n", "0 0x1000 0x2000 0xa0000 wx\n"])


def test_diagnostics_counters():
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    m.mmu.translate(0, 8 << 30)
    assert m.lightv.lines_manipulated == 3 and m.lightv.data_captures == 0
    assert m.counters.snoops_issued == m.counters.snoops_acked == 3
    assert len(m.lightv._ctx_by_id) == 2 and m.lightv.context_lost == 0


# -- repeated serves -------------------------------------------------------------


def served_lines(m, va):
    """The level-0, level-1 and leaf lines a walk of `va` is served."""
    agent = m.lightv
    i0, i1, i2 = va >> 30, (va >> 21) & 0x1FF, (va >> 12) & 0x1FF
    pgd_line = (m.spaces[0].pgd_base + i0 * 8) & ~63
    ctx1 = agent._ctx_by_key[(0, (i0,))]
    ctx2 = agent._ctx_by_key[(0, (i0, i1))]
    wm1 = (agent.window.encode(1, ctx1.context_id) << 12) + ((i1 * 8) & ~63)
    wm2 = (agent.window.encode(2, ctx2.context_id) << 12) + ((i2 * 8) & ~63)
    return pgd_line, wm1, wm2


def test_served_payload_follows_an_in_place_table_edit():
    # the OS clears a ruled page's leaf entry in place, in the very line
    # object the last serve read: the next walk must see the edit
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    va = 8 << 30
    m.mmu.translate(0, va)
    leaf_ctx = m.lightv._ctx_by_key[(0, (8, 0))]
    pte = leaf_ctx.original_table_addr  # index2 0
    cleared = m.dram.read_qword(pte) & ~PTE_PRESENT
    m.dram.write_qword(pte, cleared)
    m.tlb.invalidate_range(0, va, va + 4096)
    lines = served_lines(m, va)
    m.cci.invalidate_line(*lines)
    with pytest.raises(TranslationFault) as fault:
        m.mmu.translate(0, va)
    wm2 = lines[2]
    assert fault.value.level == 2 and fault.value.pte_address == wm2
    payload, _ = m.lightv.handle_snoop(wm2)
    assert payload[:8] == cleared.to_bytes(8, "little")


def test_served_payload_after_real_bytes_return():
    # the ruled level-0 entry moves to another level-1 table and back; the
    # return must re-point the level-1 context, as a kept payload keyed by
    # its bytes would not
    pages = [(8 << 30, 0x90000), ((9 << 30) | (1 << 21), 0x90001)]
    m = active_machine(pages)
    m.activate_rules([RewriteRule(1, 0, 8 << 30, (8 << 30) + 4096, 0xA0000)])
    pgd = m.spaces[0].pgd_base
    own, other = m.dram.read_qword(pgd + 8 * 8), m.dram.read_qword(pgd + 9 * 8)
    assert m.mmu.translate(0, 8 << 30) == 0xA0000 << 12
    for entry, level in ((other, 1), (own, None)):
        m.dram.write_qword(pgd + 8 * 8, entry)
        m.tlb.invalidate_range(0, 8 << 30, (8 << 30) + 4096)
        if level is None:
            assert m.mmu.translate(0, 8 << 30) == 0xA0000 << 12
        else:
            with pytest.raises(TranslationFault) as fault:
                m.mmu.translate(0, 8 << 30)  # index1 0 is empty in that table
            assert fault.value.level == level


def test_rule_changes_drop_served_payloads():
    # slots 8, 9 and 10 share one level-0 line, which stays watched throughout
    pages = [(k << 30, 0x90000 + k) for k in (8, 9, 10)]
    m = active_machine(pages)
    r1, r2, r3 = (
        RewriteRule(k - 7, 0, k << 30, (k << 30) + 4096, 0xA0000 + k) for k in (8, 9, 10)
    )
    m.activate_rules([r1])
    assert m.mmu.translate(0, 8 << 30) == 0xA0008 << 12
    m.activate_rules([r2])  # a new slot on a line already served
    assert m.mmu.translate(0, 9 << 30) == 0xA0009 << 12
    freed = sorted(c.context_id for c in m.lightv._ctx_by_id.values() if c.prefix[0] == 8)
    m.deactivate_rule(1)  # its slot on the served line must go back to real
    assert m.mmu.translate(0, 8 << 30) == 0x90008 << 12
    m.activate_rules([r3])  # takes rule 1's freed context ids
    reused = sorted(c.context_id for c in m.lightv._ctx_by_id.values() if c.prefix[0] == 10)
    assert reused == freed
    assert m.mmu.translate(0, 10 << 30) == 0xA000A << 12
    assert m.mmu.translate(0, 9 << 30) == 0xA0009 << 12
    assert m.mmu.translate(0, 8 << 30) == 0x90008 << 12


def test_a_repeated_serve_keeps_the_payload_the_read_and_the_cost():
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    m.mmu.translate(0, 8 << 30)
    lat = m.config.latencies
    for line in served_lines(m, 8 << 30):
        first, _ = m.lightv.handle_snoop(line)
        reads, manipulated = m.dram.reads, m.lightv.lines_manipulated
        payload, serve_cycles = m.lightv.handle_snoop(line)
        assert payload == first
        assert serve_cycles == lat.lightv + lat.dram
        assert m.dram.reads == reads + 1
        assert m.lightv.lines_manipulated == manipulated + 1


def check_repeated_serves(agent, dram, vas):
    """Serve every watched line, then every line of a live context that a
    walk of one of `vas` reads, level by level as a walk does: each serve
    must equal the oracle's `served_chunk`, and serving the line again
    must give an equal payload and change no context.  Returns how many
    lines were checked."""
    lines = list(agent.watch)
    for ctx in sorted(agent._ctx_by_id.values(), key=lambda c: c.level):
        frame = agent.window.encode(ctx.level, ctx.context_id) << 12
        shift = 21 if ctx.level == 1 else 12
        lines += sorted({
            frame + (((va >> shift) & 0x1FF) * 8 & ~63)
            for va in vas
            if (va >> 30, (va >> 21) & 0x1FF)[: len(ctx.prefix)] == ctx.prefix
        })
    for line in lines:
        match = agent.path_check(line)
        payload = agent.manipulate_line(match, line)
        assert payload == served_chunk(agent, dram, line), hex(line)
        bases = {k: c.original_table_addr for k, c in agent._ctx_by_key.items()}
        assert agent.manipulate_line(agent.path_check(line), line) == payload, hex(line)
        assert {k: c.original_table_addr for k, c in agent._ctx_by_key.items()} == bases
    return len(lines)


def random_interleaving(seed, steps, capture=False):
    """Rules come and go while the OS clears, restores and swaps table
    entries at every level; after each step every watched and walked line
    must serve as `check_repeated_serves` asks, and every walk must give the
    oracle's answer (rules are activated loosely, so an unruled page under
    a ruled level-0 slot is left out).

    With `capture`, a share of the steps also opens a capture window (on a
    rule's replacement run or on free data frames, from free source
    frames), releases some of its lines or ends it, or tries a window on a
    page-table line, which must be refused; after each step a read of a
    still-captured destination must return its source bytes, no capture
    line may lie in a page table, and a few walks are checked.

    Returns the machine and the number of served lines checked.
    """
    rng = random.Random(seed)
    vas = [(i0 << 30) | (i1 << 21) | (i2 << 12)
           for i0 in (8, 9) for i1 in (0, 1, 2) for i2 in range(4)]
    m = active_machine([(va, 0x90000 + n) for n, va in enumerate(vas)], tlb_entries=4)
    rules = [RewriteRule(n + 1, 0, va, va + 2 * 4096, 0xA0000 + 2 * n)
             for n, va in enumerate(vas[::2])]
    pgd_base = m.spaces[0].pgd_base
    agent = m.lightv
    free_frames = [0xB0000 + k for k in range(4)]
    source_frames = [0xC0000 + k for k in range(4)]
    for pfn in source_frames if capture else ():
        m.dram.write_bytes(pfn << 12, bytes(rng.randrange(256) for _ in range(4096)))

    def entry_addr(va, level):
        """The real entry a walk of `va` reads at `level`."""
        addr = pgd_base + (va >> 30) * 8
        for shift in (21, 12)[:level]:
            table = decode_pte(m.dram.read_qword(addr))[1] << 12
            addr = table + ((va >> shift) & 0x1FF) * 8
        return addr

    def check_walks(step, n):
        for _ in range(n):
            va = rng.choice(vas) + rng.randrange(4096)
            ruled = any(r.va_start <= va < r.va_end for r in agent.rules.values())
            if not ruled and (0, va >> 30) in agent._rules_by_slot:
                continue  # an unruled neighbour of a rule: the isolation hazard
            expected = agent.expected_pa(0, va)
            try:
                got = m.mmu.translate(0, va)
            except TranslationFault:
                got = None
            assert got == expected, (step, hex(va))

    def capture_step():
        if not agent._mirror:
            dst = rng.choice([pfn for r in rules for pfn in r.replacement_run] + free_frames)
            src = rng.choice(source_frames)
            m.invalidate_page_lines(dst << 12)
            agent.begin_page_capture(
                {(dst << 12) + off: (src << 12) + off for off in range(0, 4096, 64)}
            )
        elif rng.random() < 0.15:
            table_pfn = rng.choice(sorted(m.spaces[0].table_pfns))
            state = agent_state(m)
            with pytest.raises(ValueError, match="lies in a page table of asid 0"):
                agent.begin_page_capture({(table_pfn << 12) + 64 * rng.randrange(64): 0xB8000000})
            assert agent_state(m) == state
        elif rng.random() < 0.7:
            agent.release_captured(rng.sample(sorted(agent._mirror), rng.randint(1, 16)))
        else:
            agent.end_page_capture()

    def check_captures(step):
        assert agent.captures.items() <= agent._mirror.items(), step
        tables = set().union(*(s.table_pfns for s in m.spaces.values()))
        assert not any(line >> 12 in tables for pair in agent._mirror.items() for line in pair)
        for dst in rng.sample(sorted(agent.captures), min(3, len(agent.captures))):
            src = agent.captures[dst]
            off = rng.randrange(64)
            assert m.cci.read_byte(dst + off) == m.dram.read_line(src)[off], step

    checked = 0
    for step in range(steps):
        if capture and rng.random() < 0.3:
            capture_step()
        else:
            op = rng.random()
            if op < 0.2:
                rule = rng.choice(rules)
                if rule.rule_id in agent.rules:
                    m.deactivate_rule(rule.rule_id)
                else:
                    m.activate_rules([rule], strict=False)
            elif op < 0.35:
                # clear or restore one entry's present bit, at any level
                addr = entry_addr(rng.choice(vas), rng.choice((0, 1, 1, 2, 2, 2)))
                m.dram.write_qword(addr, m.dram.read_qword(addr) ^ PTE_PRESENT)
                m.tlb.invalidate_range(0, 0, 1 << 39)
            elif op < 0.45:
                # swap two level-1 entries of a slot: their leaf tables trade places
                i0 = rng.choice((8, 9))
                a, b = (entry_addr(i0 << 30 | i1 << 21, 1) for i1 in rng.sample((0, 1, 2), 2))
                qa, qb = m.dram.read_qword(a), m.dram.read_qword(b)
                m.dram.write_qword(a, qb)
                m.dram.write_qword(b, qa)
                m.tlb.invalidate_range(0, 0, 1 << 39)
            else:
                check_walks(step, 10)
        if capture:
            check_captures(step)
            check_walks(step, 3)
        checked += check_repeated_serves(agent, m.dram, vas)
    assert agent.context_lost == 0
    return m, checked


def test_repeated_serves_agree_under_random_interleavings():
    _, checked = random_interleaving(7, 150)
    assert checked > 800


def test_capture_windows_under_random_interleavings():
    m, checked = random_interleaving(11, 300, capture=True)
    assert m.lightv.data_captures > 50
    assert checked > 1600


# Slots 8, 9 and 12 share one level-0 line, 70 and 71 another; slots 12
# and 71, and level-1 entry 2 of every slot, hold no table.
SERVED_PAGES = [(i0 << 30 | i1 << 21 | i2 << 12) for i0 in (8, 9, 70) for i1 in (0, 1, 3)
                for i2 in range(12)]
SERVED_RULE_SPANS = [
    (8 << 30, (8 << 30) + 3 * 4096),  # part of one level-1 entry
    ((8 << 30) + 5 * 4096, (8 << 30) + 7 * 4096),
    (8 << 30 | 1 << 21 | 10 << 12, 8 << 30 | 3 << 21 | 2 << 12),  # across a missing table
    (9 << 30 | 3 << 21 | 4 << 12, 9 << 30 | 3 << 21 | 8 << 12),
    (9 << 30, (9 << 30) + 12 * 4096),
    (70 << 30 | 1 << 21, 70 << 30 | 2 << 21),  # one whole level-1 entry
    (12 << 30, (12 << 30) + 2 * 4096),  # under a missing level-0 entry
    (70 << 30 | 511 << 21 | 510 << 12, 71 << 30 | 2 << 12),  # across two level-0 slots
]


def check_served_chunks(m):
    """Serve every watched line, then every line of every live context's
    frame, level by level: each payload must equal the oracle's, and then
    every context whose real path is present holds its real table."""
    agent = m.lightv
    lines = list(agent.watch)
    for ctx in sorted(agent._ctx_by_id.values(), key=lambda c: c.level):
        frame = agent.window.encode(ctx.level, ctx.context_id) << 12
        lines += range(frame, frame + 4096, 64)
    for line in lines:
        payload = agent.manipulate_line(agent.path_check(line), line)
        assert payload == served_chunk(agent, m.dram, line), hex(line)
    for ctx in agent._ctx_by_id.values():
        base = m.spaces[0].pgd_base
        for index in ctx.prefix:
            raw = m.dram.read_qword(base + index * 8)
            if not raw & PTE_PRESENT:
                break
            base = decode_pte(raw)[1] << 12
        else:
            assert ctx.original_table_addr == base, ctx
    return len(lines)


@pytest.mark.parametrize("seed", range(4))
def test_served_chunks_match_the_oracle_on_random_active_machines(seed):
    # Rules come and go and entries at every level lose and regain their
    # present bit; after each step every chunk LightV can serve must be the
    # oracle's.  Loose activation leaves unruled pages beside the rules.
    rng = random.Random(seed)
    m = active_machine([(va, 0x90000 + n) for n, va in enumerate(SERVED_PAGES)],
                       cache_ptes=seed % 2 == 1, tlb_entries=4)
    overrides = [None, ATTR_USER, ATTR_USER | ATTR_CACHEABLE]
    rules = [
        RewriteRule(n + 1, 0, lo, hi, 0xA0000 + n * 0x1000,
                    ATTR_USER if n in (3, 4) else rng.choice(overrides))
        for n, (lo, hi) in enumerate(SERVED_RULE_SPANS)
    ]
    vas = SERVED_PAGES + [r.va_start for r in rules]
    checked = 0
    for step in range(40):
        op = rng.random()
        if op < 0.4:
            rule = rng.choice(rules)
            if rule.rule_id in m.lightv.rules:
                m.deactivate_rule(rule.rule_id)
            else:
                m.activate_rules([rule], strict=False)
        elif op < 0.7:
            va, level = rng.choice(vas), rng.choice((0, 1, 2))
            addr = m.spaces[0].pgd_base + (va >> 30) * 8
            for shift in (21, 12)[:level]:
                addr = (decode_pte(m.dram.read_qword(addr))[1] << 12) + ((va >> shift) & 0x1FF) * 8
            if m.dram.contains(addr, 8):
                m.dram.write_qword(addr, m.dram.read_qword(addr) ^ PTE_PRESENT)
        else:
            for va in rng.sample(vas, 6):
                try:
                    m.mmu.translate(0, va)
                except (TranslationFault, FabricGap):
                    pass
        checked += check_served_chunks(m)
    assert m.lightv.rules and checked > 1000


def test_deactivate_leaves_unchanged_cached_lines():
    # slots 8 and 100 lie on different level-0 lines
    m = active_machine([(8 << 30, 0x90000), (100 << 30, 0x90001)], cache_ptes=True)
    m.activate_rules([
        RewriteRule(1, 0, 8 << 30, (8 << 30) + 4096, 0xA0000),
        RewriteRule(2, 0, 100 << 30, (100 << 30) + 4096, 0xA0001),
    ])
    assert m.mmu.translate(0, 100 << 30) == 0xA0001 << 12  # caches rule 2's walk
    m.deactivate_rule(1)
    m.tlb.invalidate_range(0, 100 << 30, (100 << 30) + 4096)
    snoops = m.counters.snoops_issued
    assert m.mmu.translate(0, 100 << 30) == 0xA0001 << 12
    assert m.counters.snoops_issued == snoops  # every level still cached


def test_deactivate_keeps_a_level0_line_whose_slots_only_change_order():
    # Slots 9 and 8 share one level-0 line.  Removing rule 1 rebuilds the
    # watch set as [8, 9] from [9, 8]: the same slots, so the same served
    # line, and the cached copy must stay.
    nine = 9 << 30
    m = active_machine([(8 << 30, 0x90000), (nine, 0x90001), (nine + 4096, 0x90002)],
                       cache_ptes=True)
    for rule in (
        RewriteRule(1, 0, nine, nine + 4096, 0xA0000),
        RewriteRule(2, 0, 8 << 30, (8 << 30) + 4096, 0xA0001),
        RewriteRule(3, 0, nine + 4096, nine + 8192, 0xA0002),
    ):
        m.activate_rules([rule], strict=False)
    m.mmu.translate(0, 8 << 30)  # caches the level-0 line
    m.deactivate_rule(1)
    before = m.tally()
    assert m.mmu.translate(0, nine + 4096) == 0xA0002 << 12
    after = m.tally()
    lat = m.config.latencies
    served = lat.cci + lat.snoop + lat.lightv + lat.dram
    assert after["total_cycles"] - before["total_cycles"] == lat.cache_hit + 2 * served
    assert after["walk_hits"] - before["walk_hits"] == 1
    assert after["lines_manipulated"] - before["lines_manipulated"] == 2


@pytest.mark.parametrize("case", ["shared leaf chunk", "shared level-1 chunk", "late rule"])
def test_rule_changes_drop_cached_watermark_chunks(case):
    # Two pages whose leaf entries (or level-1 entries) share one
    # watermark chunk.  With PTE caching on, each walk caches that chunk;
    # a rule change must drop it, so the walk agrees with an uncached one.
    def outcomes(cache_ptes):
        a = 8 << 30
        b = a + (4096 if case != "shared level-1 chunk" else 1 << 21)
        m = active_machine([(a, 0x90000), (b, 0x90001)], cache_ptes=cache_ptes, tlb_entries=0)
        first = [RewriteRule(1, 0, a, a + 4096, 0xA0000)]
        second = [RewriteRule(2, 0, b, b + 4096, 0xA0001)]
        seen = []

        def walk_both():
            for va in (a, b):
                try:
                    seen.append(m.mmu.translate(0, va))
                except (TranslationFault, FabricGap) as exc:
                    seen.append(type(exc).__name__)

        if case == "late rule":
            m.activate_rules(first, strict=False)
            walk_both()
            m.activate_rules(second, strict=False)
        else:
            m.activate_rules(first + second)
            walk_both()
            m.deactivate_rule(1)
        walk_both()
        return seen

    assert outcomes(cache_ptes=True) == outcomes(cache_ptes=False)
