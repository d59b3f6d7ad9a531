import random

import pytest

from lightv_sim import lightv as lv
from lightv_sim.addressing import ATTR_CACHEABLE, ATTR_WRITABLE, decode_pte
from lightv_sim.coherence import FabricGap
from lightv_sim.lightv import (
    IsolationError,
    RewriteRule,
    RuleError,
    WatermarkWindow,
    parse_rules,
)

from helpers import make_machine

RW = ATTR_WRITABLE | ATTR_CACHEABLE
WINDOW = WatermarkWindow(0x20_0000)


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
    assert m.lightv.watch[expected_line].slots == [(0, 8, pgd_base)]


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


def test_strict_accepts_joint_coverage():
    # two rules that jointly own the slot's mappings pass the strict check
    pages = [(8 << 30, 0x90000), ((8 << 30) | (1 << 21), 0x90001)]
    m = active_machine(pages)
    rules = [
        RewriteRule(1, 0, 8 << 30, (8 << 30) + 4096, 0xA0000),
        RewriteRule(2, 0, (8 << 30) | (1 << 21), ((8 << 30) | (1 << 21)) + 4096, 0xA0001),
    ]
    m.activate_rules(rules, strict=True)


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
    assert m.lightv.path_check(pgd_line).level == 0
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
        m.cci.read_byte(m.cache, dead_line)


def test_context_capacity_bound(monkeypatch):
    monkeypatch.setattr(lv, "CONTEXT_CAPACITY", 4)
    m = active_machine([(k << 30, 0x90000 + k) for k in range(4)])
    rules = [
        RewriteRule(k + 1, 0, k << 30, (k << 30) + 4096, 0xA0000 + k) for k in range(4)
    ]
    with pytest.raises(lv.ContextCapacityError):
        m.activate_rules(rules)


def test_failed_activation_leaves_no_trace():
    # five 2 GiB rules need 5 x 2 x 513 contexts, more than the cache holds
    m = active_machine([(k << 31, 0x90000 + k) for k in range(5)] + [(11 << 30, 0x91000)])
    big = [RewriteRule(k + 1, 0, k << 31, (k + 1) << 31, 0x80000) for k in range(5)]
    with pytest.raises(lv.ContextCapacityError):
        m.activate_rules(big, strict=False)
    assert m.lightv.rules == {} and m.lightv.watch == {}
    assert m.lightv._ctx_by_id == {} and m.lightv._ctx_by_key == {}
    assert m.lightv._rule_for(0, 0) is None
    m.activate_rules([RewriteRule(9, 0, 11 << 30, (11 << 30) + 4096, 0xA0000)])
    assert m.mmu.translate(0, 11 << 30) == 0xA0000 << 12


def test_failed_capture_leaves_no_trace():
    # the second pair's source is misaligned; the first pair is good
    m, rule, _ = one_rule_machine()
    pairs = {0x9100_0000: 0x9200_0000, 0x9100_0040: 0x9200_0001}
    with pytest.raises(ValueError, match="aligned"):
        m.lightv.begin_page_capture(pairs)
    assert m.lightv.watch == {} and m.lightv._mirror == {}
    m.activate_rules([rule])
    assert m.lightv.handle_snoop(0x9100_0000) is None  # not served from 0x92000000


def test_capture_rejects_a_watched_table_line():
    # a capture window on the rule's level-0 line would replace its watch
    m, rule, repl = one_rule_machine()
    m.activate_rules([rule])
    pgd_line = next(iter(m.lightv.watch))
    state = repr(m.lightv.watch), dict(m.lightv._mirror)
    with pytest.raises(ValueError, match="watched table line"):
        m.lightv.begin_page_capture({0x9100_0000: 0x9200_0000, pgd_line: 0x9200_0040})
    assert (repr(m.lightv.watch), m.lightv._mirror) == state
    m.lightv.end_page_capture()
    m.tlb.invalidate_range(0, 8 << 30, (8 << 30) + 4096)
    m.cci.invalidate_line(m.cache, pgd_line)
    assert m.mmu.translate(0, 8 << 30) == repl << 12


def test_activation_rejects_a_level0_line_under_capture():
    pages = [(8 << 30, 0x90000), (9 << 30, 0x90001)]
    m = active_machine(pages)
    rules = [
        RewriteRule(1, 0, 8 << 30, (8 << 30) + 4096, 0xA0000),
        RewriteRule(2, 0, 9 << 30, (9 << 30) + 4096, 0xA0001),
    ]
    pgd_line = (m.spaces[0].pgd_base + 8 * 8) & ~63
    m.lightv.begin_page_capture({pgd_line: 0x9200_0000})
    state = repr(m.lightv.watch), dict(m.lightv._mirror)
    with pytest.raises(RuleError, match="under capture"):
        m.activate_rules(rules)
    assert (repr(m.lightv.watch), m.lightv._mirror) == state
    assert m.lightv.rules == {} and m.lightv._ctx_by_id == {}
    m.lightv.end_page_capture()
    m.activate_rules(rules)
    assert m.mmu.translate(0, 9 << 30) == 0xA0001 << 12


# -- end-to-end redirection, transparency, deactivation -------------------------


def test_rule_across_a_level0_boundary():
    # one rule over 4 pages each side of the slot 8 / slot 9 boundary
    lo = (9 << 30) - 4 * 4096
    pages = [(lo + k * 4096, 0x90000 + k) for k in range(8)]
    m = active_machine(pages, tlb_entries=4)
    repl = 0xA0000
    m.activate_rules([RewriteRule(1, 0, lo, lo + 8 * 4096, repl)], strict=True)
    assert {i0 for _, i0, _ in m.lightv.watch[next(iter(m.lightv.watch))].slots} == {8, 9}
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


def test_rule_file_parsing():
    text = "# rules\n0 0x200000000 0x200001000 0xa0000 w\n1 1000 2000 0xa0010\n"
    rules = parse_rules(text)
    assert rules[0] == RewriteRule(1, 0, 8 << 30, (8 << 30) + 4096, 0xA0000, ATTR_WRITABLE)
    assert rules[1] == RewriteRule(2, 1, 0x1000, 0x2000, 0xA0010, None)
    with pytest.raises(RuleError, match="line 1"):
        parse_rules("0 0x1000\n")


def test_diagnostics_counters():
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    m.mmu.translate(0, 8 << 30)
    assert m.lightv.lines_manipulated == 3 and m.lightv.data_captures == 0
    assert m.counters.snoops_issued == m.counters.snoops_acked == 3
    assert len(m.lightv._ctx_by_id) == 2 and m.lightv.context_lost == 0
