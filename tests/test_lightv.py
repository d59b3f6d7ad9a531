import random

import pytest

from lightv_sim import lightv as lv
from lightv_sim.addressing import ATTR_CACHEABLE, ATTR_WRITABLE, decode_pte
from lightv_sim.coherence import FabricGap, SnoopKind, SnoopRequest, Verdict
from lightv_sim.lightv import (
    IsolationError,
    LightVMode,
    RewriteRule,
    RuleError,
    WatermarkWindow,
    WmMatch,
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


def snoop(line_addr):
    return SnoopRequest(line_addr, SnoopKind.READ_SHARED)


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
    resp = m.lightv.handle_snoop(snoop(m.spaces[0].pgd_base))
    assert resp.verdict is Verdict.NACK


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
    pa_before, _ = m.mmu.translate(0, 8 << 30)
    m.activate_rules([rule])
    pa_after, trace = m.mmu.translate(0, 8 << 30)
    assert len(trace) == 3  # re-walked, not served from the stale TLB entry
    assert pa_after == repl << 12
    assert pa_before != pa_after


def test_activation_flushes_stale_watched_lines():
    # with PTE caching on, a pre-activation walk caches the real PGD line;
    # activation must purge it or the redirect never engages
    m, rule, repl = one_rule_machine(cache_ptes=True)
    m.mmu.translate(0, 8 << 30)
    m.activate_rules([rule])
    pa, _ = m.mmu.translate(0, 8 << 30)
    assert pa == repl << 12


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
    m.activate_rules([rule])
    with pytest.raises(RuleError, match="already active"):
        m.activate_rules([RewriteRule(1, 0, 9 << 30, (9 << 30) + 4096, 0xA8000)])


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
    resp = m.lightv.handle_snoop(snoop(0x8000_0000))
    assert resp.verdict is Verdict.NACK


def test_passive_mode_always_nacks():
    m = make_machine("passive")
    m.register_space(0, [(8 << 30, 0x90000, RW)])
    assert m.lightv.mode is LightVMode.PASSIVE
    resp = m.lightv.handle_snoop(snoop(m.spaces[0].pgd_base))
    assert resp.verdict is Verdict.NACK
    assert m.lightv.snoops_seen == 1


def test_watched_line_differs_only_at_target_entries():
    extra = [((9 << 30) + k * 4096, 0x91000 + k) for k in range(3)]
    m, rule, _ = one_rule_machine(pages_extra=extra)
    m.activate_rules([rule])
    line_addr = next(iter(m.lightv.watch))
    real = m.dram.read_line(line_addr)
    resp = m.lightv.handle_snoop(snoop(line_addr))
    assert resp.verdict is Verdict.ACK
    changed = {
        i // 8
        for i in range(64)
        if resp.payload[i] != real[i]
    }
    assert changed == {8 % 8}  # only the target's slot within the line
    # the rewritten entry is present and points into the watermark window
    raw = int.from_bytes(resp.payload[0:8], "little")
    present, pfn, attrs = decode_pte(raw)
    assert present and m.lightv.window.contains_pfn(pfn)
    assert m.lightv.window.decode(pfn)[0] == 1
    # neighbouring entries decode to real frames, never watermarks
    for slot in range(1, 8):
        raw = int.from_bytes(resp.payload[slot * 8 : slot * 8 + 8], "little")
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
    match = m.lightv.path_check(wm_line)
    assert isinstance(match, WmMatch) and match.level == 1 and match.ctx is ctx


def test_leaf_chunk_carries_replacement_and_merged_attrs():
    m, rule, repl = one_rule_machine()
    rule = RewriteRule(
        rule.rule_id, 0, rule.va_start, rule.va_end, repl, attr_overrides=ATTR_WRITABLE
    )
    m.activate_rules([rule])
    m.mmu.translate(0, 8 << 30)  # populate context table bases via the walk
    ctx = m.lightv._ctx_by_key[(0, (8, 0))]
    wm_frame = m.lightv.window.encode(2, ctx.context_id) << 12
    resp = m.lightv.handle_snoop(snoop(wm_frame))  # chunk holding index2 = 0
    raw = int.from_bytes(resp.payload[0:8], "little")
    present, pfn, attrs = decode_pte(raw)
    assert (present, pfn) == (True, repl)
    assert attrs == RW | ATTR_WRITABLE  # original attrs merged with override


def test_wm_chunk_off_path_slots_are_blank():
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    m.mmu.translate(0, 8 << 30)
    ctx = m.lightv._ctx_by_key[(0, (8, 0))]
    wm_frame = m.lightv.window.encode(2, ctx.context_id) << 12
    resp = m.lightv.handle_snoop(snoop(wm_frame))
    assert resp.payload[8:] == bytes(56)  # everything but the single leaf slot


def test_manipulate_line_identity_off_path():
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    ctx = m.lightv._ctx_by_key[(0, (8,))]
    wm_frame = m.lightv.window.encode(1, ctx.context_id) << 12
    # a chunk whose slots are all outside the rule's index1 span
    off_path_line = wm_frame + 8 * 64
    match = m.lightv.path_check(off_path_line)
    out = m.lightv.manipulate_line(bytes(64), 1, match, off_path_line)
    assert out == bytes(64)


def test_context_lost_is_diagnosed_and_unclaimed():
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    dead_line = m.lightv.window.encode(2, 99) << 12  # no such context
    resp = m.lightv.handle_snoop(snoop(dead_line))
    assert resp.verdict is Verdict.NACK
    assert m.lightv.context_lost == 1
    with pytest.raises(FabricGap):
        m.cci.coherent_read(m.cache, dead_line)


def test_context_capacity_bound(monkeypatch):
    monkeypatch.setattr(lv, "CONTEXT_CAPACITY", 4)
    m = active_machine([(k << 30, 0x90000 + k) for k in range(4)])
    rules = [
        RewriteRule(k + 1, 0, k << 30, (k << 30) + 4096, 0xA0000 + k) for k in range(4)
    ]
    with pytest.raises(lv.ContextCapacityError):
        m.activate_rules(rules)


# -- end-to-end redirection, transparency, deactivation -------------------------


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
                m.mmu.translate(0, va + off)[0]
                == baseline.mmu.translate(0, va + off)[0]
            )
    assert m.mmu.translate(0, (8 << 30) + 0x40)[0] == (repl << 12) + 0x40


def test_deactivate_restores_baseline():
    m, rule, repl = one_rule_machine()
    pa_before, _ = m.mmu.translate(0, 8 << 30)
    m.activate_rules([rule])
    assert m.mmu.translate(0, 8 << 30)[0] == repl << 12
    m.deactivate_rule(1)
    assert m.lightv.watch == {}
    assert m.lightv.diagnostics()["contexts_live"] == 0
    pa_after, trace = m.mmu.translate(0, 8 << 30)
    assert pa_after == pa_before and len(trace) == 3


def test_deactivate_purges_cached_watermarks():
    m, rule, repl = one_rule_machine(cache_ptes=True, tlb_entries=0)
    m.activate_rules([rule])
    assert m.mmu.translate(0, 8 << 30)[0] == repl << 12
    m.deactivate_rule(1)
    assert m.mmu.translate(0, 8 << 30)[0] == 0x90000 << 12


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
    assert m.mmu.translate(0, 8 << 30)[0] == 0x90000 << 12
    assert m.mmu.translate(0, 9 << 30)[0] == 0xA0001 << 12


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
            assert m.mmu.translate(0, va)[0] == ((repl + k) << 12) | (va & 4095)
        else:
            va, pfn = extra[rng.randrange(len(extra))]
            off = rng.randrange(4096)
            assert m.mmu.translate(0, va + off)[0] == (pfn << 12) | off


def test_watch_set_grows_during_walk():
    m, rule, _ = one_rule_machine()
    m.activate_rules([rule])
    line_addr = next(iter(m.lightv.watch))
    ctx1 = m.lightv._ctx_by_key[(0, (8,))]
    assert ctx1.original_table_addr is not None  # seeded at activation
    m.lightv.handle_snoop(snoop(line_addr))
    # serving level 0 refreshed the level-1 context; its chunk then
    # resolves the leaf context before the walker can request it
    wm1 = m.lightv.window.encode(1, ctx1.context_id) << 12
    m.lightv.handle_snoop(snoop(wm1))
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
    d = m.lightv.diagnostics()
    assert d["matches"] == 3 and d["lines_manipulated"] == 3
    assert d["contexts_live"] == 2
    assert d["snoops_seen"] >= d["matches"]
