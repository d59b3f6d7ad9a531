import random

import pytest

from lightv_sim.addressing import (
    ATTR_WRITABLE,
    TranslationFault,
    decode_pte,
    reference_walk,
    split_va,
)
from lightv_sim.mmu import Tlb

from helpers import make_machine

RW = ATTR_WRITABLE


def mapped_machine(mode="absent", pages=((8 << 30, 0x90000),), **overrides):
    m = make_machine(mode, **overrides)
    m.register_space(0, [(va, pfn, RW) for va, pfn in pages])
    return m


def test_tlb_hit_skips_the_walk():
    m = mapped_machine()
    pa1 = m.mmu.translate(0, 8 << 30)
    assert m.counters.walk_reads == 3
    pa2 = m.mmu.translate(0, (8 << 30) | 0x123)
    assert pa2 == pa1 | 0x123
    assert m.counters.walk_reads == 3


def test_translate_matches_reference_walk():
    rng = random.Random(21)
    pages = [(rng.randrange(1 << 27) << 12, 0x90000 + i) for i in range(30)]
    for mode in ("absent", "passive"):
        m = mapped_machine(mode, pages=pages)
        space = m.spaces[0]
        for _ in range(300):
            if rng.random() < 0.6:
                va = rng.choice(pages)[0] | rng.randrange(4096)
            else:
                va = rng.randrange(1 << 39)
            try:
                expected = ("pa", reference_walk(space, va, m.dram))
            except TranslationFault as fault:
                expected = ("fault", fault.level)
            try:
                got = ("pa", m.mmu.translate(0, va))
            except TranslationFault as fault:
                got = ("fault", fault.level)
            assert got == expected


def test_cold_walk_is_three_reads_from_dram():
    m = mapped_machine()
    lines, read_line = [], m.dram.read_line
    m.dram.read_line = lambda line: lines.append(line) or read_line(line)
    m.mmu.translate(0, 8 << 30)
    c = m.counters
    assert (c.walk_reads, c.walk_misses, c.walk_hits) == (3, 3, 0)
    assert m.dram.reads == 3
    # one DRAM line per level, in level order
    expected, base = [], m.spaces[0].pgd_base
    for index in split_va(8 << 30)[:3]:
        expected.append((base + index * 8) & ~63)
        base = decode_pte(m.dram.read_qword(base + index * 8))[1] << 12
    assert lines == expected


def test_cached_pgd_line_saves_fabric_reads():
    # second page shares the level-0 slot but sits in different PUD/PMD
    # lines (index1 = 8), so only the deeper levels go to the fabric
    pages = ((2 << 30, 0x90000), ((2 << 30) | (8 << 21), 0x90001))
    m = mapped_machine(pages=pages, cache_ptes=True)
    m.mmu.translate(0, 2 << 30)
    misses_before = m.counters.walk_misses
    hits_before = m.counters.walk_hits
    m.mmu.translate(0, (2 << 30) | (8 << 21))
    assert m.counters.walk_hits == hits_before + 1
    assert m.counters.walk_misses == misses_before + 2


def test_noncaching_walker_leaves_no_pte_lines():
    m = mapped_machine(cache_ptes=False, tlb_entries=0)
    m.mmu.translate(0, 8 << 30)
    assert m.cache.snapshot() == []
    misses = m.counters.walk_misses
    m.mmu.translate(0, 8 << 30)
    assert m.counters.walk_misses == misses + 3


def test_caching_walker_hits_on_rewalk():
    m = mapped_machine(cache_ptes=True, tlb_entries=0)
    m.mmu.translate(0, 8 << 30)
    misses, hits = m.counters.walk_misses, m.counters.walk_hits
    m.mmu.translate(0, 8 << 30)
    assert m.counters.walk_misses == misses
    assert m.counters.walk_hits == hits + 3


def test_unmapped_va_truncates_trace():
    m = mapped_machine()
    with pytest.raises(TranslationFault) as exc:
        m.mmu.translate(0, 9 << 30)
    assert exc.value.level == 0
    assert m.counters.walk_reads == 1
    # intermediate tables exist for the mapped page's slot, leaf absent
    with pytest.raises(TranslationFault) as exc:
        m.mmu.translate(0, (8 << 30) | (1 << 12))
    assert exc.value.level == 2
    assert m.counters.walk_reads == 1 + 3


def test_mem_write_then_read():
    m = mapped_machine()
    m.mem_write(0, (8 << 30) + 77, 0xC3)
    assert m.mem_read(0, (8 << 30) + 77) == 0xC3


def test_tlb_invalidate_forces_rewalk():
    m = mapped_machine()
    m.mmu.translate(0, 8 << 30)
    reads = m.counters.walk_reads
    m.tlb.invalidate_range(0, 8 << 30, (8 << 30) + 4096)
    m.mmu.translate(0, 8 << 30)
    assert m.counters.walk_reads == reads + 3


def test_tlb_invalidate_unrelated_page_keeps_hit():
    m = mapped_machine(pages=((8 << 30, 0x90000), (9 << 30, 0x90001)))
    m.mmu.translate(0, 8 << 30)
    m.mmu.translate(0, 9 << 30)
    reads = m.counters.walk_reads
    m.tlb.invalidate_range(0, 9 << 30, (9 << 30) + 4096)
    m.mmu.translate(0, 8 << 30)  # still cached
    assert m.counters.walk_reads == reads


def test_tlb_lru_and_capacity():
    tlb = Tlb(2)
    tlb.insert(0, 1, 0xA, 0)
    tlb.insert(0, 2, 0xB, 0)
    tlb.lookup(0, 1)  # refresh
    tlb.insert(0, 3, 0xC, 0)  # evicts page 2
    assert tlb.lookup(0, 2) is None
    assert tlb.lookup(0, 1) is not None
    assert Tlb(0).lookup(0, 1) is None


def test_walk_length_bounded():
    rng = random.Random(22)
    m = mapped_machine(tlb_entries=0)
    for _ in range(200):
        va = rng.randrange(1 << 39)
        reads = m.counters.walk_reads
        try:
            m.mmu.translate(0, va)
            levels = 3
        except TranslationFault as fault:
            levels = fault.level + 1
        assert m.counters.walk_reads - reads == levels


def test_debug_tlb_check_catches_tampering():
    m = mapped_machine(debug_tlb_check=True)
    m.mmu.translate(0, 8 << 30)  # clean hit path raises nothing
    m.mmu.translate(0, 8 << 30)
    m.tlb.insert(0, (8 << 30) >> 12, 0xDEAD, 0)  # poison the cached frame
    with pytest.raises(AssertionError):
        m.mmu.translate(0, 8 << 30)


def test_unknown_asid_rejected():
    m = mapped_machine()
    with pytest.raises(ValueError):
        m.mmu.translate(7, 0)
