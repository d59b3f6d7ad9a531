import random

import pytest

from lightv_sim import addressing
from lightv_sim.addressing import (
    ATTR_CACHEABLE,
    ATTR_WRITABLE,
    MappingError,
    TranslationFault,
    build_tables,
    decode_pte,
    encode_pte,
    parse_attr_flags,
    parse_mappings,
    reference_walk,
    split_va,
    table_base,
)
from lightv_sim.machine import AllocatorExhausted, Dram, FrameAllocator

from oracles import brute_split, brute_walk, build_tables_by_walk


def test_split_va_zero():
    assert split_va(0) == (0, 0, 0, 0)


def test_split_va_index0_boundary():
    assert split_va(1 << 30) == (1, 0, 0, 0)


def test_split_va_composite():
    va = (3 << 30) | (5 << 21) | (7 << 12) | 0xAB
    assert split_va(va) == (3, 5, 7, 0xAB)
    assert split_va(va) == brute_split(va)


def test_split_join_identity():
    rng = random.Random(1)
    for _ in range(1000):
        va = rng.randrange(1 << 39)
        fields = split_va(va)
        i0, i1, i2, offset = fields
        assert (i0 << 30) | (i1 << 21) | (i2 << 12) | offset == va
        assert fields == brute_split(va)


def test_split_va_rejects_out_of_range():
    with pytest.raises(ValueError):
        split_va(1 << 39)
    with pytest.raises(ValueError):
        split_va(-1)


def test_encode_pte_null_entry():
    assert encode_pte(False, 0, 0) == 0


def test_encode_pte_minimal_present():
    raw = encode_pte(True, 1, 0)
    assert raw & 1
    assert (raw >> 12) == 1


def test_pte_roundtrip_random():
    rng = random.Random(2)
    for _ in range(1000):
        fields = (
            rng.random() < 0.5,
            rng.randrange(1 << 28),
            rng.choice((0, ATTR_WRITABLE, ATTR_CACHEABLE, ATTR_WRITABLE | ATTR_CACHEABLE)),
        )
        assert decode_pte(encode_pte(*fields)) == fields


def test_decode_is_total_and_deterministic():
    rng = random.Random(3)
    for _ in range(200):
        raw = rng.randrange(1 << 64)
        assert decode_pte(raw) == decode_pte(raw)


def test_decode_zero_frame_present():
    assert decode_pte(1) == (True, 0, 0)


def test_decode_specific_roundtrip():
    raw = encode_pte(True, 0x1234, ATTR_WRITABLE)
    assert decode_pte(raw) == (True, 0x1234, ATTR_WRITABLE)


def test_encode_rejects_bad_fields():
    with pytest.raises(ValueError):
        encode_pte(True, 1 << 28, 0)
    with pytest.raises(ValueError):
        encode_pte(True, -1, 0)
    with pytest.raises(ValueError):
        encode_pte(True, 0, 0x10)


def _fresh_memory():
    dram = Dram(0x8000_0000, 1 << 24)
    return dram, FrameAllocator(dram)


def test_build_tables_empty():
    dram, alloc = _fresh_memory()
    first = alloc.next_pfn
    space = build_tables([], dram, alloc)
    assert alloc.next_pfn == first + 1  # just the PGD
    for index in range(512):
        present, _, _ = decode_pte(dram.read_qword(space.pgd_base + index * addressing.PTE_BYTES))
        assert not present


def test_build_tables_single_mapping():
    dram, alloc = _fresh_memory()
    space = build_tables([(0x1000, 0x40, 0)], dram, alloc)
    assert reference_walk(space, 0x1000, dram) == 0x40 << 12


def test_build_tables_shares_intermediate():
    dram, alloc = _fresh_memory()
    a = 2 << 30
    b = (2 << 30) | (1 << 21)  # same index0, different index1
    first = alloc.next_pfn
    build_tables([(a, 0x90000, 0), (b, 0x90001, 0)], dram, alloc)
    # PGD + one shared PUD + two PMDs
    assert alloc.next_pfn == first + 4


def test_build_tables_rejects_conflicting_duplicate():
    dram, alloc = _fresh_memory()
    with pytest.raises(MappingError):
        build_tables([(0x1000, 0x40, 0), (0x1000, 0x41, 0)], dram, alloc)


def test_build_tables_accepts_identical_restatement():
    dram, alloc = _fresh_memory()
    space = build_tables([(0x1000, 0x40, 0), (0x1000, 0x40, 0)], dram, alloc)
    assert reference_walk(space, 0x1000, dram) == 0x40 << 12


def test_build_tables_rejects_unaligned_va():
    dram, alloc = _fresh_memory()
    with pytest.raises(MappingError):
        build_tables([(0x1001, 0x40, 0)], dram, alloc)


def test_build_tables_allocator_exhaustion():
    dram = Dram(0x8000_0000, 2 * 4096)
    alloc = FrameAllocator(dram)
    with pytest.raises(AllocatorExhausted):
        build_tables([(0x1000, 0x40, 0)], dram, alloc)


def _random_build_case(rng):
    """(mappings, stale entries, first table frame) for one build.

    Pages cluster under a few or many level-0 slots and level-1 prefixes,
    in shuffled order, with exact restatements and now and then a
    conflicting duplicate or no mappings at all.  Stale entries are
    (pfn, index, raw) written before the build into frames the allocator
    will hand out as tables, at indices the mappings use: present entries
    naming a data frame, one of those table frames, or a frame outside
    the aperture.  A first frame near the aperture's end runs it dry.
    """
    mappings = []
    if rng.random() < 0.9:
        for i0 in rng.sample(range(512), rng.choice((1, 2, 6, 40))):
            for i1 in rng.sample(range(512), rng.choice((1, 2, 4))):
                # index2 = index0 now and then: through a stale entry naming
                # the level-0 table, that leaf overwrites the slot's entry
                for i2 in {*rng.sample(range(512), rng.randint(1, 12)), i0}:
                    va = (i0 << 30) | (i1 << 21) | (i2 << 12)
                    mappings.append((va, rng.randrange(0x90000, 0xA0000), rng.choice((0, 2, 6, 14))))
        rng.shuffle(mappings)
        mappings += rng.sample(mappings, len(mappings) // 8)  # exact restatements
        if rng.random() < 0.1:
            va, pfn, attrs = rng.choice(mappings)
            mappings.append((va, pfn + 1, attrs))
    dram, _ = _fresh_memory()
    limit = (dram.base + dram.size) >> 12
    first = rng.choice((dram.base >> 12, dram.base >> 12, limit - rng.randint(1, 30)))
    stale = []
    if mappings and rng.random() < 0.5:
        indices = [index for va, _, _ in mappings for index in brute_split(va)[:3]]
        for _ in range(rng.randint(1, 6)):
            pfn = first + rng.randrange(min(8, limit - first))
            target = rng.choice((0x80800, first + rng.randrange(8), first, first, limit + 5))
            stale.append((pfn, rng.choice(indices), (target << 12) | rng.choice((1, 3, 7))))
    return mappings, stale, first


def _build_outcome(build, mappings, stale, first):
    """What building `mappings` over the stale entries leaves behind."""
    dram, _ = _fresh_memory()
    alloc = FrameAllocator(dram)
    alloc.alloc_run(first - alloc.next_pfn)  # the tables start at `first`
    for pfn, index, raw in stale:
        dram.write_qword((pfn << 12) + index * 8, raw)
    try:
        result = build(mappings, dram, alloc)
    except (ValueError, AllocatorExhausted) as exc:
        result = (type(exc), str(exc))
    return result, dram.content_digest(), sorted(dram._lines), alloc.next_pfn


def _reference_build(mappings, dram, alloc):
    leaves = {}
    for va, pfn, attrs in mappings:
        leaf = addressing._leaf(va, pfn, attrs)
        if leaves.setdefault(va, leaf) != leaf:
            raise MappingError(f"conflicting duplicate mapping for {va:#x}")
    pgd_base, table_pfns = build_tables_by_walk(leaves, dram, alloc)
    return pgd_base, frozenset(table_pfns)


def _package_build(mappings, dram, alloc):
    space = build_tables(mappings, dram, alloc)
    return space.pgd_base, space.table_pfns


def test_build_tables_matches_a_builder_that_rereads_every_path():
    rng = random.Random(21)
    kinds = set()
    for case in range(300):
        mappings, stale, first = _random_build_case(rng)
        expected = _build_outcome(_reference_build, mappings, stale, first)
        assert _build_outcome(_package_build, mappings, stale, first) == expected, case
        outcome = expected[0]
        kinds.add(outcome[0].__name__ if isinstance(outcome[0], type) else "built")
        kinds.add("stale" if stale else "clean")
        kinds.add("empty" if not mappings else "mapped")
    assert kinds == {"built", "MappingError", "ValueError", "AllocatorExhausted",
                     "stale", "clean", "empty", "mapped"}


def test_build_tables_rereads_paths_once_a_stale_entry_names_a_table():
    # The level-1 table of slot 5 holds a stale present entry naming the
    # level-0 table, so the first leaf write overwrites level-0 entry 5:
    # the second mapping's path must be read again, not taken from memory.
    dram, alloc = _fresh_memory()
    first = alloc.next_pfn
    mappings = [((5 << 30) | (7 << 21) | (5 << 12), 0x80800, 0), ((5 << 30) | (9 << 21), 0x80801, 0)]
    stale = [(first + 1, 7, (first << 12) | 1)]
    expected = _build_outcome(_reference_build, mappings, stale, first)
    assert _build_outcome(_package_build, mappings, stale, first) == expected
    dram, _ = _fresh_memory()
    ref_alloc = FrameAllocator(dram)
    for pfn, index, raw in stale:
        dram.write_qword((pfn << 12) + index * 8, raw)
    _reference_build(mappings, dram, ref_alloc)
    assert dram.read_qword((first << 12) + 5 * 8) == (0x80800 << 12) | 1


def test_reference_walk_unmapped_faults_at_level0():
    dram, alloc = _fresh_memory()
    space = build_tables([], dram, alloc)
    with pytest.raises(TranslationFault) as exc:
        reference_walk(space, 5 << 30, dram)
    assert exc.value.level == 0
    assert exc.value.pte_address == space.pgd_base + 5 * 8


def test_reference_walk_fault_levels():
    dram, alloc = _fresh_memory()
    space = build_tables([((7 << 30) | (3 << 21), 0x91000, 0)], dram, alloc)
    with pytest.raises(TranslationFault) as exc:
        reference_walk(space, (7 << 30) | (4 << 21), dram)  # shared PUD, absent PMD
    assert exc.value.level == 1
    with pytest.raises(TranslationFault) as exc:
        reference_walk(space, (7 << 30) | (3 << 21) | (1 << 12), dram)
    assert exc.value.level == 2


def test_reference_walk_matches_brute_force():
    rng = random.Random(4)
    for _ in range(10):
        dram, alloc = _fresh_memory()
        pages = rng.sample(range(1 << 27), rng.randint(5, 40))
        mappings = [(p << 12, rng.randrange(1 << 20), 0) for p in pages]
        space = build_tables(mappings, dram, alloc)
        for _ in range(1000):
            if rng.random() < 0.5:
                va = (rng.choice(pages) << 12) | rng.randrange(4096)
            else:
                va = rng.randrange(1 << 39)
            expected = brute_walk(space.pgd_base, va, dram.read_qword)
            try:
                got = ("pa", reference_walk(space, va, dram))
            except TranslationFault as fault:
                got = ("fault", fault.level)
            assert got == expected, f"va={va:#x}"


def test_table_base_matches_brute_force_with_a_hole_at_every_level():
    """`table_base` over the first one, two and three indices of a walk
    against the oracle's walk: the base the oracle reads next (or its PA
    less the offset), or its fault's level and the entry it read last."""
    rng = random.Random(32)
    seen = set()
    for _ in range(10):
        dram, alloc = _fresh_memory()
        slots = rng.sample(range(512), 4)
        pages = [(rng.choice(slots) << 18) | (rng.randrange(4) << 9) | rng.randrange(512)
                 for _ in range(rng.randint(5, 40))]
        space = build_tables({(p << 12, rng.randrange(1 << 20), 0) for p in pages}, dram, alloc)
        for _ in range(300):
            indices = list(brute_split(rng.choice(pages) << 12)[:3])
            hole = rng.randrange(4)  # the level to move off the mapped page; 3 keeps it
            if hole < 3:
                indices[hole] = rng.randrange(512)
            reads = []
            va = ((indices[0] * 512 + indices[1]) * 512 + indices[2]) * 4096
            outcome = brute_walk(space.pgd_base, va, lambda a: reads.append(a) or dram.read_qword(a))
            for n in (1, 2, 3):
                if outcome[0] == "fault" and outcome[1] < n:
                    expected = ("fault", outcome[1], reads[-1])
                elif n < 3:
                    expected = ("base", reads[n] - indices[n] * 8)
                else:
                    expected = ("base", outcome[1])
                try:
                    got = ("base", table_base(space.pgd_base, indices[:n], dram))
                except TranslationFault as fault:
                    got = ("fault", fault.level, fault.pte_address)
                assert got == expected, (hex(va), n)
                seen.add(got[:2] if got[0] == "fault" else "base")
    assert seen == {("fault", 0), ("fault", 1), ("fault", 2), "base"}


def test_attr_flags_roundtrip():
    assert parse_attr_flags("-") == 0
    assert parse_attr_flags("wc") == ATTR_WRITABLE | ATTR_CACHEABLE
    with pytest.raises(MappingError):
        parse_attr_flags("x")


def test_mapping_file_roundtrip():
    text = "# demo\n0x200000000 0x90000 wc\n1000 40\n"
    mappings = parse_mappings(text.splitlines())
    assert mappings == [
        (0x2_0000_0000, 0x90000, ATTR_WRITABLE | ATTR_CACHEABLE),
        (0x1000, 0x40, 0),
    ]


def test_mapping_file_rejects_bad_lines():
    with pytest.raises(MappingError, match="line 2"):
        parse_mappings(["0x1000 0x40\n", "not a line at all\n"])


def test_mapping_file_stops_at_the_first_line_past_the_cap(monkeypatch):
    monkeypatch.setattr(addressing, "MAX_MAPPED_PAGES", 3)
    read = []

    def lines():
        for k in range(100):
            read.append(k)
            yield "# comment\n" if k == 1 else f"{k << 12:#x} 0x40\n"

    with pytest.raises(MappingError, match="^line 5: more than the 3 pages one address"):
        parse_mappings(lines())
    assert read == [0, 1, 2, 3, 4]
    assert len(parse_mappings(f"{k << 12:#x} 0x40\n" for k in range(3))) == 3
