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
)
from lightv_sim.machine import AllocatorExhausted, Dram, FrameAllocator

from oracles import brute_split, brute_walk


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
    space = build_tables([], dram, alloc)
    assert alloc.allocated == 1  # just the PGD
    for index in range(512):
        present, _, _ = decode_pte(addressing.read_pte(dram, space.pgd_base, index))
        assert not present


def test_build_tables_single_mapping():
    dram, alloc = _fresh_memory()
    space = build_tables([(0x1000, 0x40, 0)], dram, alloc)
    assert reference_walk(space, 0x1000, dram) == 0x40 << 12


def test_build_tables_shares_intermediate():
    dram, alloc = _fresh_memory()
    a = 2 << 30
    b = (2 << 30) | (1 << 21)  # same index0, different index1
    build_tables([(a, 0x90000, 0), (b, 0x90001, 0)], dram, alloc)
    # PGD + one shared PUD + two PMDs
    assert alloc.allocated == 4


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


def test_attr_flags_roundtrip():
    assert parse_attr_flags("-") == 0
    assert parse_attr_flags("wc") == ATTR_WRITABLE | ATTR_CACHEABLE
    with pytest.raises(MappingError):
        parse_attr_flags("x")


def test_mapping_file_roundtrip():
    text = "# demo\n0x200000000 0x90000 wc\n1000 40\n"
    mappings = parse_mappings(text)
    assert mappings == [
        (0x2_0000_0000, 0x90000, ATTR_WRITABLE | ATTR_CACHEABLE),
        (0x1000, 0x40, 0),
    ]


def test_mapping_file_rejects_bad_lines():
    with pytest.raises(MappingError, match="line 2"):
        parse_mappings("0x1000 0x40\nnot a line at all\n")
