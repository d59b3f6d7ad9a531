"""Address decomposition, page-table entry codec, and radix-table construction.

Models a 39-bit virtual address space translated through three 512-entry
table levels at 4 KB granularity.  Everything here is pure software: tables
live in a simulated memory handle, and `reference_walk` resolves addresses
by reading that memory directly, bypassing caches and the coherent fabric.
It is the ground-truth translator the rest of the simulator is checked
against.
"""

from dataclasses import dataclass

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
VA_BITS = 39
PA_BITS = 40
PFN_BITS = 28
INDEX_BITS = 9
LEVELS = 3
ENTRIES_PER_TABLE = 1 << INDEX_BITS
PTE_BYTES = 8

# Descriptor layout (simulator-defined beyond the present bit):
#   bit 0        present
#   bits 1..3    attributes (writable / cacheable / user)
#   bits 12..39  output frame number
PTE_PRESENT = 0x1
ATTR_WRITABLE = 0x2
ATTR_CACHEABLE = 0x4
ATTR_USER = 0x8
ATTR_MASK = ATTR_WRITABLE | ATTR_CACHEABLE | ATTR_USER

_INDEX_MASK = ENTRIES_PER_TABLE - 1
_OFFSET_MASK = PAGE_SIZE - 1
_PFN_MASK = (1 << PFN_BITS) - 1

_ATTR_FLAGS = {"w": ATTR_WRITABLE, "c": ATTR_CACHEABLE, "u": ATTR_USER}


class TranslationFault(Exception):
    """A walk hit a non-present entry.

    Carries the level that faulted and the physical address of the entry
    that was consulted, which fault-handling scenarios inspect.
    """

    def __init__(self, level: int, pte_address: int):
        super().__init__(
            f"translation fault at level {level}, pte @ {pte_address:#x}"
        )
        self.level = level
        self.pte_address = pte_address


class MappingError(ValueError):
    """Bad mapping input: misaligned VA, conflicting duplicate, bad field."""


@dataclass(frozen=True)
class AddressSpace:
    """A translation root: numeric address-space id plus its PGD base."""

    asid: int
    pgd_base: int


def split_va(va: int):
    """Split a virtual address into (index0, index1, index2, offset).

    index0 selects the level-0 table slot (VA bits 38..30), index1 the
    level-1 slot (29..21), index2 the level-2 slot (20..12); the low
    12 bits are the in-page offset.
    """
    if va < 0 or va >> VA_BITS:
        raise ValueError(f"virtual address out of range: {va:#x}")
    return (
        (va >> 30) & _INDEX_MASK,
        (va >> 21) & _INDEX_MASK,
        (va >> PAGE_SHIFT) & _INDEX_MASK,
        va & _OFFSET_MASK,
    )


def encode_pte(present: bool, pfn: int, attrs: int = 0) -> int:
    """Pack a descriptor word from its fields."""
    if pfn < 0 or pfn >> PFN_BITS:
        raise ValueError(f"pfn out of range: {pfn:#x}")
    if attrs & ~ATTR_MASK:
        raise ValueError(f"unknown attribute bits: {attrs:#x}")
    raw = (pfn << PAGE_SHIFT) | attrs
    if present:
        raw |= PTE_PRESENT
    return raw


def decode_pte(raw: int):
    """Unpack a descriptor word into (present, pfn, attrs).

    Total over all 64-bit words; non-present entries still report their
    field bits so decoding is deterministic.
    """
    return (
        bool(raw & PTE_PRESENT),
        (raw >> PAGE_SHIFT) & _PFN_MASK,
        raw & ATTR_MASK,
    )


def parse_attr_flags(text: str) -> int:
    """Parse flag characters ('w', 'c', 'u', or '-' for none)."""
    if text in ("", "-"):
        return 0
    attrs = 0
    for ch in text:
        bit = _ATTR_FLAGS.get(ch.lower())
        if bit is None:
            raise MappingError(f"unknown attribute flag {ch!r}")
        attrs |= bit
    return attrs


def pte_address(table_base: int, index: int) -> int:
    return table_base + index * PTE_BYTES


def read_pte(memory, table_base: int, index: int) -> int:
    return memory.read_qword(pte_address(table_base, index))


def write_pte(memory, table_base: int, index: int, raw: int):
    memory.write_qword(pte_address(table_base, index), raw)


def build_tables(mappings, memory, allocator, asid: int = 0) -> AddressSpace:
    """Materialize a 3-level radix tree in simulated memory.

    `mappings` is an iterable of (va, pfn, attrs) for 4 KB pages.
    Intermediate tables are allocated on demand and shared by mappings
    with a common index prefix.  Conflicting duplicates are rejected;
    an exact re-statement of an existing mapping is a no-op.
    """
    pgd_base = allocator.alloc() << PAGE_SHIFT
    space = AddressSpace(asid, pgd_base)
    installed = {}
    for va, pfn, attrs in mappings:
        if va & _OFFSET_MASK:
            raise MappingError(f"mapped VA not page-aligned: {va:#x}")
        prior = installed.get(va)
        if prior is not None:
            if prior != (pfn, attrs):
                raise MappingError(f"conflicting duplicate mapping for {va:#x}")
            continue
        index0, index1, index2, _ = split_va(va)
        base = pgd_base
        for index in (index0, index1):
            present, next_pfn, _ = decode_pte(read_pte(memory, base, index))
            if not present:
                next_pfn = allocator.alloc()
                write_pte(memory, base, index, encode_pte(True, next_pfn))
            base = next_pfn << PAGE_SHIFT
        leaf = read_pte(memory, base, index2)
        if leaf & PTE_PRESENT:
            raise MappingError(f"conflicting duplicate mapping for {va:#x}")
        write_pte(memory, base, index2, encode_pte(True, pfn, attrs))
        installed[va] = (pfn, attrs)
    return space


def reference_walk(space: AddressSpace, va: int, memory) -> int:
    """Resolve va by reading the tables directly from memory.

    Returns the physical address, or raises TranslationFault naming the
    first non-present level and the entry address it consulted.
    """
    index0, index1, index2, offset = split_va(va)
    base = space.pgd_base
    for level, index in enumerate((index0, index1, index2)):
        addr = pte_address(base, index)
        present, pfn, _ = decode_pte(memory.read_qword(addr))
        if not present:
            raise TranslationFault(level, addr)
        base = pfn << PAGE_SHIFT
    return base | offset


def parse_mappings(text: str):
    """Parse the mapping list format: `VA_hex PFN_hex [attr_flags]` per line.

    Blank lines and `#` comments are ignored.  Hex fields accept an
    optional 0x prefix.
    """
    mappings = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) not in (2, 3):
            raise MappingError(f"line {lineno}: expected 'VA PFN [flags]'")
        try:
            va = _hex_field(parts[0])
            pfn = _hex_field(parts[1])
        except ValueError as exc:
            raise MappingError(f"line {lineno}: {exc}") from None
        attrs = parse_attr_flags(parts[2]) if len(parts) == 3 else 0
        mappings.append((va, pfn, attrs))
    return mappings


def _hex_field(text: str) -> int:
    t = text[2:] if text[:2].lower() == "0x" else text
    return int(t, 16)
