"""Address decomposition, page-table entry codec, and radix-table construction.

Models a 39-bit virtual address space translated through three 512-entry
table levels at 4 KB granularity.  Tables live in a simulated memory
handle, and `table_base` is the one software walk of them, reading that
memory directly, bypassing caches and the fabric.  `reference_walk`, the
ground truth the simulator is checked against, sits on top of it;
`build_tables` links tables as it walks; `mmu.Mmu.hardware_walk` is the
modelled walk.
"""

from dataclasses import dataclass
from itertools import count

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
VA_BITS = 39
PA_BITS = 40
PFN_BITS = 28
INDEX_BITS = 9
LEVELS = 3
ENTRIES_PER_TABLE = 1 << INDEX_BITS
PTE_BYTES = 8
# Set-up holds one mapping per page, so an address space may map no more
# pages than this (4 GiB; the paper-scale histogram maps 13,580).
MAX_MAPPED_PAGES = 1 << 20

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
    """A translation root: numeric address-space id plus its PGD base, and
    the frames of every table `build_tables` built for it."""

    asid: int
    pgd_base: int
    table_pfns: frozenset


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


def build_tables(mappings, memory, allocator, asid: int = 0) -> AddressSpace:
    """Materialize a 3-level radix tree in simulated memory.

    `mappings` is an iterable of (va, pfn, attrs) for 4 KB pages.
    Intermediate tables are allocated on demand and shared by mappings
    with a common index prefix.  Every mapping is checked before the first
    frame is allocated: a bad field or a conflicting duplicate raises
    MappingError; an exact re-statement of a mapping is a no-op.

    Each prefix is resolved once: the first mapping under an index0 or a
    `va >> 21` reads the entry that leads to its table, linking a new table
    if it is not present, and later mappings under it write only their
    leaf.  While every table met was linked by this call, that is what a
    re-read would give, since nothing else writes them.  An entry already
    present (stale bytes in a frame handed out) may name any frame, one of
    these tables too, so from then on each mapping reads its path afresh.
    """
    leaves = {}
    for va, pfn, attrs in mappings:
        leaf = _leaf(va, pfn, attrs)
        if leaves.setdefault(va, leaf) != leaf:
            raise MappingError(f"conflicting duplicate mapping for {va:#x}")
    table_pfns = [allocator.alloc()]
    pgd_base = table_pfns[0] << PAGE_SHIFT
    level1, level2 = {}, {}  # index0 / va >> 21 -> table base, while exact
    exact = True

    def link(known, key, base, index):
        """The base of the table that entry `index` of table `base` names,
        allocating and linking one when the entry is not present."""
        nonlocal exact
        addr = base + index * PTE_BYTES
        present, pfn, _ = decode_pte(memory.read_qword(addr))
        if not present:
            pfn = allocator.alloc()
            table_pfns.append(pfn)
            memory.write_qword(addr, encode_pte(True, pfn))
        elif exact:
            exact = False
            level1.clear()
            level2.clear()
        table = pfn << PAGE_SHIFT
        if exact:
            known[key] = table
        return table

    write = memory.write_qword
    for va, leaf in leaves.items():
        base = level2.get(va >> 21)
        if base is None:
            pud = level1.get(va >> 30)
            if pud is None:
                pud = link(level1, va >> 30, pgd_base, va >> 30)
            base = link(level2, va >> 21, pud, (va >> 21) & _INDEX_MASK)
        write(base + ((va >> PAGE_SHIFT) & _INDEX_MASK) * PTE_BYTES, leaf)
    return AddressSpace(asid, pgd_base, frozenset(table_pfns))


def _leaf(va: int, pfn: int, attrs: int) -> int:
    """The leaf descriptor of one mapping; MappingError for a VA that is
    not page-aligned or out of range, or a frame or attribute that
    `encode_pte` rejects."""
    if va & _OFFSET_MASK:
        raise MappingError(f"mapped VA not page-aligned: {va:#x}")
    if not 0 <= va < 1 << VA_BITS:
        raise MappingError(f"virtual address out of range: {va:#x}")
    try:
        return encode_pte(True, pfn, attrs)
    except ValueError as exc:
        raise MappingError(str(exc)) from None


def table_base(pgd_base: int, indices, memory) -> int:
    """The base that the last entry names, following one entry per index
    from the level-0 table at `pgd_base`; TranslationFault(level, entry
    address) at the first entry that is not present."""
    base = pgd_base
    for level, index in enumerate(indices):
        addr = base + index * PTE_BYTES
        present, pfn, _ = decode_pte(memory.read_qword(addr))
        if not present:
            raise TranslationFault(level, addr)
        base = pfn << PAGE_SHIFT
    return base


def reference_walk(space: AddressSpace, va: int, memory) -> int:
    """Resolve va by reading the tables directly from memory: the physical
    address, or the TranslationFault of `table_base`."""
    *indices, offset = split_va(va)
    return table_base(space.pgd_base, indices, memory) | offset


def read_records(lines, usage: str, error, convert):
    """Yield `convert(fields)` for each record of a line-based input file.

    This is the one reader of the mapping, rule and trace formats.  A line
    is cut at its first `#` and split on whitespace; a line left with no
    field is skipped.  `usage` names the fields, bracketed ones optional: a
    wrong field count raises `error("line N: expected '<usage>'")`, and a
    ValueError from `convert` is raised again as `error("line N: <message>")`.
    So is a byte that is not UTF-8, if `lines` is a file opened with
    `errors="surrogateescape"`: a strict decoder would fail on the whole
    read buffer that holds it, with no line number.
    """
    names = usage.split()
    most = len(names)
    least = most - sum(name.startswith("[") for name in names)
    for lineno, line in enumerate(lines, 1):
        try:
            if not line.isascii():
                # Raise a byte the decoder kept as a surrogate as the
                # UnicodeDecodeError it was, its position in this line.
                line.encode(errors="surrogateescape").decode()
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            if not least <= len(fields) <= most:
                raise ValueError(f"expected '{usage}'")
            record = convert(fields)
        except ValueError as exc:
            raise error(f"line {lineno}: {exc}") from None
        yield record


def hex_field(text: str) -> int:
    """A hex field of an input file, with an optional 0x prefix."""
    t = text[2:] if text[:2].lower() == "0x" else text
    return int(t, 16)


def _mapping(fields):
    va, pfn = hex_field(fields[0]), hex_field(fields[1])
    attrs = parse_attr_flags(fields[2]) if len(fields) == 3 else 0
    _leaf(va, pfn, attrs)
    return va, pfn, attrs


def parse_mappings(lines):
    """The (va, pfn, attrs) of each line of a mapping list:
    `VA_hex PFN_hex [attr_flags]` (see `read_records`).  Each is checked
    as `build_tables` checks it, so a bad field names its line.  The
    mapping past `MAX_MAPPED_PAGES` fails the same way, before a later
    line is read, so a file past the cap costs no more than the cap."""
    seen = count(1)

    def mapping(fields):
        if next(seen) > MAX_MAPPED_PAGES:
            raise ValueError(f"more than the {MAX_MAPPED_PAGES} pages one address space may map")
        return _mapping(fields)

    return list(read_records(lines, "VA PFN [flags]", MappingError, mapping))
