"""Translation engine: TLB and hardware table walker.

The walker issues one walk transaction (`walk_read`) per table level for
the 64-byte line holding the descriptor, which is what makes walks visible
to snooping agents, and decodes each descriptor's present bit, frame and
attributes from the line it returns.  Whether those lines are allowed to
allocate into the PE cache, which the fabric holds, is a configuration
switch (`cache_ptes`).

A TLB miss is resolved in `Mmu.translate`: a walk whose inputs have not
changed is replayed there from a memo, and any other walk runs in
`hardware_walk`, which stores it in the memo when it may be replayed;
`translate` then makes the one TLB fill.  The TLB keys a translation by
`asid << ASID_SHIFT | page`, for an in-range page only, and the memo by its
leaf line, key >> 3: the eight pages whose leaf entries share one 64-byte
line read the same three lines, with the same snoops, DRAM reads and LightV
serves, and differ only in the entry they decode from the last line.  A
stored walk holds its simulated effects (`walk_reads` (3), `snoops_issued`,
`snoops_acked`, the serve cycles of its ACKs, DRAM line reads and LightV's
`lines_manipulated`) and the eight descriptors of the leaf line as served,
as integers.  A replay adds those effects and decodes the frame and
attributes of the page's descriptor without a fabric transaction and with
no check; a page whose descriptor is not present walks for real, faults and
stores nothing.  The memo is exact because it is dropped whole on every
event that changes a stored walk's inputs, as a hardware MMU cache is:
  * only a non-allocating walk (`cache_ptes` off) on a fabric with just the
    agents it had when the machine was built (none, or its own LightV) is
    stored (a foreign agent's answers cannot be known), and only one that
    completed with no walk hit, no context loss and no capture serve; a
    fault or a FabricGap stores nothing;
  * `Dram` holds the memo (`WalkMemo`) with every line a stored walk read:
    its three fabric lines and the real lines LightV built a served chunk
    from.  These drop the whole memo:
      - a DRAM write to one of those lines, in `Dram._store`, the one
        hook on the DRAM side: every write port writes through it;
      - a fill of one of them into the PE cache (the fabric's data fill or
        allocating walk fill).  A stored walk had no walk hit and filled
        nothing, so its fabric lines were absent when it was stored, and
        only the fabric fills the PE cache: while the memo holds a walk,
        its lines are still absent, as the real walk needs them to be;
      - a LightV rule change (`activate`, `deactivate`);
      - a new capture window (`begin_page_capture`).
    Releasing or closing a window only uncaptures lines, and no stored walk
    read a captured line, so neither needs to;
  * it holds at most `WALK_MEMO_LINES` leaf lines and is dropped whole when
    a new walk would pass that bound.
Latencies are fixed for a machine's life, so a walk's serve cycles are too.
"""

import struct
from collections import OrderedDict

from .addressing import ATTR_MASK, PAGE_SHIFT, PFN_BITS, PTE_BYTES, PTE_PRESENT, VA_BITS
from .addressing import TranslationFault
from .coherence import LINE_SHIFT

# The most leaf lines the memo holds.  Each takes at most about 0.83 KB with
# its eight descriptors, path and lines: 3.4 MB at the bound, below the
# 8.9 MB of 2^14 walks keyed by page, one per leaf line, at 540 B each.
WALK_MEMO_LINES = 1 << 12

# A translation's key is asid << ASID_SHIFT | page; key & PAGE_FIELD is the page.
ASID_SHIFT = VA_BITS - PAGE_SHIFT
PAGE_FIELD = (1 << ASID_SHIFT) - 1
_PAGE_MASK = (1 << PAGE_SHIFT) - 1
# A line holds 8 entries: a page's leaf line is page >> 3, its slot page & 7.
_LEAF_SHIFT, _LEAF_SLOT = 3, 7
_LEAF_ENTRIES = struct.Struct("<8Q")
# A descriptor's frame-number field in place: the base of the next table.
_FRAME_BITS = ((1 << PFN_BITS) - 1) << PAGE_SHIFT
_LINE_BASE = ~((1 << LINE_SHIFT) - 1)


class WalkMemo:
    """The walks `Mmu.translate` replays and the DRAM lines they read.

    `walks` maps a leaf line's key (key >> 3) to (entries, path): `entries`
    are the leaf line's eight descriptors as served, and `path` is the
    walk's effects (see `Mmu._effects`).  `lines` holds every line a stored
    walk read, its fabric lines and its DRAM lines; a DRAM write or a
    PE-cache fill of one of them drops the memo.  `forget` empties both.
    """

    __slots__ = ("walks", "lines")

    def __init__(self):
        self.walks, self.lines = {}, set()

    def forget(self):
        self.walks.clear()
        self.lines.clear()


class Tlb:
    """Fully associative translation cache with LRU replacement.

    Keyed by `asid << ASID_SHIFT | va_page`, filled by `Mmu.translate`; capacity 0 caches nothing.
    """

    def __init__(self, entries: int):
        if entries < 0:
            raise ValueError("tlb size must be >= 0")
        self.capacity = entries
        self._entries = OrderedDict()

    def lookup(self, asid: int, va_page: int):
        if va_page >> ASID_SHIFT:  # past the page field, or negative: another asid's key
            raise ValueError(f"virtual page out of range: {va_page:#x}")
        hit = self._entries.get(key := asid << ASID_SHIFT | va_page)
        if hit is not None:
            self._entries.move_to_end(key)
        return hit

    def invalidate_range(self, asid: int, va_start: int, va_end: int):
        lo, hi = va_start >> PAGE_SHIFT, (va_end - 1) >> PAGE_SHIFT
        doomed = [
            key for key in self._entries
            if key >> ASID_SHIFT == asid and lo <= key & PAGE_FIELD <= hi
        ]
        for key in doomed:
            del self._entries[key]


class Mmu:
    """Per-cluster MMU driving walks through the fabric."""

    def __init__(self, cci, tlb: Tlb, spaces: dict, lightv, cache_ptes: bool, debug_tlb_check: bool):
        self.cci = cci
        self.lightv = lightv
        # The only fabric agents under which a walk may be stored: those
        # registered before the MMU was built.
        self._own_agents = list(cci.agents)
        self._counters, self._dram = cci.counters, cci.dram
        self._memo = cci.dram.walk_memo
        self._walks = self._memo.walks
        self.tlb, self._tlb_entries = tlb, tlb._entries
        self.spaces = spaces
        self.cache_ptes = cache_ptes
        # Debug cross-check: on every TLB hit, recompute the translation a
        # fresh walk would produce and assert they agree.
        self.debug_tlb_check = debug_tlb_check

    def _walk_indices(self, va: int):
        # Mirrors the hardware bit slicer; kept separate from
        # addressing.split_va so the two derivations stay independent.
        return (va >> 30) & 0x1FF, (va >> 21) & 0x1FF, (va >> PAGE_SHIFT) & 0x1FF

    def translate(self, asid: int, va: int):
        """Resolve va to its physical address; a TLB miss replays a stored
        walk (see the module docstring) or walks, then fills the TLB."""
        if va >> VA_BITS:
            raise ValueError(f"virtual address out of range: {va:#x}")
        page = va >> PAGE_SHIFT
        hit = self.tlb.lookup(asid, page)
        if hit is not None:
            pa = (hit[0] << PAGE_SHIFT) | (va & _PAGE_MASK)
            if self.debug_tlb_check and (expected := self.lightv.expected_pa(asid, va)) != pa:
                raise AssertionError(
                    f"stale TLB entry for {va:#x}: cached {pa:#x}, fresh walk gives {expected:#x}"
                )
            return pa
        key = asid << ASID_SHIFT | page
        stored = self._walks.get(key >> _LEAF_SHIFT)
        if stored is not None and (raw := stored[0][page & _LEAF_SLOT]) & PTE_PRESENT:
            serve, snoops, acks, reads, served = stored[1]
            c = self._counters
            c.serve_cycles += serve
            c.walk_reads += 3
            c.snoops_issued += snoops
            c.snoops_acked += acks
            self._dram.reads += reads
            if served:
                self.lightv.lines_manipulated += served
            frame, attrs = (raw & _FRAME_BITS) >> PAGE_SHIFT, raw & ATTR_MASK
        else:
            frame, attrs = self.hardware_walk(asid, va)
        capacity, entries = self.tlb.capacity, self._tlb_entries
        if capacity:  # the probe missed and nothing since touched the TLB: a new key
            if len(entries) >= capacity:
                entries.popitem(False)
            entries[key] = frame, attrs
        return (frame << PAGE_SHIFT) | (va & _PAGE_MASK)

    def hardware_walk(self, asid: int, va: int):
        """Walk the tables level by level via coherent reads, and store the
        walk in the memo when it may be replayed (see the module docstring).

        Returns (leaf_pfn, leaf_attrs) of `va`, which `translate` checked;
        raises TranslationFault naming the first non-present level and its
        descriptor address.
        """
        space = self.spaces.get(asid)
        if space is None:
            raise ValueError(f"unknown address space {asid}")
        cci, dram, allocate = self.cci, self._dram, self.cache_ptes
        record = not allocate and cci.agents == self._own_agents
        if record:
            before = self._effects()
            dram.read_log = read = []
        walk_read = cci.walk_read
        base = space.pgd_base
        lines = []
        try:
            for level, index in enumerate(self._walk_indices(va)):
                pte_addr = base + index * PTE_BYTES
                line_addr = pte_addr & _LINE_BASE
                lines.append(line_addr)
                line = walk_read(pte_addr, allocate)
                off = pte_addr - line_addr
                raw = int.from_bytes(line[off : off + PTE_BYTES], "little")
                if not raw & PTE_PRESENT:
                    raise TranslationFault(level, pte_addr)
                base = raw & _FRAME_BITS
        finally:
            dram.read_log = None
        if record:
            after = self._effects()
            # No walk hit, context loss or capture serve: the walk's fabric
            # lines are absent from the PE cache, and it read nothing but
            # the lines the memo now watches.
            if after[5:] == before[5:]:
                memo = self._memo
                if len(memo.walks) >= WALK_MEMO_LINES:
                    memo.forget()
                path = tuple(now - then for then, now in zip(before[:5], after[:5]))
                key = asid << ASID_SHIFT | va >> PAGE_SHIFT
                memo.walks[key >> _LEAF_SHIFT] = _LEAF_ENTRIES.unpack(line), path
                memo.lines.update(lines, read)
        return base >> PAGE_SHIFT, raw & ATTR_MASK

    def _effects(self):
        """The totals a walk may move: the five a replay adds (serve cycles,
        snoops issued and acked, DRAM reads, lines manipulated), then the
        three a stored walk leaves as they were (walk hits, context losses,
        capture serves)."""
        c, lightv = self._counters, self.lightv
        return (
            c.serve_cycles, c.snoops_issued, c.snoops_acked, self._dram.reads,
            lightv.lines_manipulated, c.walk_hits, lightv.context_lost, lightv.data_captures,
        )
