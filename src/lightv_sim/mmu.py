"""Translation engine: TLB, hardware table walker, and load/store front-end.

The walker issues one walk transaction (`walk_read`) per table level for
the 64-byte line holding the descriptor, which is what makes walks visible
to snooping agents, and decodes each descriptor's present bit, frame and
attributes inline.  Whether those lines are allowed to allocate into the
PE cache is a configuration switch (`cache_ptes`).
"""

from collections import OrderedDict

from .addressing import ATTR_MASK, PAGE_SHIFT, PFN_BITS, PTE_BYTES, PTE_PRESENT, VA_BITS
from .addressing import TranslationFault

_PAGE_MASK = (1 << PAGE_SHIFT) - 1
# A descriptor's frame-number field in place: the base of the next table.
_FRAME_BITS = ((1 << PFN_BITS) - 1) << PAGE_SHIFT


class Tlb:
    """Fully associative translation cache with LRU replacement.

    Keyed by (asid, va_page); capacity 0 disables caching entirely.
    """

    def __init__(self, entries: int = 64):
        if entries < 0:
            raise ValueError("tlb size must be >= 0")
        self.capacity = entries
        self._entries = OrderedDict()

    def lookup(self, asid: int, va_page: int):
        hit = self._entries.get((asid, va_page))
        if hit is not None:
            self._entries.move_to_end((asid, va_page))
        return hit

    def insert(self, asid: int, va_page: int, pa_frame: int, attrs: int):
        if self.capacity == 0:
            return
        key = (asid, va_page)
        if key not in self._entries and len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = (pa_frame, attrs)
        self._entries.move_to_end(key)

    def invalidate_range(self, asid: int, va_start: int, va_end: int):
        lo, hi = va_start >> PAGE_SHIFT, (va_end - 1) >> PAGE_SHIFT
        doomed = [
            key for key in self._entries if key[0] == asid and lo <= key[1] <= hi
        ]
        for key in doomed:
            del self._entries[key]


class Mmu:
    """Per-cluster MMU driving walks and data accesses through the fabric."""

    def __init__(
        self,
        cci,
        cache,
        tlb: Tlb,
        spaces: dict,
        expected_translation,
        cache_ptes: bool = False,
        debug_tlb_check: bool = False,
    ):
        self.cci = cci
        self.cache = cache
        self.tlb = tlb
        self.spaces = spaces
        self.cache_ptes = cache_ptes
        # Debug cross-check: on every TLB hit, recompute the translation a
        # fresh walk would produce and assert they agree.
        self.debug_tlb_check = debug_tlb_check
        self._expected_translation = expected_translation

    def _walk_indices(self, va: int):
        # Mirrors the hardware bit slicer; kept separate from
        # addressing.split_va so the two derivations stay independent.
        return (va >> 30) & 0x1FF, (va >> 21) & 0x1FF, (va >> PAGE_SHIFT) & 0x1FF

    def translate(self, asid: int, va: int):
        """Resolve va to its physical address, walking on a TLB miss."""
        if va < 0 or va >> VA_BITS:
            raise ValueError(f"virtual address out of range: {va:#x}")
        page = va >> PAGE_SHIFT
        hit = self.tlb.lookup(asid, page)
        if hit is not None:
            pa = (hit[0] << PAGE_SHIFT) | (va & _PAGE_MASK)
            if self.debug_tlb_check:
                self._check_tlb_hit(asid, va, pa)
            return pa
        frame, attrs = self.hardware_walk(asid, va)
        self.tlb.insert(asid, page, frame, attrs)
        return (frame << PAGE_SHIFT) | (va & _PAGE_MASK)

    def _check_tlb_hit(self, asid: int, va: int, pa: int):
        expected = self._expected_translation(asid, va)
        if expected != pa:
            raise AssertionError(
                f"stale TLB entry for {va:#x}: cached {pa:#x},"
                f" fresh walk gives {expected:#x}"
            )

    def hardware_walk(self, asid: int, va: int):
        """Walk the tables level by level via coherent reads.

        Returns (leaf_pfn, leaf_attrs); raises TranslationFault naming the
        first non-present level and its descriptor address.
        """
        space = self.spaces.get(asid)
        if space is None:
            raise ValueError(f"unknown address space {asid}")
        walk_read, cache, allocate = self.cci.walk_read, self.cache, self.cache_ptes
        base = space.pgd_base
        for level, index in enumerate(self._walk_indices(va)):
            pte_addr = base + index * PTE_BYTES
            raw = walk_read(cache, pte_addr, allocate)
            if not raw & PTE_PRESENT:
                raise TranslationFault(level, pte_addr)
            base = raw & _FRAME_BITS
        return base >> PAGE_SHIFT, raw & ATTR_MASK

    def access(self, asid: int, va: int, write: bool = False, value=None):
        """One data access: returns the byte read, or stores `value`.

        `translate`, then the fabric's `read_byte`/`write_byte`.
        `Machine.replay` resolves a TLB and cache hit inline and calls this
        for every other access.
        """
        if write:
            value &= 0xFF  # a missing value fails here, before any state moves
        pa = self.translate(asid, va)
        if write:
            self.cci.write_byte(self.cache, pa, value)
            return None
        return self.cci.read_byte(self.cache, pa)
