"""Translation engine: TLB, hardware table walker, and load/store front-end.

The walker issues one coherent read per table level for the 64-byte line
holding the descriptor, which is what makes walks visible to snooping
agents.  Whether those lines are allowed to allocate into the PE cache is
a configuration switch (`cache_ptes`).
"""

from collections import OrderedDict

from . import addressing
from .addressing import PAGE_SHIFT, PTE_BYTES, VA_BITS, TranslationFault
from .coherence import LINE_SHIFT, CacheState

_PAGE_MASK = (1 << PAGE_SHIFT) - 1
_LINE_MASK = (1 << LINE_SHIFT) - 1
_SHARED, _MODIFIED = CacheState.SHARED, CacheState.MODIFIED


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

    def __len__(self):
        return len(self._entries)


class Mmu:
    """Per-cluster MMU driving walks and data accesses through the fabric."""

    def __init__(
        self,
        cci,
        cache,
        tlb: Tlb,
        spaces: dict,
        cache_ptes: bool = False,
        debug_tlb_check: bool = False,
        expected_translation=None,
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
        # Bound once for `access`, which reads them on every data access.
        self._tlb_entries = tlb._entries
        self._cache_sets = cache._sets
        self._set_mask = cache._set_mask
        self._counters = cci.counters
        self._clock = cci.clock
        self._lat = cci.lat

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
        if self._expected_translation is None:
            return
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
        indices = self._walk_indices(va)
        base = space.pgd_base
        pfn = attrs = 0
        for level in range(addressing.LEVELS):
            pte_addr = base + indices[level] * PTE_BYTES
            raw = self.cci.walk_read(self.cache, pte_addr, self.cache_ptes)
            present, pfn, attrs = addressing.decode_pte(raw)
            if not present:
                raise TranslationFault(level, pte_addr)
            base = pfn << PAGE_SHIFT
        return pfn, attrs

    def access(self, asid: int, va: int, write: bool = False, value=None):
        """One data access: returns the byte read, or stores `value`.

        A TLB hit followed by a PE-cache hit is resolved here, with the
        same LRU, counter and cycle updates the layers below would make.
        A TLB miss goes through `translate` and the walker; a cache miss,
        or a write to a SHARED line (the READ_UNIQUE upgrade), goes to the
        fabric's miss path.
        """
        if write:
            value &= 0xFF  # a missing value fails here, before any state moves
        if va < 0 or va >> VA_BITS:
            raise ValueError(f"virtual address out of range: {va:#x}")
        entries = self._tlb_entries
        key = (asid, va >> PAGE_SHIFT)
        hit = entries.get(key)
        if hit is None:
            pa = self.translate(asid, va)
        else:
            entries.move_to_end(key)
            pa = (hit[0] << PAGE_SHIFT) | (va & _PAGE_MASK)
            if self.debug_tlb_check:
                self._check_tlb_hit(asid, va, pa)
        # Only the fabric fills the cache, so on a hit its `started` flag
        # is already set.
        line_addr = pa & ~_LINE_MASK
        ways = self._cache_sets[(line_addr >> LINE_SHIFT) & self._set_mask]
        line = ways.get(line_addr)
        if line is None or (write and line.state is _SHARED):
            if write:
                self.cci.write_byte(self.cache, pa, value)
                return None
            return self.cci.read_byte(self.cache, pa)
        ways.move_to_end(line_addr)
        self._counters.data_hits += 1
        self._clock.now += self._lat.cache_hit
        if write:
            line.payload[pa & _LINE_MASK] = value
            line.state = _MODIFIED
            return None
        return line.payload[pa & _LINE_MASK]
