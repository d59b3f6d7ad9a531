"""Coherent agent that rewrites translations by answering walk snoops.

The module sits on the snoop fabric and claims ownership of cache lines
that belong to table-walk paths it wants to redirect.  For a watched
level-0 line it serves the real DRAM content with the targeted entry's
frame number swapped for a watermark: a fabricated frame number inside a
reserved window that no memory backs.  When the walker then asks for the
next-level line inside that window, the watermark itself identifies the
walk (level plus a context-cache key), so the module can synthesize the
next chunk -- another watermark for intermediate levels, or the final
redirected leaf entry.  Entries it is not targeting are passed through
byte-for-byte, so neighbouring translations are unaffected.

Watermarking keeps redirection correct even when previously served PTE
lines linger in the PE cache: a cached watermark still routes the next
miss back here, so partial visibility of the walk is harmless.

While serving a chunk the module consults the live tables it shadows
(one DRAM line read per serve) rather than caching their contents: leaf
attributes are merged fresh and a non-present real entry is mirrored as
non-present, so an unpopulated mapping faults just as it would have --
except that the faulting descriptor address the OS then sees lies in the
watermark window, which is precisely the demand-paging hazard the
scenarios reproduce.
"""

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from . import addressing
from .addressing import PAGE_SHIFT, PAGE_SIZE, decode_pte, encode_pte
from .coherence import LINE_BYTES

WM_LEVEL_BITS = 2
WM_CONTEXT_BITS = 12
CONTEXT_CAPACITY = 1 << WM_CONTEXT_BITS
WM_SPAN_FRAMES = 1 << (WM_LEVEL_BITS + WM_CONTEXT_BITS)

_LINE_MASK = LINE_BYTES - 1
_FRAME_OFF_MASK = PAGE_SIZE - 1


class RuleError(ValueError):
    """Rejected rewrite rule: overlap, unknown space, bad range."""


class IsolationError(RuleError):
    """Strict activation found the target range not isolated/pre-mapped."""


class ContextCapacityError(RuntimeError):
    """No free context-cache slots for a new translation path."""


class WatermarkWindow:
    """Reserved frame-number window encoding (level, context id) pairs.

    The window must be disjoint from the DRAM aperture so a fabricated
    frame can never alias real memory.
    """

    def __init__(self, base_pfn: int):
        if base_pfn % WM_SPAN_FRAMES:
            raise ValueError(
                f"watermark window base must be {WM_SPAN_FRAMES}-frame aligned"
            )
        if base_pfn < 0 or (base_pfn + WM_SPAN_FRAMES) > (1 << addressing.PFN_BITS):
            raise ValueError("watermark window outside frame-number range")
        self.base_pfn = base_pfn

    def contains_pfn(self, pfn: int) -> bool:
        return self.base_pfn <= pfn < self.base_pfn + WM_SPAN_FRAMES

    def encode(self, level: int, context_id: int) -> int:
        if level not in (1, 2):
            raise ValueError(f"watermark level must be 1 or 2, got {level}")
        if not 0 <= context_id < CONTEXT_CAPACITY:
            raise ValueError(f"context id out of range: {context_id}")
        return self.base_pfn | (level << WM_CONTEXT_BITS) | context_id

    def decode(self, pfn: int):
        """Inverse of encode; None for frame numbers outside the window."""
        if not self.contains_pfn(pfn):
            return None
        low = pfn - self.base_pfn
        return low >> WM_CONTEXT_BITS, low & (CONTEXT_CAPACITY - 1)


@dataclass(frozen=True)
class RewriteRule:
    """Redirect a page-aligned VA range to a replacement frame run."""

    rule_id: int
    asid: int
    va_start: int
    va_end: int
    replacement_base_pfn: int
    attr_overrides: Optional[int] = None

    def validate(self):
        if self.va_start & (PAGE_SIZE - 1) or self.va_end & (PAGE_SIZE - 1):
            raise RuleError(f"rule {self.rule_id}: range not page-aligned")
        if not 0 <= self.va_start < self.va_end <= (1 << addressing.VA_BITS):
            raise RuleError(f"rule {self.rule_id}: empty or out-of-range span")
        if self.attr_overrides is not None and self.attr_overrides & ~addressing.ATTR_MASK:
            raise RuleError(f"rule {self.rule_id}: unknown attribute override bits")

    @property
    def page_count(self) -> int:
        return (self.va_end - self.va_start) >> PAGE_SHIFT

    def covers(self, va: int) -> bool:
        return self.va_start <= va < self.va_end

    def replacement_pfn_for(self, va: int) -> int:
        return self.replacement_base_pfn + ((va - self.va_start) >> PAGE_SHIFT)


@dataclass
class TranslationContext:
    """Context-cache record for one walk-path prefix.

    `prefix` is (index0,) for a level-1 watermark frame or
    (index0, index1) for a leaf-level frame.  `original_table_addr` is the
    base of the real table this watermark frame stands in for; it is
    refreshed from the parent entry every time the parent line is served.
    """

    context_id: int
    asid: int
    level: int
    prefix: tuple
    original_table_addr: Optional[int] = None


@dataclass
class PgdWatch:
    """Watched real table line; slots name the level-0 entries on paths."""

    slots: list = field(default_factory=list)  # (asid, index0, pgd_base)
    level: int = 0


@dataclass
class CaptureWatch:
    """Data line intercepted during a migration window; served from src."""

    src_line: int


class LightV:
    """The snoop-port agent: path checker, manipulator, context cache."""

    def __init__(self, window: WatermarkWindow, dram, latencies, spaces: dict):
        self.window = window
        self.dram = dram
        self.lat = latencies
        self.spaces = spaces
        self.rules = {}
        self._rules_by_slot = {}  # (asid, index0) -> rules meeting that slot
        self.watch = {}
        self._ctx_by_key = {}
        self._ctx_by_id = {}
        self._free_ids = []
        self._next_id = 0
        self._mirror = {}
        self.lines_manipulated = 0
        self.context_lost = 0
        self.data_captures = 0

    # -- activation -----------------------------------------------------------

    def activate(self, rules, strict: bool = True):
        """Install rewrite rules and seed the watch set.

        Validates ranges, disjointness, that no level-0 line a rule needs
        is under page capture, (in strict mode) that each target range is
        pre-mapped and owns its level-0 slots outright, and that the
        context cache has room for every new path, before it changes
        anything: a call that raises leaves the agent as it found it.

        Returns (tlb_ranges, lines): the (asid, va_start, va_end) ranges
        whose TLB entries and the watched lines whose PE-cached copies the
        caller must invalidate, so the next walk is observed from level 0.
        """
        rules = list(rules)
        ids = set(self.rules)
        for rule in rules:
            rule.validate()
            if rule.rule_id in self.rules:
                raise RuleError(f"rule id {rule.rule_id} already active")
            if rule.rule_id in ids:
                raise RuleError(f"rule id {rule.rule_id} given twice")
            ids.add(rule.rule_id)
            if rule.asid not in self.spaces:
                raise RuleError(f"rule {rule.rule_id}: unknown asid {rule.asid}")
            pgd_base = self.spaces[rule.asid].pgd_base
            for i0 in self._index0_span(rule):
                line = (pgd_base + i0 * addressing.PTE_BYTES) & ~_LINE_MASK
                if isinstance(self.watch.get(line), CaptureWatch):
                    raise RuleError(
                        f"rule {rule.rule_id}: level-0 line {line:#x} is under capture"
                    )
            last_pfn = rule.replacement_base_pfn + rule.page_count - 1
            if not (
                self.dram.contains(rule.replacement_base_pfn << PAGE_SHIFT)
                and self.dram.contains((last_pfn << PAGE_SHIFT) + PAGE_SIZE - 1)
            ):
                raise RuleError(
                    f"rule {rule.rule_id}: replacement frames outside DRAM aperture"
                )
        for i, rule in enumerate(rules):
            peers = [r for r in rules[:i] if r.asid == rule.asid]
            peers += [r for r in self.rules.values() if r.asid == rule.asid]
            for other in peers:
                if rule.va_start < other.va_end and other.va_start < rule.va_end:
                    raise RuleError(
                        f"rules {rule.rule_id} and {other.rule_id} overlap"
                    )
        if strict:
            self._check_strict(rules)
        new_paths = {}  # insertion-ordered set: ids go out in rule order
        for rule in rules:
            for prefix in self._prefixes(rule):
                if (rule.asid, prefix) not in self._ctx_by_key:
                    new_paths[rule.asid, prefix] = None
        free = len(self._free_ids) + max(0, CONTEXT_CAPACITY - self._next_id)
        if len(new_paths) > free:
            raise ContextCapacityError("context cache full")

        for rule in rules:
            self.rules[rule.rule_id] = rule
        self._reindex_rules()
        for asid, prefix in new_paths:
            self._add_context(asid, prefix)
        new_lines = []
        for rule in rules:
            pgd_base = self.spaces[rule.asid].pgd_base
            for i0 in self._index0_span(rule):
                line = (pgd_base + i0 * addressing.PTE_BYTES) & ~_LINE_MASK
                entry = self.watch.get(line)
                if entry is None:
                    entry = PgdWatch()
                    self.watch[line] = entry
                    new_lines.append(line)
                slot = (rule.asid, i0, pgd_base)
                if slot not in entry.slots:
                    entry.slots.append(slot)
        return [(r.asid, r.va_start, r.va_end) for r in rules], new_lines

    def deactivate(self, rule_id: int):
        """Remove a rule; future walks of its range see the true tables.

        Returns (tlb_ranges, lines) to invalidate, as `activate` does.
        """
        rule = self.rules.pop(rule_id, None)
        if rule is None:
            raise RuleError(f"unknown rule id {rule_id}")
        self._reindex_rules()

        stale_lines = set(
            line for line, e in self.watch.items() if isinstance(e, PgdWatch)
        )
        for key, ctx in list(self._ctx_by_key.items()):
            if not self._prefix_covered(ctx.asid, ctx.prefix):
                frame = self.window.encode(ctx.level, ctx.context_id) << PAGE_SHIFT
                for k in range(PAGE_SIZE // LINE_BYTES):
                    stale_lines.add(frame + (k << 6))
                del self._ctx_by_key[key]
                del self._ctx_by_id[ctx.context_id]
                heapq.heappush(self._free_ids, ctx.context_id)
        for line, entry in list(self.watch.items()):
            if not isinstance(entry, PgdWatch):
                continue
            entry.slots = [
                s for s in entry.slots if (s[0], (s[1],)) in self._ctx_by_key
            ]
            if not entry.slots:
                del self.watch[line]
        return [(rule.asid, rule.va_start, rule.va_end)], sorted(stale_lines)

    # -- snoop handling -------------------------------------------------------

    def handle_snoop(self, line_addr: int):
        """The fabric's agent callable: None (NACK), or (payload,
        serve_cycles) (ACK) with fabricated content when the line is on a
        watched path.  Serving costs `lightv` plus `dram` per DRAM line
        read."""
        match = self.path_check(line_addr)
        if match is None:
            return None
        if isinstance(match, CaptureWatch):
            payload = self.dram.read_line(match.src_line)
            self.data_captures += 1
            return payload, self.lat.lightv + self.lat.dram
        reads_before = self.dram.reads
        payload = self.manipulate_line(match, line_addr)
        self.lines_manipulated += 1
        return payload, self.lat.lightv + self.lat.dram * (self.dram.reads - reads_before)

    def path_check(self, line_addr: int):
        """Watch-set membership plus the watermark-window decode path.

        Returns the matching watch entry, the TranslationContext a
        watermark line decodes to (its level already checked against the
        watermark's), or None.  A watermark line whose context is gone
        counts as a context-cache loss and is not claimed, leaving the
        unbacked read to fail loudly.
        """
        entry = self.watch.get(line_addr)
        if entry is not None:
            return entry
        decoded = self.window.decode(line_addr >> PAGE_SHIFT)
        if decoded is not None:
            level, context_id = decoded
            ctx = self._ctx_by_id.get(context_id)
            if ctx is None or ctx.level != level:
                self.context_lost += 1
                return None
            return ctx
        return None

    def manipulate_line(self, match, line_addr: int) -> bytearray:
        """Build the served content of one 64-byte chunk on a watched path.

        `match` is what `path_check` returned: a PgdWatch (level 0) or a
        TranslationContext (level 1 or 2).  Level 0 starts from the real
        line content read from DRAM; watermark chunks start blank and are
        synthesized against the live table the context shadows.  Only
        whole 8-byte entries on targeted paths change; every other byte
        of the real line is preserved.
        """
        if match.level == 0:
            real = bytearray(self.dram.read_line(line_addr))
            return self._rewrite_watched_line(real, match)
        return self._synthesize_wm_chunk(line_addr, match)

    def _rewrite_watched_line(self, buf: bytearray, watch: PgdWatch) -> bytearray:
        for asid, i0, pgd_base in watch.slots:
            off = (pgd_base + i0 * 8) & _LINE_MASK
            raw = int.from_bytes(buf[off : off + 8], "little")
            present, pfn, attrs = decode_pte(raw)
            if not present:
                continue  # unpopulated slot: mirrored untouched
            ctx = self._ctx_by_key.get((asid, (i0,)))
            if ctx is None:
                continue
            ctx.original_table_addr = pfn << PAGE_SHIFT
            marked = encode_pte(True, self.window.encode(1, ctx.context_id), attrs)
            buf[off : off + 8] = marked.to_bytes(8, "little")
        return buf

    def _synthesize_wm_chunk(self, line_addr: int, ctx: TranslationContext) -> bytearray:
        buf = bytearray(LINE_BYTES)
        if ctx.original_table_addr is None:
            return buf  # no real table behind the path: every slot blank
        real = self.dram.read_line(
            ctx.original_table_addr + (line_addr & _FRAME_OFF_MASK)
        )
        asid = ctx.asid
        i0 = ctx.prefix[0]
        # The chunk's 8 entries map 8 consecutive spans of `span` bytes.
        span = 1 << (21 if ctx.level == 1 else PAGE_SHIFT)
        first_index = (line_addr & _FRAME_OFF_MASK) >> 3
        if ctx.level == 1:
            chunk_lo = (i0 << 30) | (first_index << 21)
        else:
            chunk_lo = (i0 << 30) | (ctx.prefix[1] << 21) | (first_index << PAGE_SHIFT)
        chunk_hi = chunk_lo + 8 * span
        rules = [
            r
            for r in self._rules_by_slot.get((asid, i0), ())
            if r.va_start < chunk_hi and chunk_lo < r.va_end
        ]
        for slot in range(8 if rules else 0):
            lo = chunk_lo + slot * span
            rule = None
            for r in rules:
                if r.va_start < lo + span and lo < r.va_end:
                    rule = r
                    break
            if rule is None:
                continue
            off = slot * 8
            present, pfn, attrs = decode_pte(int.from_bytes(real[off : off + 8], "little"))
            if not present:
                buf[off : off + 8] = real[off : off + 8]
                continue
            if ctx.level == 1:
                child = self._ctx_by_key.get((asid, (i0, first_index + slot)))
                if child is None:
                    continue
                child.original_table_addr = pfn << PAGE_SHIFT
                entry = encode_pte(True, self.window.encode(2, child.context_id), attrs)
            else:
                if rule.attr_overrides is not None:
                    attrs |= rule.attr_overrides
                entry = encode_pte(True, rule.replacement_pfn_for(lo), attrs)
            buf[off : off + 8] = entry.to_bytes(8, "little")
        return buf

    # -- migration data capture ------------------------------------------------

    def begin_page_capture(self, pairs: dict):
        """Intercept reads of destination lines, serving source content.

        `pairs` maps destination line -> source line.  While the window is
        open, dirty writebacks of captured destination lines are mirrored
        to the source so a later bulk copy cannot clobber newer data.  A
        destination may not be a watched table line, which an active rule
        owns.  Every pair is checked before any is installed: a call that
        raises leaves the agent as it found it.
        """
        if any(dst & _LINE_MASK or src & _LINE_MASK for dst, src in pairs.items()):
            raise ValueError("capture lines must be 64-byte aligned")
        for dst in pairs:
            if isinstance(self.watch.get(dst), PgdWatch):
                raise ValueError(f"capture line {dst:#x} is a watched table line")
        for dst, src in pairs.items():
            self.watch[dst] = CaptureWatch(src)
        self._mirror.update(pairs)

    def release_captured(self, lines):
        """Chunk copied: stop serving these destination lines from source."""
        for line in lines:
            entry = self.watch.get(line)
            if isinstance(entry, CaptureWatch):
                del self.watch[line]

    def end_page_capture(self):
        for line in list(self._mirror):
            entry = self.watch.get(line)
            if isinstance(entry, CaptureWatch):
                del self.watch[line]
        self._mirror.clear()

    def on_writeback(self, line_addr: int, payload):
        src = self._mirror.get(line_addr)
        if src is not None:
            self.dram.write_line(src, payload)

    # -- oracles and helpers ----------------------------------------------------

    def expected_pa(self, asid: int, va: int):
        """Functional answer for a fresh walk: rule redirect over real tables.

        Returns the physical address, or None when the real mapping is
        incomplete (the walk would fault).  Used by the debug TLB check.
        """
        space = self.spaces[asid]
        try:
            real = addressing.reference_walk(space, va, self.dram)
        except addressing.TranslationFault:
            return None
        rule = self._rule_for(asid, va)
        if rule is None:
            return real
        return (rule.replacement_pfn_for(va) << PAGE_SHIFT) | (va & (PAGE_SIZE - 1))

    def _reindex_rules(self):
        """List each rule under every level-0 slot its range meets, in
        activation order, so a lookup reads only one slot's rules."""
        self._rules_by_slot = {}
        for rule in self.rules.values():
            for i0 in self._index0_span(rule):
                self._rules_by_slot.setdefault((rule.asid, i0), []).append(rule)

    def _rule_for(self, asid: int, va: int):
        for rule in self._rules_by_slot.get((asid, va >> 30), ()):
            if rule.covers(va):
                return rule
        return None

    def _region_covered(self, asid: int, lo: int, hi: int) -> bool:
        """Whether a rule meets [lo, hi), a range inside one level-0 slot."""
        for rule in self._rules_by_slot.get((asid, lo >> 30), ()):
            if rule.va_start < hi and lo < rule.va_end:
                return True
        return False

    def _prefix_covered(self, asid: int, prefix: tuple) -> bool:
        if len(prefix) == 1:
            return (asid, prefix[0]) in self._rules_by_slot
        lo = (prefix[0] << 30) | (prefix[1] << 21)
        return self._region_covered(asid, lo, lo + (1 << 21))

    @staticmethod
    def _index0_span(rule: RewriteRule):
        first = rule.va_start >> 30
        last = (rule.va_end - 1) >> 30
        return range(first, last + 1)

    def _prefixes(self, rule: RewriteRule):
        for i0 in self._index0_span(rule):
            yield (i0,)
            region_lo = max(rule.va_start, i0 << 30)
            region_hi = min(rule.va_end, (i0 + 1) << 30)
            first_i1 = (region_lo >> 21) & 0x1FF
            last_i1 = ((region_hi - 1) >> 21) & 0x1FF
            for i1 in range(first_i1, last_i1 + 1):
                yield (i0, i1)

    def _add_context(self, asid: int, prefix: tuple):
        # `activate` has checked that a context id is free.
        if self._free_ids:
            context_id = heapq.heappop(self._free_ids)
        else:
            context_id = self._next_id
            self._next_id += 1
        ctx = TranslationContext(
            context_id=context_id,
            asid=asid,
            level=len(prefix),
            prefix=prefix,
            original_table_addr=self._real_table_base(asid, prefix),
        )
        self._ctx_by_key[asid, prefix] = ctx
        self._ctx_by_id[context_id] = ctx

    def _real_table_base(self, asid: int, prefix: tuple):
        base = self.spaces[asid].pgd_base
        for index in prefix:
            raw = self.dram.read_qword(base + index * 8)
            present, pfn, _ = decode_pte(raw)
            if not present:
                return None
            base = pfn << PAGE_SHIFT
        return base

    def _check_premapped(self, rule: RewriteRule):
        space = self.spaces[rule.asid]
        for va in range(rule.va_start, rule.va_end, PAGE_SIZE):
            try:
                addressing.reference_walk(space, va, self.dram)
            except addressing.TranslationFault as fault:
                raise IsolationError(
                    f"rule {rule.rule_id}: {va:#x} not pre-mapped"
                    f" (level {fault.level} non-present)"
                ) from None

    def _check_strict(self, rules):
        """Strict activation: every rule is pre-mapped, and every mapped
        page under its level-0 slots belongs to some rule's range once the
        call has activated, so no unrelated neighbour shares them.

        Each slot is scanned once, for the first rule (in call order) that
        meets it, and the error names that rule.
        """
        ranges = {}
        for r in sorted(list(self.rules.values()) + rules, key=lambda r: r.va_start):
            starts, ends = ranges.setdefault(r.asid, ([], []))
            starts.append(r.va_start)
            ends.append(r.va_end)
        scanned = set()
        for rule in rules:
            self._check_premapped(rule)
            for i0 in self._index0_span(rule):
                if (rule.asid, i0) not in scanned:
                    scanned.add((rule.asid, i0))
                    self._check_isolated(rule, i0, *ranges[rule.asid])

    def _check_isolated(self, rule: RewriteRule, i0: int, starts, ends):
        """Every mapped page under level-0 slot `i0` must lie in one of the
        sorted, disjoint ranges [starts[k], ends[k])."""
        pud = self._real_table_base(rule.asid, (i0,))
        if pud is None:
            return
        read = self.dram.read_qword
        for i1 in range(addressing.ENTRIES_PER_TABLE):
            raw = read(pud + i1 * 8)
            if not raw & addressing.PTE_PRESENT:
                continue
            pmd = decode_pte(raw)[1] << PAGE_SHIFT
            for i2 in range(addressing.ENTRIES_PER_TABLE):
                raw = read(pmd + i2 * 8)
                if not raw & addressing.PTE_PRESENT:
                    continue
                va = (i0 << 30) | (i1 << 21) | (i2 << PAGE_SHIFT)
                k = bisect_right(starts, va) - 1
                if k < 0 or va >= ends[k]:
                    raise IsolationError(
                        f"rule {rule.rule_id}: neighbour mapping {va:#x}"
                        f" shares level-0 slot {i0}"
                    )


def parse_rules(text: str):
    """Parse rule lines: `asid va_start va_end pfn_base [attr_overrides]`.

    Hex fields, optional 0x prefixes, `#` comments.  Rule ids are assigned
    in file order starting at 1.
    """
    rules = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) not in (4, 5):
            raise RuleError(
                f"line {lineno}: expected 'asid va_start va_end pfn_base [attrs]'"
            )
        try:
            asid, va_start, va_end, pfn = (addressing._hex_field(p) for p in parts[:4])
        except ValueError as exc:
            raise RuleError(f"line {lineno}: {exc}") from None
        overrides = addressing.parse_attr_flags(parts[4]) if len(parts) == 5 else None
        rules.append(
            RewriteRule(len(rules) + 1, asid, va_start, va_end, pfn, overrides)
        )
    return rules
