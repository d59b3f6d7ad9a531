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
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import addressing
from .addressing import PAGE_SHIFT, PAGE_SIZE, decode_pte, encode_pte
from .coherence import LINE_BYTES, SnoopRequest, SnoopResponse

WM_LEVEL_BITS = 2
WM_CONTEXT_BITS = 12
CONTEXT_CAPACITY = 1 << WM_CONTEXT_BITS
WM_SPAN_FRAMES = 1 << (WM_LEVEL_BITS + WM_CONTEXT_BITS)

_LINE_MASK = LINE_BYTES - 1
_FRAME_OFF_MASK = PAGE_SIZE - 1


class LightVMode(Enum):
    PASSIVE = "passive"
    ACTIVE = "active"


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


@dataclass
class WmMatch:
    level: int
    ctx: TranslationContext


class LightV:
    """The snoop-port agent: path checker, manipulator, context cache."""

    def __init__(self, window: WatermarkWindow, dram, latencies, spaces: dict):
        self.window = window
        self.dram = dram
        self.lat = latencies
        self.spaces = spaces
        self.mode = LightVMode.PASSIVE
        self.rules = {}
        self._rules_by_asid = {}
        self.watch = {}
        self._ctx_by_key = {}
        self._ctx_by_id = {}
        self._free_ids = []
        self._next_id = 0
        self._mirror = {}
        # wired by the machine
        self._tlb_invalidate_range = lambda asid, lo, hi: None
        self._invalidate_cache_line = lambda line: None
        # diagnostics
        self.snoops_seen = 0
        self.matches = 0
        self.lines_manipulated = 0
        self.context_lost = 0
        self.data_captures = 0

    def wire(self, tlb_invalidate_range, invalidate_cache_line):
        self._tlb_invalidate_range = tlb_invalidate_range
        self._invalidate_cache_line = invalidate_cache_line

    def diagnostics(self) -> dict:
        return {
            "snoops_seen": self.snoops_seen,
            "matches": self.matches,
            "lines_manipulated": self.lines_manipulated,
            "contexts_live": len(self._ctx_by_id),
            "context_lost": self.context_lost,
            "data_captures": self.data_captures,
        }

    # -- activation -----------------------------------------------------------

    def activate(self, rules, strict: bool = True):
        """Install rewrite rules and seed the watch set.

        Validates ranges, disjointness, and (in strict mode) that each
        target range is pre-mapped and owns its level-0 slots outright.
        TLB entries and PE-cached copies of the watched lines are
        invalidated so the next walk is observed from level 0.
        """
        rules = list(rules)
        for rule in rules:
            rule.validate()
            if rule.rule_id in self.rules:
                raise RuleError(f"rule id {rule.rule_id} already active")
            if rule.asid not in self.spaces:
                raise RuleError(f"rule {rule.rule_id}: unknown asid {rule.asid}")
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
            all_after = list(self.rules.values()) + rules
            for rule in rules:
                self._check_premapped(rule)
                self._check_isolated(rule, all_after)

        new_lines = []
        for rule in rules:
            self.rules[rule.rule_id] = rule
        self._reindex_rules()
        for rule in rules:
            for prefix in self._prefixes(rule):
                self._ensure_context(rule.asid, prefix)
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
        self.mode = LightVMode.ACTIVE
        for rule in rules:
            self._tlb_invalidate_range(rule.asid, rule.va_start, rule.va_end)
        for line in new_lines:
            self._invalidate_cache_line(line)

    def deactivate(self, rule_id: int):
        """Remove a rule; future walks of its range see the true tables."""
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

        self._tlb_invalidate_range(rule.asid, rule.va_start, rule.va_end)
        for line in sorted(stale_lines):
            self._invalidate_cache_line(line)

    # -- snoop handling -------------------------------------------------------

    def handle_snoop(self, req: SnoopRequest) -> SnoopResponse:
        """ACK with fabricated content when the line is on a watched path."""
        self.snoops_seen += 1
        if self.mode is not LightVMode.ACTIVE:
            return SnoopResponse.nack()
        match = self.path_check(req.line_addr)
        if match is None:
            return SnoopResponse.nack()
        self.matches += 1
        if isinstance(match, CaptureWatch):
            payload = self.dram.read_line(match.src_line)
            self.data_captures += 1
            return SnoopResponse.ack(payload, self.lat.lightv + self.lat.dram)
        reads_before = self.dram.reads
        if isinstance(match, PgdWatch):
            backing = self.dram.read_line(req.line_addr)
            payload = self.manipulate_line(backing, 0, match, req.line_addr)
        else:
            payload = self.manipulate_line(bytes(LINE_BYTES), match.level, match, req.line_addr)
        self.lines_manipulated += 1
        reads = self.dram.reads - reads_before
        return SnoopResponse.ack(payload, self.lat.lightv + self.lat.dram * reads)

    def path_check(self, line_addr: int):
        """Watch-set membership plus the watermark-window decode path.

        Returns the matching watch entry / watermark context, or None.
        A watermark line whose context is gone counts as a context-cache
        loss and is not claimed, leaving the unbacked read to fail loudly.
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
            return WmMatch(level, ctx)
        return None

    def manipulate_line(self, payload: bytes, level: int, match, line_addr: int) -> bytes:
        """Rewrite the on-path descriptors of one 64-byte chunk.

        Level 0 starts from the real line content; watermark chunks start
        blank and are synthesized against the live table the context
        shadows.  Only whole 8-byte entries on targeted paths change;
        every other byte of the input is preserved.
        """
        if level == 0:
            return bytes(self._rewrite_watched_line(bytearray(payload), match))
        return bytes(self._synthesize_wm_chunk(line_addr, match.ctx))

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
        real = None
        if ctx.original_table_addr is not None:
            real = self.dram.read_line(
                ctx.original_table_addr + (line_addr & _FRAME_OFF_MASK)
            )
        first_index = (line_addr & _FRAME_OFF_MASK) >> 3
        asid = ctx.asid
        for slot in range(8):
            index = first_index + slot
            off = slot * 8
            if ctx.level == 1:
                i0 = ctx.prefix[0]
                lo = (i0 << 30) | (index << 21)
                if not self._region_covered(asid, lo, lo + (1 << 21)):
                    continue
                if real is None:
                    continue
                raw = int.from_bytes(real[off : off + 8], "little")
                present, pfn, attrs = decode_pte(raw)
                if not present:
                    buf[off : off + 8] = real[off : off + 8]
                    continue
                child = self._ctx_by_key.get((asid, (i0, index)))
                if child is None:
                    continue
                child.original_table_addr = pfn << PAGE_SHIFT
                marked = encode_pte(True, self.window.encode(2, child.context_id), attrs)
                buf[off : off + 8] = marked.to_bytes(8, "little")
            else:
                i0, i1 = ctx.prefix
                va = (i0 << 30) | (i1 << 21) | (index << PAGE_SHIFT)
                rule = self._rule_for(asid, va)
                if rule is None:
                    continue
                if real is None:
                    continue
                raw = int.from_bytes(real[off : off + 8], "little")
                present, _, attrs = decode_pte(raw)
                if not present:
                    buf[off : off + 8] = real[off : off + 8]
                    continue
                if rule.attr_overrides is not None:
                    attrs |= rule.attr_overrides
                leaf = encode_pte(True, rule.replacement_pfn_for(va), attrs)
                buf[off : off + 8] = leaf.to_bytes(8, "little")
        return buf

    # -- migration data capture ------------------------------------------------

    def begin_page_capture(self, pairs: dict):
        """Intercept reads of destination lines, serving source content.

        `pairs` maps destination line -> source line.  While the window is
        open, dirty writebacks of captured destination lines are mirrored
        to the source so a later bulk copy cannot clobber newer data.
        """
        for dst, src in pairs.items():
            if dst & _LINE_MASK or src & _LINE_MASK:
                raise ValueError("capture lines must be 64-byte aligned")
            self.watch[dst] = CaptureWatch(src)
        self._mirror.update(pairs)
        self.mode = LightVMode.ACTIVE

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
        self._rules_by_asid = {}
        for rule in self.rules.values():
            self._rules_by_asid.setdefault(rule.asid, []).append(rule)

    def _rule_for(self, asid: int, va: int):
        for rule in self._rules_by_asid.get(asid, ()):
            if rule.covers(va):
                return rule
        return None

    def _region_covered(self, asid: int, lo: int, hi: int) -> bool:
        for rule in self._rules_by_asid.get(asid, ()):
            if rule.va_start < hi and lo < rule.va_end:
                return True
        return False

    def _prefix_covered(self, asid: int, prefix: tuple) -> bool:
        if len(prefix) == 1:
            lo = prefix[0] << 30
            return self._region_covered(asid, lo, lo + (1 << 30))
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

    def _ensure_context(self, asid: int, prefix: tuple) -> TranslationContext:
        key = (asid, prefix)
        ctx = self._ctx_by_key.get(key)
        if ctx is not None:
            return ctx
        if self._free_ids:
            context_id = heapq.heappop(self._free_ids)
        elif self._next_id < CONTEXT_CAPACITY:
            context_id = self._next_id
            self._next_id += 1
        else:
            raise ContextCapacityError("context cache full")
        ctx = TranslationContext(
            context_id=context_id,
            asid=asid,
            level=len(prefix),
            prefix=prefix,
            original_table_addr=self._real_table_base(asid, prefix),
        )
        self._ctx_by_key[key] = ctx
        self._ctx_by_id[context_id] = ctx
        return ctx

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

    def _check_isolated(self, rule: RewriteRule, all_rules):
        """Every mapped page under the rule's level-0 slots must belong to
        some active rule's range: no unrelated neighbour may share them."""
        space = self.spaces[rule.asid]
        ranges = [
            (r.va_start, r.va_end) for r in all_rules if r.asid == rule.asid
        ]
        for i0 in self._index0_span(rule):
            pud = self._read_present(space.pgd_base, i0)
            if pud is None:
                continue
            for i1 in range(addressing.ENTRIES_PER_TABLE):
                pmd = self._read_present(pud, i1)
                if pmd is None:
                    continue
                for i2 in range(addressing.ENTRIES_PER_TABLE):
                    raw = self.dram.read_qword(pmd + i2 * 8)
                    if not raw & addressing.PTE_PRESENT:
                        continue
                    va = (i0 << 30) | (i1 << 21) | (i2 << PAGE_SHIFT)
                    if not any(lo <= va < hi for lo, hi in ranges):
                        raise IsolationError(
                            f"rule {rule.rule_id}: neighbour mapping {va:#x}"
                            f" shares level-0 slot {i0}"
                        )

    def _read_present(self, table_base: int, index: int):
        raw = self.dram.read_qword(table_base + index * 8)
        present, pfn, _ = decode_pte(raw)
        return (pfn << PAGE_SHIFT) if present else None


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
