"""Coherent agent that rewrites translations by answering walk snoops.

The module sits on the snoop fabric and claims ownership of cache lines
that belong to table-walk paths it wants to redirect: the watched level-0
table lines, and the lines of a reserved window of watermarks, fabricated
frame numbers that no memory backs.  A watermark identifies a walk (level
plus a context-cache key), so the walker's next-level read, inside the
window, tells the module which chunk to build.

One builder, `LightV.manipulate_line`, serves every chunk, by one rule.
A chunk starts from the real line at level 0 and from a blank line at
levels 1 and 2, and only its targeted entries change: the watched slots
of a level-0 line, or the entries of a watermark chunk whose span a rule
meets.  A targeted entry that is not present is mirrored.  A present one
is rewritten: at levels 0 and 1 to the child context's watermark, which
also refreshes the child's table base, and at level 2 to the rule's
replacement frame with its attribute overrides.  So neighbouring
translations that share a level-0 line are unaffected.

Watermarking keeps redirection correct even when previously served PTE
lines linger in the PE cache: a cached watermark still routes the next
miss back here, so partial visibility of the walk is harmless.

Every serve reads the live real line it is built from (one DRAM line
read per serve), so leaf attributes are merged fresh, and a mirrored
unpopulated mapping faults just as it would have -- except that the
faulting descriptor address the OS then sees lies in the watermark
window, which is precisely the demand-paging hazard the scenarios
reproduce.  The agent keeps no served payloads; replaying an unchanged
walk without asking it again is the walker's job (`mmu.WalkMemo`).
"""

import heapq
import itertools
import re
import struct
from bisect import bisect_right
from dataclasses import dataclass
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
# One whole page-table frame as its 512 little-endian entries, and one entry.
_unpack_table = struct.Struct(f"<{addressing.ENTRIES_PER_TABLE}Q").unpack
_unpack_entry = struct.Struct("<Q").unpack_from
# An entry's low byte -> its present bit, for `bytes.translate`, and a set bit.
_PRESENT_BIT = bytes(b & addressing.PTE_PRESENT for b in range(256))
_SET_BIT = re.compile(b"\x01")


def _present_entries(table: bytes):
    """(index, raw) of each present entry of a whole table frame, in index
    order, found from each entry's low byte.  Up to 24 present entries are
    found and unpacked one at a time; past that, one unpack of all costs less."""
    present = table[:: addressing.PTE_BYTES].translate(_PRESENT_BIT)
    if present.count(1) > 24:
        return itertools.compress(enumerate(_unpack_table(table)), present)
    indices = map(re.Match.start, _SET_BIT.finditer(present))
    return [(i, _unpack_entry(table, i * addressing.PTE_BYTES)[0]) for i in indices]


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
        if not 0 <= self.asid < 1 << 32:
            raise RuleError(f"rule {self.rule_id}: asid {self.asid:#x} outside 32 bits")
        run = self.replacement_run
        if run.start < 0 or run.stop > 1 << addressing.PFN_BITS:
            raise RuleError(f"rule {self.rule_id}: replacement frames outside the frame space")
        if self.attr_overrides is not None and self.attr_overrides & ~addressing.ATTR_MASK:
            raise RuleError(f"rule {self.rule_id}: unknown attribute override bits")

    @property
    def page_count(self) -> int:
        return (self.va_end - self.va_start) >> PAGE_SHIFT

    @property
    def replacement_run(self) -> range:
        """The replacement frame numbers, one per page of the range."""
        return range(self.replacement_base_pfn, self.replacement_base_pfn + self.page_count)

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


class LightV:
    """The snoop-port agent: path checker, manipulator, context cache."""

    def __init__(self, window: WatermarkWindow, dram, latencies, spaces: dict):
        self.window = window
        self.dram = dram
        self.lat = latencies
        self.spaces = spaces
        self.rules = {}
        # Derived from `rules` by `_index_rules` and `activate`:
        self._bounds = {}  # rule id -> the rule's entry of `activate`'s batch
        self._rules_by_slot = {}  # (asid, index0) -> rules meeting that slot
        self.watch = {}  # level-0 table line -> its (asid, index0, pgd_base) slots
        self._ctx_by_key = {}
        self._ctx_by_id = {}
        self._free_ids = []
        self.captures = {}  # destination line -> source line, while uncopied
        self._mirror = {}  # destination line -> source line, for writebacks
        self.lines_manipulated = 0
        self.context_lost = 0
        self.data_captures = 0

    # -- activation -----------------------------------------------------------

    def activate(self, rules, strict: bool = True):
        """Install rewrite rules; the watch set follows from the rules.

        Validates ranges; that the ranges, and the replacement frame runs,
        are disjoint from each other and from those of active rules; that
        no run holds a page table of a registered address space; (in strict
        mode) that each target range is pre-mapped and owns its level-0
        slots outright; and that the context cache has room for every new
        walk path.  It does all this before it changes anything: a call
        that raises leaves the agent as it found it.  A watched line never
        meets a capture window: it lies in a page-table frame, and no
        capture line does (see `begin_page_capture`).

        Returns (tlb_ranges, lines): the (asid, va_start, va_end) ranges
        whose TLB entries, and the lines whose PE-cached copies, the caller
        must invalidate, so the next walk is observed from level 0.  The
        lines are those whose served content the call changes: the watched
        lines that are new or gained a slot, and the watermark chunks of
        live contexts that hold an entry of a new rule's range.
        """
        rules = list(rules)
        ids = set(self.rules)
        batch = []  # each rule's (rule, asid, va_start, va_end, run start, run stop)
        for rule in rules:
            rule.validate()
            if rule.rule_id in self.rules:
                raise RuleError(f"rule id {rule.rule_id} already active")
            if rule.rule_id in ids:
                raise RuleError(f"rule id {rule.rule_id} given twice")
            ids.add(rule.rule_id)
            if rule.asid not in self.spaces:
                raise RuleError(f"rule {rule.rule_id}: unknown asid {rule.asid}")
            run = rule.replacement_run
            if not self.dram.contains(run.start << PAGE_SHIFT, len(run) << PAGE_SHIFT):
                raise RuleError(
                    f"rule {rule.rule_id}: replacement frames outside DRAM aperture"
                )
            for space in self.spaces.values():
                if not space.table_pfns.isdisjoint(run):
                    raise RuleError(
                        f"rule {rule.rule_id}: replacement frames hold page tables"
                        f" of asid {space.asid}"
                    )
            batch.append((rule, rule.asid, rule.va_start, rule.va_end, run.start, run.stop))

        for i, (rule, asid, va_start, va_end, first, stop) in enumerate(batch):
            others = itertools.chain(batch[:i], self._bounds.values())
            for other, o_asid, o_start, o_end, o_first, o_stop in others:
                if asid == o_asid and va_start < o_end and o_start < va_end:
                    raise RuleError(f"rules {rule.rule_id} and {other.rule_id} overlap")
                if first < o_stop and o_first < stop:
                    raise RuleError(
                        f"rules {rule.rule_id} and {other.rule_id} share"
                        " replacement frames"
                    )
        if strict:
            self._check_strict(rules)
        # An insertion-ordered set: context ids go out in rule order.
        new_paths = dict.fromkeys(p for p in self._paths(rules) if p not in self._ctx_by_key)
        if len(new_paths) > CONTEXT_CAPACITY - len(self._ctx_by_id):
            raise ContextCapacityError("context cache full")

        self.dram.walk_memo.forget()
        # Only the chunks of contexts that are already live can be cached.
        chunks = self._chunk_lines(rules) if self._ctx_by_key else []
        for rule, bound in zip(rules, batch):
            self.rules[rule.rule_id] = rule
            self._bounds[rule.rule_id] = bound
        changed = self._index_rules(rules)
        for asid, prefix in new_paths:
            self._add_context(asid, prefix)
        new_lines = [line for line in self.watch if line in changed] if changed else []
        return [(r.asid, r.va_start, r.va_end) for r in rules], new_lines + chunks

    def deactivate(self, rule_id: int):
        """Remove a rule; future walks of its range see the true tables.
        While another rule still watches one of its level-0 slots, its
        pages under that slot fault instead: `manipulate_line` starts a
        watermark chunk from a blank line, so an entry that no rule meets
        stays non-present.  Starting it from the real line instead would
        pass such entries through; refusing the deactivation would keep
        them covered.

        Returns (tlb_ranges, lines) to invalidate, as `activate` does: the
        watched lines that lost a slot, the watermark chunks that held an
        entry of the rule's range, and every line of a freed context.
        """
        rule = self.rules.pop(rule_id, None)
        if rule is None:
            raise RuleError(f"unknown rule id {rule_id}")
        del self._bounds[rule_id]
        self.dram.walk_memo.forget()
        watched = self.watch
        stale_lines = set(self._chunk_lines([rule]))
        self._rules_by_slot, self.watch = {}, {}
        self._index_rules(self.rules.values())
        # A rebuild may list a line's slots in another order; that changes
        # no served byte, so only a line whose slot set changed is stale.
        stale_lines.update(
            line for line, slots in watched.items() if set(slots) != set(self.watch.get(line, ()))
        )
        needed = set(self._paths(self.rules.values()))
        for key in [key for key in self._ctx_by_key if key not in needed]:
            ctx = self._ctx_by_key.pop(key)
            del self._ctx_by_id[ctx.context_id]
            heapq.heappush(self._free_ids, ctx.context_id)
            frame = self.window.encode(ctx.level, ctx.context_id) << PAGE_SHIFT
            stale_lines.update(range(frame, frame + PAGE_SIZE, LINE_BYTES))
        return [(rule.asid, rule.va_start, rule.va_end)], sorted(stale_lines)

    # -- snoop handling -------------------------------------------------------

    def handle_snoop(self, line_addr: int):
        """The fabric's agent callable: None (NACK), or (payload,
        serve_cycles) (ACK) with fabricated content when the line is on a
        watched path, or the source line's content when the line is a
        captured destination.  Serving costs `lightv` plus `dram` per DRAM
        line read."""
        src = self.captures.get(line_addr)
        if src is not None:
            payload = self.dram.read_line(src)
            self.data_captures += 1
            return payload, self.lat.lightv + self.lat.dram
        match = self.path_check(line_addr)
        if match is None:
            return None
        reads_before = self.dram.reads
        payload = self.manipulate_line(match, line_addr)
        self.lines_manipulated += 1
        return payload, self.lat.lightv + self.lat.dram * (self.dram.reads - reads_before)

    def path_check(self, line_addr: int):
        """Watch-set membership plus the watermark-window decode path.

        Returns a watched table line's (asid, index0, pgd_base) slot list,
        the TranslationContext a watermark line decodes to (its level
        already checked against the watermark's), or None.  A watermark
        line whose context is gone counts as a context-cache loss and is
        not claimed, leaving the unbacked read to fail loudly.
        """
        entry = self.watch.get(line_addr)
        if entry is not None:
            return entry
        low = (line_addr >> PAGE_SHIFT) - self.window.base_pfn  # the decode, inline
        if not 0 <= low < WM_SPAN_FRAMES:
            return None
        ctx = self._ctx_by_id.get(low & (CONTEXT_CAPACITY - 1))
        if ctx is None or ctx.level != low >> WM_CONTEXT_BITS:
            self.context_lost += 1
            return None
        return ctx

    def manipulate_line(self, match, line_addr: int) -> bytes:
        """Build the served content of one 64-byte chunk on a watched path.

        `match` is what `path_check` returned: the slot list of a watched
        table line (level 0) or a TranslationContext (level 1 or 2).  The
        chunk starts from the real line at level 0 and from a blank line at
        levels 1 and 2, and only its targeted entries change: the watched
        slots of a level-0 line, or the entries of a watermark chunk whose
        span a rule meets (`_rule_meeting`).  A targeted entry that is not
        present is mirrored.  A present one is rewritten: at levels 0 and 1
        to the child context's watermark, which also refreshes the child's
        table base, and at level 2 to the rule's replacement frame with its
        attribute overrides.

        This is the one place that reads the real line a chunk is built
        from: at levels 1 and 2, the matching line of the real table the
        context stands in for (with none, the chunk is blank without a
        read).  Its one side effect follows from the real bytes, so serving
        an unchanged line again gives an equal payload and leaves the agent
        as it was.
        """
        if isinstance(match, TranslationContext):
            asid, prefix, table = match.asid, match.prefix, match.original_table_addr
            if table is None:
                return bytes(LINE_BYTES)  # no real table behind the path: all blank
            real = self.dram.read_line(table + (line_addr & _FRAME_OFF_MASK))
            buf = bytearray(LINE_BYTES)
            table_lo, shift = self._table_span(prefix)
            first = (line_addr & _FRAME_OFF_MASK) >> 3
            targets = []
            for index in range(first, first + 8):
                lo = table_lo | index << shift
                rule = self._rule_meeting(asid, lo, lo + (1 << shift))
                if rule is not None:
                    targets.append((asid, index, lo, rule))
        else:
            real = self.dram.read_line(line_addr)
            buf, prefix = bytearray(real), ()
            targets = [(asid, i0, None, None) for asid, i0, _ in match]
        for asid, index, lo, rule in targets:
            off = index * addressing.PTE_BYTES & _LINE_MASK
            present, pfn, attrs = decode_pte(int.from_bytes(real[off : off + 8], "little"))
            if not present:
                buf[off : off + 8] = real[off : off + 8]
                continue
            if len(prefix) < 2:
                child = self._ctx_by_key[asid, prefix + (index,)]
                child.original_table_addr = pfn << PAGE_SHIFT
                pfn = self.window.encode(len(prefix) + 1, child.context_id)
            else:
                pfn = rule.replacement_pfn_for(lo)
                attrs |= rule.attr_overrides or 0
            buf[off : off + 8] = encode_pte(True, pfn, attrs).to_bytes(8, "little")
        return bytes(buf)

    # -- migration data capture ------------------------------------------------

    def begin_page_capture(self, pairs: dict):
        """Intercept reads of destination lines, serving source content.

        `pairs` maps destination line -> source line.  While the window is
        open, dirty writebacks of captured destination lines are mirrored
        to the source so a later bulk copy cannot clobber newer data.
        Every line must be 64-byte aligned and lie in the DRAM aperture,
        and none in a page-table frame (`Machine.register_space` keeps new
        tables off open windows): reads of a table line would be served from
        elsewhere, and mirrored writebacks would overwrite a table.  So no
        capture line is a watched table line or a watermark line.  The last
        two checks hold for all lines of a frame or for none (the aperture
        is page-aligned), so each frame is checked once, at its first line.
        Every pair is checked before any is installed: a call that raises
        leaves the agent as it found it.
        """
        first_lines = {}
        for line in itertools.chain.from_iterable(pairs.items()):
            if line & _LINE_MASK:
                raise ValueError("capture lines must be 64-byte aligned")
            first_lines.setdefault(line >> PAGE_SHIFT, line)
        for frame, line in first_lines.items():
            if not self.dram.contains(line, LINE_BYTES):
                raise ValueError(f"capture line {line:#x} outside DRAM aperture")
            for space in self.spaces.values():
                if frame in space.table_pfns:
                    raise ValueError(
                        f"capture line {line:#x} lies in a page table of asid {space.asid}"
                    )
        self.dram.walk_memo.forget()
        self.captures.update(pairs)
        self._mirror.update(pairs)

    def release_captured(self, lines):
        """Chunk copied: stop serving these destination lines from source."""
        for line in lines:
            self.captures.pop(line, None)

    def end_page_capture(self):
        self.captures.clear()
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
        rule = self._rule_meeting(asid, va, va + 1)
        if rule is None:
            return real
        return (rule.replacement_pfn_for(va) << PAGE_SHIFT) | (va & (PAGE_SIZE - 1))

    def _index_rules(self, rules):
        """Add `rules`, the last of `self.rules`, to the rule-side lookups:
        each rule listed under every level-0 slot its range meets, and in
        `watch` each level-0 table line holding such a slot, with its slots.
        Rules are only appended, so this ends as a rebuild from all rules
        would.  Returns the watched lines that are new or gained a slot."""
        changed = set()
        for rule in rules:
            pgd_base = self.spaces[rule.asid].pgd_base
            for i0 in self._index0_span(rule):
                slot_rules = self._rules_by_slot.setdefault((rule.asid, i0), [])
                if not slot_rules:
                    line = (pgd_base + i0 * addressing.PTE_BYTES) & ~_LINE_MASK
                    self.watch.setdefault(line, []).append((rule.asid, i0, pgd_base))
                    changed.add(line)
                slot_rules.append(rule)
        return changed

    def _rule_meeting(self, asid: int, lo: int, hi: int):
        """The first listed rule of `asid` whose range meets the VA span
        [lo, hi), a span under one level-0 slot; or None."""
        for rule in self._rules_by_slot.get((asid, lo >> 30), ()):
            if rule.va_start < hi and lo < rule.va_end:
                return rule
        return None

    @staticmethod
    def _table_span(prefix: tuple):
        """The first VA that the table at the end of walk path `prefix`
        maps, and the log2 of the span one of its entries maps."""
        first_va = sum(i << (30 - 9 * level) for level, i in enumerate(prefix))
        return first_va, 30 - 9 * len(prefix)

    @staticmethod
    def _index0_span(rule: RewriteRule):
        first = rule.va_start >> 30
        last = (rule.va_end - 1) >> 30
        return range(first, last + 1)

    @classmethod
    def _paths(cls, rules):
        """The walk paths (asid, prefix) that `rules` redirect, in rule
        order: (index0,) for each level-0 slot a rule meets, each followed
        by (index0, index1) for the level-1 slots the rule meets under it.
        Each names one context, whose watermark frame stands in for the
        real table at the end of the path."""
        for rule in rules:
            for i0 in cls._index0_span(rule):
                yield rule.asid, (i0,)
                region_lo = max(rule.va_start, i0 << 30)
                region_hi = min(rule.va_end, (i0 + 1) << 30)
                first_i1 = (region_lo >> 21) & 0x1FF
                last_i1 = ((region_hi - 1) >> 21) & 0x1FF
                for i1 in range(first_i1, last_i1 + 1):
                    yield rule.asid, (i0, i1)

    def _chunk_lines(self, rules):
        """The watermark lines, in the frames of live contexts, that hold
        an entry whose span meets the range of one of `rules`: the chunks
        whose content activating or removing those rules changes."""
        lines = []
        for rule in rules:
            for asid, prefix in self._paths([rule]):
                ctx = self._ctx_by_key.get((asid, prefix))
                if ctx is None:
                    continue
                table_lo, shift = self._table_span(prefix)
                lo = max(rule.va_start, table_lo)
                hi = min(rule.va_end, table_lo + (addressing.ENTRIES_PER_TABLE << shift))
                frame = self.window.encode(ctx.level, ctx.context_id) << PAGE_SHIFT
                first = frame + ((lo >> shift) & 0x1FF) * 8
                last = frame + (((hi - 1) >> shift) & 0x1FF) * 8
                lines.extend(range(first & ~_LINE_MASK, last + 1, LINE_BYTES))
        return lines

    def _add_context(self, asid: int, prefix: tuple):
        # `activate` has checked that a context id is free; the ids handed
        # out so far are the live ones and the freed ones.
        context_id = heapq.heappop(self._free_ids) if self._free_ids else len(self._ctx_by_id)
        # Seeded with the real table behind the path by `addressing.table_base`, or None.
        try:
            table = addressing.table_base(self.spaces[asid].pgd_base, prefix, self.dram)
        except addressing.TranslationFault:
            table = None
        ctx = TranslationContext(context_id=context_id, asid=asid, level=len(prefix),
                                 prefix=prefix, original_table_addr=table)
        self._ctx_by_key[asid, prefix] = ctx
        self._ctx_by_id[context_id] = ctx

    def _check_premapped(self, rule: RewriteRule):
        """Every page of the rule's range has a present leaf entry.  The
        leaf table is resolved once per `va >> 21`; the error names the
        first page that has none and the level of its missing entry."""
        pgd_base, read = self.spaces[rule.asid].pgd_base, self.dram.read_qword
        prefix = None
        try:
            for va in range(rule.va_start, rule.va_end, PAGE_SIZE):
                if va >> 21 != prefix:
                    prefix = va >> 21
                    table = addressing.table_base(pgd_base, (va >> 30, prefix & 0x1FF), self.dram)
                leaf = table + ((va >> PAGE_SHIFT) & 0x1FF) * 8
                if not read(leaf) & addressing.PTE_PRESENT:
                    raise addressing.TranslationFault(2, leaf)
        except addressing.TranslationFault as fault:
            raise IsolationError(
                f"rule {rule.rule_id}: {va:#x} not pre-mapped (level {fault.level} non-present)"
            ) from None

    def _check_strict(self, rules):
        """Strict activation: every rule is pre-mapped, and every mapped
        page under its level-0 slots belongs to some rule's range once the
        call has activated, so no unrelated neighbour shares them.

        Each slot is scanned once, for the first rule (in call order) that
        meets it, and the error names that rule.  The work follows the
        tables, not the pages: a rule's leaf tables are resolved once each
        and its pages read one entry apiece, and each table under a slot
        is read once, visiting only its present entries.
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
        sorted, disjoint ranges [starts[k], ends[k]).  Each table under the
        slot is read once, and only its present entries are visited.  The
        slot's level-1 table comes from `addressing.table_base`; it exists,
        as `_check_premapped` has passed for a rule under the slot."""
        pud = addressing.table_base(self.spaces[rule.asid].pgd_base, (i0,), self.dram)
        read = self.dram.read_bytes
        for i1, raw in _present_entries(read(pud, PAGE_SIZE)):
            pmd = decode_pte(raw)[1] << PAGE_SHIFT
            for i2, _ in _present_entries(read(pmd, PAGE_SIZE)):
                va = (i0 << 30) | (i1 << 21) | (i2 << PAGE_SHIFT)
                k = bisect_right(starts, va) - 1
                if k < 0 or va >= ends[k]:
                    raise IsolationError(
                        f"rule {rule.rule_id}: neighbour mapping {va:#x}"
                        f" shares level-0 slot {i0}"
                    )


def parse_rules(lines):
    """The rules of a rule file, one a line:
    `asid va_start va_end pfn_base [attr_overrides]` (see
    `addressing.read_records`).  Rule ids are assigned in file order
    starting at 1.  Each rule is validated as it is read, so a field out
    of range names its line; the checks that need a machine come at
    activation.
    """
    rule_ids = itertools.count(1)

    def rule(fields):
        asid, va_start, va_end, pfn = map(addressing.hex_field, fields[:4])
        overrides = addressing.parse_attr_flags(fields[4]) if len(fields) == 5 else None
        parsed = RewriteRule(next(rule_ids), asid, va_start, va_end, pfn, overrides)
        parsed.validate()
        return parsed

    return list(addressing.read_records(
        lines, "asid va_start va_end pfn_base [attrs]", RuleError, rule
    ))
