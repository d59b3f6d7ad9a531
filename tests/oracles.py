"""Independent reference implementations used only as test oracles.

Deliberately written with different arithmetic than the package code:
digit decomposition instead of shift/mask index extraction, and an
explicit output-address field mask instead of the codec helpers.  Keeping
the derivations separate is what makes agreement meaningful.
"""

import random

from helpers import cache_drop, cache_lines
from lightv_sim.scenarios import CODE_BASE_VA, CODE_PAGES, CODE_PERIOD, HOT_PAGE_VA, IMAGE_BASE_VA

PAGE = 4096
TABLE_ENTRIES = 512
ADDR_FIELD_MASK = 0xFF_FFFF_F000  # descriptor bits [39:12]


def brute_split(va):
    """Index decomposition by repeated division."""
    page, offset = divmod(va, PAGE)
    rest, i2 = divmod(page, TABLE_ENTRIES)
    i0, i1 = divmod(rest, TABLE_ENTRIES)
    return i0, i1, i2, offset


def brute_walk(pgd_base, va, read_qword):
    """Three-step table walk; returns ('pa', addr) or ('fault', level)."""
    if not 0 <= va < 2**39:
        raise ValueError(f"va out of range: {va:#x}")
    i0, i1, i2, offset = brute_split(va)
    base = pgd_base
    for level, index in ((0, i0), (1, i1), (2, i2)):
        raw = read_qword(base + index * 8)
        if raw % 2 == 0:
            return ("fault", level)
        base = raw & ADDR_FIELD_MASK
    return ("pa", base + offset)


def apply_rule_by_edit(dram, space, rule):
    """Ghost oracle setup: apply a rewrite rule by editing leaf entries
    directly in a cloned memory image."""
    for page_va in range(rule.va_start, rule.va_end, PAGE):
        i0, i1, i2, _ = brute_split(page_va)
        base = space.pgd_base
        for index in (i0, i1):
            raw = dram.read_qword(base + index * 8)
            assert raw % 2 == 1, "ghost edit needs pre-mapped intermediate tables"
            base = raw & ADDR_FIELD_MASK
        leaf_addr = base + i2 * 8
        raw = dram.read_qword(leaf_addr)
        assert raw % 2 == 1, "ghost edit needs a pre-mapped leaf"
        attrs = raw & 0xE
        if rule.attr_overrides is not None:
            attrs |= rule.attr_overrides
        new_pfn = rule.replacement_base_pfn + (page_va - rule.va_start) // PAGE
        dram.write_qword(leaf_addr, new_pfn * PAGE + attrs + 1)


WM_CONTEXTS = 4096  # watermark frames per level: frame = window base + level * 4096 + id


def served_chunk(agent, dram, line_addr):
    """The payload LightV must serve for the line at `line_addr`, or None
    for a line it must not claim, built entry by entry from `agent.rules`
    and DRAM's qword port.  Of the agent's state it reads only each
    context's id and table base.

    An entry's span is the VA range it maps; a rule meets an entry when
    its range meets that span.  A level-0 table line holding an entry that
    a rule meets is the real line, with each such entry that is present
    made a watermark of its level-1 context.  A watermark line of a live
    context is blank but for the entries a rule meets: a non-present one
    is copied from the context's real table, a present one becomes a
    watermark of its level-2 context (level 1) or the replacement frame
    of the first rule that meets it, with the real attributes and the
    rule's overrides (level 2).  A context with no real table serves a
    blank line.
    """
    contexts = {key: (ctx.context_id, ctx.original_table_addr)
                for key, ctx in agent._ctx_by_key.items()}
    by_id = {cid: (key, table) for key, (cid, table) in contexts.items()}
    frame, offset = divmod(line_addr, PAGE)
    first = offset // 8

    def meeting(asid, digits):
        """The first rule of `asid` that meets the entry at walk path `digits`."""
        number = 0
        for digit in digits:
            number = number * TABLE_ENTRIES + digit
        size = PAGE * TABLE_ENTRIES ** (3 - len(digits))
        lo = number * size
        for rule in agent.rules.values():
            if rule.asid == asid and rule.va_start < lo + size and lo < rule.va_end:
                return rule, lo
        return None, lo

    def watermark(raw, asid, path):
        """`raw` with its output address made the watermark of context `path`."""
        wm_frame = agent.window.base_pfn + len(path) * WM_CONTEXTS + contexts[asid, path][0]
        return wm_frame * PAGE + (raw & 0xE) + 1

    owners = [s.asid for s in agent.spaces.values() if s.pgd_base == frame * PAGE]
    if owners:
        asid, entries, claimed = owners[0], [], False
        for k in range(8):
            raw = dram.read_qword(line_addr + k * 8)
            rule, _ = meeting(asid, (first + k,))
            claimed = claimed or rule is not None
            entries.append(watermark(raw, asid, (first + k,)) if rule and raw % 2 else raw)
        return b"".join(e.to_bytes(8, "little") for e in entries) if claimed else None
    level, cid = divmod(frame - agent.window.base_pfn, WM_CONTEXTS)
    if not (0 <= frame - agent.window.base_pfn < 4 * WM_CONTEXTS and cid in by_id):
        return None
    (asid, path), table = by_id[cid]
    if len(path) != level:
        return None
    if table is None:
        return bytes(64)
    entries = []
    for k in range(8):
        raw = dram.read_qword(table + offset + k * 8)
        rule, lo = meeting(asid, path + (first + k,))
        if rule is None:
            raw = 0
        elif raw % 2 and level == 1:
            raw = watermark(raw, asid, path + (first + k,))
        elif raw % 2:
            attrs = (raw & 0xE) | (rule.attr_overrides or 0)
            raw = rule.replacement_base_pfn * PAGE + (lo - rule.va_start) + attrs + 1
        entries.append(raw)
    return b"".join(e.to_bytes(8, "little") for e in entries)


def cycle_law_gap(m):
    """How far a machine's reported cycle total lies from the conservation
    law of the cycle model, over its lifetime counters; 0 when it holds.

    Every cache hit costs `cache_hit`, every miss `cci`, every DRAM line
    the PE side read `dram`, and every ACK `snoop + lightv`.  DRAM is
    priced by the lines DRAM served, less `Dram.dma_reads` (reads a DMA
    engine made, which nothing prices), and an ACK by the agent's latency:
    never by the serve cycles the fabric sums.  So a serve that
    under-reports its DRAM reads, or a walk replay that skips them, breaks
    the law.
    Holds only on a machine whose one agent, if any, is its own LightV.
    """
    lat, c = m.config.latencies, m.counters
    law = (
        lat.cache_hit * (c.data_hits + c.walk_hits)
        + lat.cci * (c.data_misses + c.walk_misses)
        + lat.dram * (m.dram.reads - m.dram.dma_reads)
        + (lat.snoop + lat.lightv) * c.snoops_acked
    )
    return c.total_cycles - law


def _hot_slot_order(seed):
    order = list(range(PAGE))
    random.Random(seed).shuffle(order)
    return order


def histogram_trace_by_byte(w):
    """The histogram trace with a running count per hot-page slot, bumped
    once per image byte."""
    order = _hot_slot_order(w.seed)
    counts = [0] * PAGE
    code_span = CODE_PAGES * PAGE
    for i in range(w.image_bytes):
        yield (0, "R", IMAGE_BASE_VA + i, None)
        slot = order[i % PAGE]
        counts[slot] += 1
        yield (0, "R", HOT_PAGE_VA + slot, None)
        yield (0, "W", HOT_PAGE_VA + slot, counts[slot] & 0xFF)
        if i % CODE_PERIOD == 0:
            yield (0, "R", CODE_BASE_VA + (i // CODE_PERIOD * 64) % code_span, None)
    if w.image_bytes == 0:
        for k in range(CODE_PAGES):
            yield (0, "R", CODE_BASE_VA + k * PAGE, None)


def hot_content_by_byte(w):
    """The hot page after the histogram trace, counted one image byte at a
    time."""
    order = _hot_slot_order(w.seed)
    counts = [0] * PAGE
    for i in range(w.image_bytes):
        counts[order[i % PAGE]] += 1
    return bytes(c & 0xFF for c in counts)


class LruShadow:
    """Plain replay model of a set-associative LRU cache (tags only)."""

    def __init__(self, sets, ways):
        self.sets = sets
        self.ways = ways
        self.lines = [[] for _ in range(sets)]  # most recent last

    def _bucket(self, line_addr):
        return self.lines[(line_addr // 64) % self.sets]

    def touch(self, line_addr):
        """Access a line; returns True on hit.  Misses fill, evicting LRU."""
        bucket = self._bucket(line_addr)
        if line_addr in bucket:
            bucket.remove(line_addr)
            bucket.append(line_addr)
            return True
        if len(bucket) >= self.ways:
            bucket.pop(0)
        bucket.append(line_addr)
        return False

    def drop(self, line_addr):
        bucket = self._bucket(line_addr)
        if line_addr in bucket:
            bucket.remove(line_addr)

    def contains(self, line_addr):
        return line_addr in self._bucket(line_addr)


def build_tables_by_walk(leaves, dram, allocator):
    """Reference page-table builder that reads the whole path of every
    mapping afresh.  `leaves` maps each page VA to its leaf descriptor, in
    mapping order; returns (pgd_base, table_pfns in allocation order)."""
    table_pfns = [allocator.alloc()]
    pgd_base = table_pfns[0] * PAGE
    for va, leaf in leaves.items():
        i0, i1, i2, _ = brute_split(va)
        base = pgd_base
        for index in (i0, i1):
            raw = dram.read_qword(base + index * 8)
            if raw % 2 == 0:
                pfn = allocator.alloc()
                table_pfns.append(pfn)
                raw = pfn * PAGE + 1
                dram.write_qword(base + index * 8, raw)
            base = raw & ADDR_FIELD_MASK
        dram.write_qword(base + i2 * 8, leaf)
    return pgd_base, table_pfns


def activation_error(agent, rules, strict=True):
    """The (exception class name, text) that `LightV.activate` must raise
    for `rules` before its context-capacity check, or None.

    A reference copy of its checks in their order, reading every pair of
    rules, every page of a range and every entry of every table under a
    level-0 slot, as they were first written.
    """
    ids = set(agent.rules)
    for rule in rules:
        try:
            rule.validate()
        except ValueError as exc:
            return type(exc).__name__, str(exc)
        if rule.rule_id in agent.rules:
            return "RuleError", f"rule id {rule.rule_id} already active"
        if rule.rule_id in ids:
            return "RuleError", f"rule id {rule.rule_id} given twice"
        ids.add(rule.rule_id)
        if rule.asid not in agent.spaces:
            return "RuleError", f"rule {rule.rule_id}: unknown asid {rule.asid}"
        run = rule.replacement_run
        if not agent.dram.contains(run.start * PAGE, len(run) * PAGE):
            return "RuleError", f"rule {rule.rule_id}: replacement frames outside DRAM aperture"
        for space in agent.spaces.values():
            if any(pfn in run for pfn in space.table_pfns):
                return ("RuleError", f"rule {rule.rule_id}: replacement frames hold page"
                        f" tables of asid {space.asid}")
    for i, rule in enumerate(rules):
        run = rule.replacement_run
        for other in rules[:i] + list(agent.rules.values()):
            if (rule.asid == other.asid and rule.va_start < other.va_end
                    and other.va_start < rule.va_end):
                return "RuleError", f"rules {rule.rule_id} and {other.rule_id} overlap"
            other_run = other.replacement_run
            if run.start < other_run.stop and other_run.start < run.stop:
                return ("RuleError", f"rules {rule.rule_id} and {other.rule_id} share"
                        " replacement frames")
    if not strict:
        return None
    every = list(agent.rules.values()) + list(rules)
    scanned = set()
    for rule in rules:
        pgd_base = agent.spaces[rule.asid].pgd_base
        for va in range(rule.va_start, rule.va_end, PAGE):
            outcome = brute_walk(pgd_base, va, agent.dram.read_qword)
            if outcome[0] == "fault":
                return ("IsolationError", f"rule {rule.rule_id}: {va:#x} not pre-mapped"
                        f" (level {outcome[1]} non-present)")
        first, last = brute_split(rule.va_start)[0], brute_split(rule.va_end - 1)[0]
        for i0 in range(first, last + 1):
            if (rule.asid, i0) in scanned:
                continue
            scanned.add((rule.asid, i0))
            for va in _mapped_pages(agent.dram.read_qword, pgd_base, i0):
                if not any(r.asid == rule.asid and r.va_start <= va < r.va_end for r in every):
                    return ("IsolationError", f"rule {rule.rule_id}: neighbour mapping"
                            f" {va:#x} shares level-0 slot {i0}")
    return None


def _mapped_pages(read_qword, pgd_base, i0):
    """The VA of every page with a present leaf entry under level-0 slot
    `i0`, in VA order, one entry read at a time."""
    raw = read_qword(pgd_base + i0 * 8)
    if raw % 2 == 0:
        return
    level1 = raw & ADDR_FIELD_MASK
    for i1 in range(TABLE_ENTRIES):
        raw = read_qword(level1 + i1 * 8)
        if raw % 2 == 0:
            continue
        leaf_table = raw & ADDR_FIELD_MASK
        for i2 in range(TABLE_ENTRIES):
            if read_qword(leaf_table + i2 * 8) % 2:
                yield ((i0 * TABLE_ENTRIES + i1) * TABLE_ENTRIES + i2) * PAGE


def present_entries_by_entry(table):
    """(index, raw) of every entry of a table frame whose present bit is
    set, decoding one entry at a time."""
    entries = (int.from_bytes(table[i * 8 : i * 8 + 8], "little") for i in range(TABLE_ENTRIES))
    return [(i, raw) for i, raw in enumerate(entries) if raw % 2]


def rule_lookups(agent):
    """LightV's rule-side lookups rebuilt from every active rule, as they
    were first written (a rebuild after every change): the (slot, rules)
    and (watched line, slots) items, in order."""
    by_slot, watch = {}, {}
    for rule in agent.rules.values():
        pgd_base = agent.spaces[rule.asid].pgd_base
        first, last = brute_split(rule.va_start)[0], brute_split(rule.va_end - 1)[0]
        for i0 in range(first, last + 1):
            if (rule.asid, i0) not in by_slot:
                by_slot[rule.asid, i0] = []
                line = (pgd_base + i0 * 8) // 64 * 64
                watch.setdefault(line, []).append((rule.asid, i0, pgd_base))
            by_slot[rule.asid, i0].append(rule)
    return list(by_slot.items()), list(watch.items())


def capture_error(agent, pairs):
    """The text of the ValueError `begin_page_capture` must raise for
    `pairs`, or None: every line's alignment first, then each line in
    order, the aperture before the page tables, as first written."""
    lines = [line for pair in pairs.items() for line in pair]
    if any(line % 64 for line in lines):
        return "capture lines must be 64-byte aligned"
    for line in lines:
        if not agent.dram.contains(line, 64):
            return f"capture line {line:#x} outside DRAM aperture"
        for space in agent.spaces.values():
            if line // PAGE in space.table_pfns:
                return f"capture line {line:#x} lies in a page table of asid {space.asid}"
    return None


def invalidate_by_line(cci, cache, lines):
    """Drop each line in turn, writing a Modified one back after its drop."""
    for addr in lines:
        line = cache_drop(cache, addr)
        if line is not None and line.state.value == "M":
            cci._writeback(line)


def flush_by_line(cci, cache):
    """The maintenance sweep one line at a time: every line in
    `cache_lines` order, each dropped, then written back if Modified."""
    invalidate_by_line(cci, cache, [line.tag for line in cache_lines(cache)])
