"""Reproducible workloads and end-to-end demonstrations.

Five scenarios: a histogram-style workload and a user-supplied trace, each
compared across the three agent modes by `run_modes`, two hazard
reproductions (demand paging and isolation), and chunked page migration
with live accessors.  Each returns a report object carrying labelled
machine statistics (rendered by `csv_rows`), a pass/fail verdict and a
text rendering.  All randomness is seeded.
"""

import random
from dataclasses import dataclass, field, replace
from typing import Optional

from .addressing import (
    ATTR_CACHEABLE,
    ATTR_WRITABLE,
    PAGE_SHIFT,
    PAGE_SIZE,
)
from .coherence import LINE_BYTES
from .lightv import IsolationError, RewriteRule
from .machine import (
    FAULT_RECORD,
    Machine,
    MachineConfig,
    compare_runs,
    trace_digest,
)

# Scenario mode labels, in report order, and the machine mode each runs in.
MODES = ("baseline", "passive", "active")
MACHINE_MODE = {"baseline": "absent", "passive": "passive", "active": "active"}

DEFAULT_IMAGE_BYTES = 55_600_000

# Default VA layout: three disjoint level-0 regions.  The hot page owns
# its level-0 slot outright (the redirect target must), while the image
# region's slot sits in the same 64-byte table line, which exercises the
# untouched-neighbour path on every image walk.
CODE_BASE_VA = 0x0
HOT_PAGE_VA = 8 << 30
IMAGE_BASE_VA = 9 << 30

PASSIVE_OVERHEAD_EPSILON = 0.005
ACTIVE_OVERHEAD_MAX = 0.015


def csv_rows(scenario: str, stats: dict, seed, scale) -> list:
    """One report row per labelled run in `stats`, in its order."""
    return [
        {"scenario": scenario, "mode": label, "seed": seed, "scale": scale, **s.to_dict()}
        for label, s in stats.items()
    ]


def run_modes(config: MachineConfig, modes, trace, prepare):
    """Run one trace on a fresh machine per mode label, in order.

    `prepare(machine)` maps the address spaces and returns the rewrite
    rules; they are activated in active mode only.  Yields
    (mode, machine, RunStats).  A generator, so that a caller need not keep
    every mode's machine alive at once.
    """
    digest = trace_digest(trace)
    for mode in modes:
        m = Machine(config.with_mode(MACHINE_MODE[mode]))
        rules = prepare(m)
        if mode == "active" and rules:
            m.activate_rules(rules)
        yield mode, m, m.run_trace(trace, digest)


# ---------------------------------------------------------------------------
# histogram workload
# ---------------------------------------------------------------------------


@dataclass
class HistogramWorkload:
    """Streaming image read with a hot aggregation page and warm code pages."""

    image_bytes: int = DEFAULT_IMAGE_BYTES
    hot_page_va: int = HOT_PAGE_VA
    image_base_va: int = IMAGE_BASE_VA
    code_base_va: int = CODE_BASE_VA
    code_pages: int = 4
    code_period: int = 64
    seed: int = 0
    asid: int = 0

    def validate(self):
        if self.image_bytes < 0:
            raise ValueError("image_bytes must be >= 0")
        regions = [
            (self.code_base_va, self.code_base_va + self.code_pages * PAGE_SIZE),
            (self.hot_page_va, self.hot_page_va + PAGE_SIZE),
            (self.image_base_va, self.image_base_va + max(self.image_bytes, 1)),
        ]
        for i, (lo_a, hi_a) in enumerate(regions):
            for lo_b, hi_b in regions[i + 1 :]:
                if lo_a < hi_b and lo_b < hi_a:
                    raise ValueError("workload regions overlap")

    @property
    def image_pages(self) -> int:
        return -(-self.image_bytes // PAGE_SIZE)


def histogram_workload(scale: float = 1.0, seed: int = 0) -> HistogramWorkload:
    w = HistogramWorkload(image_bytes=int(DEFAULT_IMAGE_BYTES * scale), seed=seed)
    w.validate()
    return w


def gen_histogram_trace(w: HistogramWorkload):
    """One streaming pass over the image; per byte, a read-modify-write of
    a shuffled hot-page slot; a code-page read every `code_period` bytes."""
    w.validate()
    rng = random.Random(w.seed)
    order = list(range(PAGE_SIZE))
    rng.shuffle(order)
    counts = [0] * PAGE_SIZE
    trace = []
    append = trace.append
    code_span = w.code_pages * PAGE_SIZE
    asid = w.asid
    for i in range(w.image_bytes):
        append((asid, "R", w.image_base_va + i, None))
        slot = order[i % PAGE_SIZE]
        counts[slot] += 1
        hot = w.hot_page_va + slot
        append((asid, "R", hot, None))
        append((asid, "W", hot, counts[slot] & 0xFF))
        if i % w.code_period == 0:
            append(
                (asid, "R", w.code_base_va + (i // w.code_period * 64) % code_span, None)
            )
    if w.image_bytes == 0:
        for k in range(w.code_pages):
            append((asid, "R", w.code_base_va + k * PAGE_SIZE, None))
    return trace


def expected_hot_content(w: HistogramWorkload) -> bytes:
    rng = random.Random(w.seed)
    order = list(range(PAGE_SIZE))
    rng.shuffle(order)
    counts = [0] * PAGE_SIZE
    for i in range(w.image_bytes):
        counts[order[i % PAGE_SIZE]] += 1
    return bytes(c & 0xFF for c in counts)


def _layout_histogram(m: Machine, w: HistogramWorkload):
    """Map the workload on `m`; return the hot page's frame and the rule
    that redirects the hot page."""
    rw = ATTR_WRITABLE | ATTR_CACHEABLE
    mappings = []
    for k in range(w.image_pages):
        mappings.append((w.image_base_va + k * PAGE_SIZE, m.allocator.alloc(), rw))
    hot_pfn = m.allocator.alloc()
    mappings.append((w.hot_page_va, hot_pfn, rw))
    for k in range(w.code_pages):
        mappings.append((w.code_base_va + k * PAGE_SIZE, m.allocator.alloc(), ATTR_CACHEABLE))
    m.register_space(w.asid, mappings)
    # Replacement frame with the same set alignment as the hot frame, so
    # the data-side cache behaviour is identical in every mode and the
    # cycle delta is purely the walk path.
    replacement_pfn = m.allocator.alloc()
    while (replacement_pfn & 3) != (hot_pfn & 3):
        replacement_pfn = m.allocator.alloc()
    rule = RewriteRule(1, w.asid, w.hot_page_va, w.hot_page_va + PAGE_SIZE, replacement_pfn)
    return hot_pfn, rule


@dataclass
class OverheadExperiment:
    workload: HistogramWorkload
    stats: dict
    passive_overhead: object
    active_overhead: object
    hot_contents: dict
    expected_hot: bytes
    active_original_untouched: bool = True

    @property
    def functional_equal(self) -> bool:
        contents = set(self.hot_contents.values())
        return len(contents) == 1 and contents == {self.expected_hot}

    @property
    def passive_ok(self) -> bool:
        if self.passive_overhead is None:
            return True
        return abs(self.passive_overhead.relative) < PASSIVE_OVERHEAD_EPSILON

    @property
    def active_ok(self) -> bool:
        if self.active_overhead is None:
            return True
        return 0.0 < self.active_overhead.relative < ACTIVE_OVERHEAD_MAX

    @property
    def ok(self) -> bool:
        return (
            self.functional_equal
            and self.active_original_untouched
            and self.passive_ok
            and self.active_ok
        )

    def text(self) -> str:
        lines = []
        for mode, stats in self.stats.items():
            lines.append(f"[{mode}]")
            lines.append(stats.text())
        if self.passive_overhead is not None:
            lines.append(self.passive_overhead.text("passive vs baseline"))
        if self.active_overhead is not None:
            lines.append(self.active_overhead.text("active vs baseline"))
            lines.append(
                f"hot page identical across modes: {self.functional_equal};"
                f" active data in replacement frame: {self.active_ok_frame}"
            )
        lines.append(f"experiment ok: {self.ok}")
        return "\n".join(lines)

    @property
    def active_ok_frame(self) -> bool:
        return (
            "active" in self.hot_contents
            and self.hot_contents["active"] == self.expected_hot
        )


def run_overhead_experiment(
    config: MachineConfig,
    workload: Optional[HistogramWorkload] = None,
    modes=MODES,
    trace=None,
) -> OverheadExperiment:
    """Run the identical histogram trace under the requested modes.

    The active run redirects the hot page to a replacement frame; its
    aggregation output must land there and match the other modes byte for
    byte, while the cycle overheads stay within the shipped bounds.
    `trace` is the workload's trace when the caller has generated it.
    """
    w = workload if workload is not None else histogram_workload()
    if trace is None:
        trace = gen_histogram_trace(w)
    stats, hot_contents = {}, {}
    original_untouched = True
    hot_pfn = rule = None

    def prepare(m):
        nonlocal hot_pfn, rule
        hot_pfn, rule = _layout_histogram(m, w)
        return [rule]

    for mode, m, run in run_modes(config, modes, trace, prepare):
        stats[mode] = run
        frame = rule.replacement_base_pfn if mode == "active" else hot_pfn
        m.flush_cache()
        hot_contents[mode] = m.read_frame(frame)
        if mode == "active":
            # every aggregation byte must have landed in the replacement
            # frame; the originally mapped frame stays untouched
            original_untouched = not any(m.read_frame(hot_pfn))
    passive = active = None
    if "baseline" in stats and "passive" in stats:
        passive = compare_runs(stats["baseline"], stats["passive"])
    if "baseline" in stats and "active" in stats:
        active = compare_runs(stats["baseline"], stats["active"])
    return OverheadExperiment(
        workload=w,
        stats=stats,
        passive_overhead=passive,
        active_overhead=active,
        hot_contents=hot_contents,
        expected_hot=expected_hot_content(w),
        active_original_untouched=original_untouched,
    )


# ---------------------------------------------------------------------------
# demand-paging hazard
# ---------------------------------------------------------------------------


@dataclass
class DemandPagingReport:
    """Shows what a fault looks like when the rewriter serves the walk.

    With the agent active on an unpopulated target, the faulting
    descriptor address lies in the watermark window -- useless to a fault
    handler without the module's context cache.  Passive control faults
    carry the real descriptor address; a pre-populated control does not
    fault at all.
    """

    control_faults: int
    active_fault: object
    active_in_window: bool
    passive_fault: object
    passive_in_window: bool
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.control_faults == 0
            and self.active_fault is not None
            and self.active_in_window
            and self.passive_fault is not None
            and not self.passive_in_window
        )

    def text(self) -> str:
        lines = [
            f"control (pre-populated) faults: {self.control_faults}",
            f"active fault pte @ {self.active_fault.pte_address:#x}"
            f" (watermark window: {self.active_in_window})",
            f"passive fault pte @ {self.passive_fault.pte_address:#x}"
            f" (watermark window: {self.passive_in_window})",
            f"hazard reproduced: {self.ok}",
        ]
        return "\n".join(lines)


def run_demand_paging_hazard(config: MachineConfig) -> DemandPagingReport:
    target_va = (8 << 30) | (5 << 21) | (7 << PAGE_SHIFT)
    sibling_va = target_va + PAGE_SIZE  # keeps the intermediate tables populated
    rw = ATTR_WRITABLE | ATTR_CACHEABLE
    stats = {}

    def build(mode, map_target):
        cfg = replace(config.with_mode(mode), fault_policy=FAULT_RECORD)
        m = Machine(cfg)
        pfns = [m.allocator.alloc(), m.allocator.alloc()]
        mappings = [(sibling_va, pfns[0], rw)]
        if map_target:
            mappings.append((target_va, pfns[1], rw))
        m.register_space(0, mappings)
        replacement = m.allocator.alloc()
        rule = RewriteRule(1, 0, target_va, target_va + PAGE_SIZE, replacement)
        return m, rule

    # control: target pre-populated, rule active, access succeeds
    m, rule = build("active", map_target=True)
    m.activate_rules([rule], strict=False)  # sibling shares the slot by design
    run = m.run_trace([(0, "R", target_va, None)])
    stats["control"] = run
    control_faults = len(run.faults)

    # hazard: target leaf never populated, rule active
    m, rule = build("active", map_target=False)
    m.activate_rules([rule], strict=False)
    run = m.run_trace([(0, "R", target_va, None)])
    stats["active"] = run
    active_fault = run.faults[0] if run.faults else None
    active_in_window = (
        active_fault is not None
        and m.lightv.window.contains_pfn(active_fault.pte_address >> PAGE_SHIFT)
    )

    # passive control: same layout, module never activated
    m, _ = build("passive", map_target=False)
    run = m.run_trace([(0, "R", target_va, None)])
    stats["passive"] = run
    passive_fault = run.faults[0] if run.faults else None
    passive_in_window = (
        passive_fault is not None
        and m.lightv.window.contains_pfn(passive_fault.pte_address >> PAGE_SHIFT)
    )

    return DemandPagingReport(
        control_faults=control_faults,
        active_fault=active_fault,
        active_in_window=active_in_window,
        passive_fault=passive_fault,
        passive_in_window=passive_in_window,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# isolation hazard
# ---------------------------------------------------------------------------


@dataclass
class IsolationReport:
    strict_rejected: bool
    rejection: str
    neighbor_baseline_pa: int
    neighbor_outcome: str  # "pa:<hex>" or "fault:L<level>"
    deviated: bool
    control_unaffected: bool
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.strict_rejected and self.deviated and self.control_unaffected

    def text(self) -> str:
        return "\n".join(
            [
                f"strict activation rejected: {self.strict_rejected} ({self.rejection})",
                f"neighbour baseline pa: {self.neighbor_baseline_pa:#x}",
                f"neighbour under permissive activation: {self.neighbor_outcome}",
                f"neighbour deviated: {self.deviated}",
                f"isolated control unaffected: {self.control_unaffected}",
                f"hazard reproduced: {self.ok}",
            ]
        )


def run_isolation_hazard(config: MachineConfig) -> IsolationReport:
    """Demonstrate why the target range must own its level-0 slot.

    A neighbour page sharing the target's first index mistranslates (here:
    faults at the synthesized intermediate level) once the rewrite is
    active, because the fabricated intermediate chunk only knows targeted
    paths.  Strict activation refuses such a layout outright.
    """
    target_va = 8 << 30
    shared_neighbor_va = (8 << 30) | (1 << 21)  # same index0, different index1
    isolated_neighbor_va = 9 << 30
    rw = ATTR_WRITABLE | ATTR_CACHEABLE
    stats = {}

    def build(mode):
        m = Machine(replace(config.with_mode(mode), fault_policy=FAULT_RECORD))
        mappings = [
            (target_va, m.allocator.alloc(), rw),
            (shared_neighbor_va, m.allocator.alloc(), rw),
            (isolated_neighbor_va, m.allocator.alloc(), rw),
        ]
        m.register_space(0, mappings)
        replacement = m.allocator.alloc()
        rule = RewriteRule(1, 0, target_va, target_va + PAGE_SIZE, replacement)
        return m, rule

    baseline, _ = build("absent")
    shared_base_pa = baseline.mmu.translate(0, shared_neighbor_va)
    isolated_base_pa = baseline.mmu.translate(0, isolated_neighbor_va)
    stats["baseline"] = baseline.run_trace([])

    strict_machine, rule = build("active")
    strict_rejected, rejection = False, ""
    try:
        strict_machine.activate_rules([rule], strict=True)
    except IsolationError as exc:
        strict_rejected, rejection = True, str(exc)

    permissive, rule = build("active")
    permissive.activate_rules([rule], strict=False)
    run = permissive.run_trace(
        [(0, "R", shared_neighbor_va, None), (0, "R", isolated_neighbor_va, None)]
    )
    stats["permissive"] = run
    fault_map = {f.va: f for f in run.faults}
    if shared_neighbor_va in fault_map:
        outcome = f"fault:L{fault_map[shared_neighbor_va].level}"
        deviated = True
    else:
        pa = permissive.mmu.translate(0, shared_neighbor_va)
        outcome = f"pa:{pa:#x}"
        deviated = pa != shared_base_pa
    control_unaffected = isolated_neighbor_va not in fault_map
    if control_unaffected:
        pa = permissive.mmu.translate(0, isolated_neighbor_va)
        control_unaffected = pa == isolated_base_pa

    return IsolationReport(
        strict_rejected=strict_rejected,
        rejection=rejection,
        neighbor_baseline_pa=shared_base_pa,
        neighbor_outcome=outcome,
        deviated=deviated,
        control_unaffected=control_unaffected,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# page migration
# ---------------------------------------------------------------------------


@dataclass
class MigrationPlan:
    page_va: int = 10 << 30
    dma_chunk_bytes: int = 256
    accessor_ops: int = 24
    post_ops: int = 8
    seed: int = 0
    asid: int = 0
    source_pfn: Optional[int] = None  # None: taken from the machine allocator
    destination_pfn: Optional[int] = None

    def validate(self):
        if self.page_va & (PAGE_SIZE - 1):
            raise ValueError("page_va must be page-aligned")
        if (
            self.dma_chunk_bytes <= 0
            or self.dma_chunk_bytes % LINE_BYTES
            or PAGE_SIZE % self.dma_chunk_bytes
        ):
            raise ValueError("dma_chunk_bytes must be a line multiple dividing the page")
        if self.source_pfn is not None and self.source_pfn == self.destination_pfn:
            raise ValueError("source and destination frames must differ")


@dataclass
class MigrationReport:
    plan: MigrationPlan
    events: int
    reads_checked: int
    stale_reads: int
    lost_writes: int
    translated_to_source_before: bool
    translations_to_destination: bool
    source_clean: bool
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.stale_reads == 0
            and self.lost_writes == 0
            and self.translated_to_source_before
            and self.translations_to_destination
            and self.source_clean
        )

    def text(self) -> str:
        return "\n".join(
            [
                f"events interleaved: {self.events}",
                f"reads checked: {self.reads_checked}, stale: {self.stale_reads}",
                f"lost writes: {self.lost_writes}",
                f"translations now resolve to destination:"
                f" {self.translations_to_destination}",
                f"source frame unreferenced: {self.source_clean}",
                f"migration ok: {self.ok}",
            ]
        )


def run_migration(plan: MigrationPlan, config: MachineConfig) -> MigrationReport:
    """Copy a live page by DMA chunks while redirecting its translation.

    Accesses issued mid-copy are captured at the coherence level: reads of
    not-yet-copied destination lines are answered with source content, and
    dirty writebacks are mirrored to the source so the trailing DMA copy
    can never clobber newer data.  After the window the source frame is
    poisoned to prove nothing reads it again.
    """
    plan.validate()
    m = Machine(config.with_mode("active"))
    rng = random.Random(plan.seed)
    src = plan.source_pfn if plan.source_pfn is not None else m.allocator.alloc()
    dst = (
        plan.destination_pfn
        if plan.destination_pfn is not None
        else m.allocator.alloc()
    )
    for pfn in (src, dst):
        if not m.dram.contains(pfn << PAGE_SHIFT):
            raise ValueError(f"frame {pfn:#x} outside DRAM aperture")
    if src == dst:
        raise ValueError("source and destination frames must differ")
    va = plan.page_va
    m.register_space(plan.asid, [(va, src, ATTR_WRITABLE | ATTR_CACHEABLE)])

    init = bytes(rng.randrange(256) for _ in range(PAGE_SIZE))
    m.dram.write_bytes(src << PAGE_SHIFT, init)
    shadow = bytearray(init)
    before = m.tally()

    reads_checked = stale_reads = 0
    for _ in range(4):
        off = rng.randrange(PAGE_SIZE)
        reads_checked += 1
        if m.mem_read(plan.asid, va + off) != shadow[off]:
            stale_reads += 1
    pa = m.mmu.translate(plan.asid, va)
    translated_to_source_before = (pa >> PAGE_SHIFT) == src

    # open the window: flush source-tagged lines, redirect, capture
    m.invalidate_page_lines(src << PAGE_SHIFT)
    rule = RewriteRule(1, plan.asid, va, va + PAGE_SIZE, dst)
    m.activate_rules([rule])
    lines = PAGE_SIZE // LINE_BYTES
    pairs = {
        (dst << PAGE_SHIFT) + (k << 6): (src << PAGE_SHIFT) + (k << 6)
        for k in range(lines)
    }
    m.lightv.begin_page_capture(pairs)

    chunk_lines = plan.dma_chunk_bytes // LINE_BYTES
    n_chunks = PAGE_SIZE // plan.dma_chunk_bytes
    events = [("dma", k, 0) for k in range(n_chunks)]
    for _ in range(plan.accessor_ops):
        pos = rng.randrange(len(events) + 1)
        off = rng.randrange(PAGE_SIZE)
        if rng.random() < 0.5:
            events.insert(pos, ("R", off, 0))
        else:
            events.insert(pos, ("W", off, rng.randrange(256)))

    for kind, arg, value in events:
        if kind == "dma":
            released = []
            for j in range(arg * chunk_lines, (arg + 1) * chunk_lines):
                line_off = j << 6
                m.dram.write_line(
                    (dst << PAGE_SHIFT) + line_off,
                    m.dram.read_line((src << PAGE_SHIFT) + line_off),
                )
                released.append((dst << PAGE_SHIFT) + line_off)
            m.lightv.release_captured(released)
        elif kind == "R":
            reads_checked += 1
            if m.mem_read(plan.asid, va + arg) != shadow[arg]:
                stale_reads += 1
        else:
            m.mem_write(plan.asid, va + arg, value)
            shadow[arg] = value
    m.lightv.end_page_capture()

    # the old page is reclaimed; poison it so any lingering reference shows
    m.dram.write_bytes(src << PAGE_SHIFT, b"\xee" * PAGE_SIZE)
    for _ in range(plan.post_ops):
        off = rng.randrange(PAGE_SIZE)
        reads_checked += 1
        if m.mem_read(plan.asid, va + off) != shadow[off]:
            stale_reads += 1
    pa = m.mmu.translate(plan.asid, va)
    translations_to_destination = (pa >> PAGE_SHIFT) == dst

    m.flush_cache()
    final = m.dram.read_bytes(dst << PAGE_SHIFT, PAGE_SIZE)
    lost_writes = sum(1 for i in range(PAGE_SIZE) if final[i] != shadow[i])
    src_lo, src_hi = src << PAGE_SHIFT, (src + 1) << PAGE_SHIFT
    source_clean = not any(
        src_lo <= line.tag < src_hi for line in m.cache.iter_lines()
    )
    stats = {"active": m.stats_since(before, f"migration-seed{plan.seed}")}

    return MigrationReport(
        plan=plan,
        events=len(events),
        reads_checked=reads_checked,
        stale_reads=stale_reads,
        lost_writes=lost_writes,
        translated_to_source_before=translated_to_source_before,
        translations_to_destination=translations_to_destination,
        source_clean=source_clean,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# custom trace
# ---------------------------------------------------------------------------


@dataclass
class CustomTraceReport:
    """Statistics of a user-supplied trace, per mode; it has no verdict."""

    stats: dict
    ok = True

    def text(self) -> str:
        return "\n".join(f"[{mode}]\n{s.text()}" for mode, s in self.stats.items())


def run_custom_trace(config: MachineConfig, mappings, rules, trace, modes=MODES):
    """Replay `trace` in address space 0, mapped by `mappings`, under each
    mode; `rules` are activated in active mode."""

    def prepare(m):
        m.register_space(0, mappings)
        return rules

    return CustomTraceReport(
        {mode: run for mode, _, run in run_modes(config, modes, trace, prepare)}
    )
