"""Reproducible workloads and end-to-end demonstrations.

Five scenarios: a histogram-style workload and a user-supplied trace, each
compared across the three agent modes, two hazard reproductions (demand
paging and isolation), and chunked page migration with live accessors.
`run_modes` runs every scenario that runs one trace on several machines:
the histogram, the custom trace and the demand-paging hazard.  Every
scenario returns one `Report`: labelled machine statistics (rendered by
`csv_rows`), named checks whose conjunction is its `ok` verdict, and its
text lines.  The CLI exits 5 when a check fails and names each failed
check on stderr.  All randomness is seeded.
"""

import random
from dataclasses import dataclass, replace
from itertools import chain, islice, repeat

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
    MAX_MAPPED_PAGES,
    Machine,
    MachineConfig,
    compare_runs,
)

# Scenario mode labels, in report order, and the machine mode each label
# runs in; demand paging's "control" is an active machine.
MODES = ("baseline", "passive", "active")
MACHINE_MODE = {
    "baseline": "absent",
    "passive": "passive",
    "active": "active",
    "control": "active",
}

# Accesses `run_modes` reads from a trace and runs on every machine at a time.
CHUNK = 4096

DEFAULT_IMAGE_BYTES = 55_600_000

# The histogram's VA layout, in address space 0: three disjoint level-0
# regions.  The hot page owns its level-0 slot outright (the redirect
# target must), while the image region's slot sits in the same 64-byte
# table line, which exercises the untouched-neighbour path on every image
# walk.  The image, under `MAX_MAPPED_PAGES` pages, ends below 13 GiB.
CODE_BASE_VA = 0x0
HOT_PAGE_VA = 8 << 30
IMAGE_BASE_VA = 9 << 30
CODE_PAGES = 4
CODE_PERIOD = 64  # image bytes per code-page read

# The migrated page, in address space 0, and the bytes one DMA event copies.
MIGRATED_PAGE_VA = 10 << 30
DMA_CHUNK_BYTES = 256

PASSIVE_OVERHEAD_EPSILON = 0.005
ACTIVE_OVERHEAD_MAX = 0.015


@dataclass
class Report:
    """What one scenario run found.

    `stats` maps a label to its run's RunStats, in report order.  `checks`
    maps a check name to whether it held, in the order they were made;
    `ok` is their conjunction.  The text is `lines`, then the `verdict`
    line when the scenario has one."""

    stats: dict
    checks: dict
    lines: list
    verdict: str = ""

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def text(self) -> str:
        verdict = [f"{self.verdict}: {self.ok}"] if self.verdict else []
        return "\n".join(self.lines + verdict)


def _stats_lines(stats: dict) -> list:
    """Each labelled run's text under its `[label]` header."""
    return [f"[{label}]\n{s.text()}" for label, s in stats.items()]


def csv_rows(scenario: str, stats: dict, seed, scale) -> list:
    """One report row per labelled run in `stats`, in its order."""
    return [
        {"scenario": scenario, "mode": label, "seed": seed, "scale": scale, **s.to_dict()}
        for label, s in stats.items()
    ]


def run_modes(config: MachineConfig, modes, trace, prepare):
    """Run one trace on a fresh machine per mode label, reading it once.

    Each label's machine runs in the machine mode `MACHINE_MODE` gives it.
    `prepare(machine, label)` maps the address spaces and returns the
    rewrite rules; they are activated on every machine in active mode.
    Every mode's machine is built and prepared first.  Then `trace`, any
    iterable of accesses, is read once, `CHUNK` accesses at a time with one
    chunk held, and each chunk runs on each machine in mode order, so that
    no mode keeps the trace.  Every mode runs the same accesses, so their
    RunStats compare (`compare_runs`).

    A failure is raised as if the modes had run one after another: the
    first mode's at once; a later mode's, which stops that mode and every
    mode after it, only once every earlier mode has run the whole trace
    without failing.  So an error the trace itself raises (a bad line of
    a streamed trace file) comes when the chunk that holds it is read:
    after the first mode's set-up and any failure of the first mode in an
    earlier chunk, and before any access of that chunk runs.  Returns
    [(mode, machine, RunStats)] in mode order.
    """
    live = []  # (mode, machine, tally before the trace, faults)
    held = None
    for mode in modes:
        try:
            m = Machine(config.with_mode(MACHINE_MODE[mode]))
            rules = prepare(m, mode)
            if m.config.mode == "active" and rules:
                m.activate_rules(rules)
        except Exception as exc:
            if not live:
                raise
            held = exc
            break
        live.append((mode, m, m.tally(), []))
    accesses = iter(trace)
    start = 0
    while chunk := list(islice(accesses, CHUNK)):
        for pos, (_, m, _, faults) in enumerate(live):
            try:
                m.replay(chunk, start, faults)
            except Exception as exc:
                if pos == 0:
                    raise
                held = exc
                del live[pos:]
                break
        start += len(chunk)
        del chunk  # so the next chunk is read with none held
    if held is not None:
        raise held
    return [(mode, m, m.stats_since(before, faults)) for mode, m, before, faults in live]


# ---------------------------------------------------------------------------
# histogram workload
# ---------------------------------------------------------------------------


@dataclass
class HistogramWorkload:
    """Streaming image read with a hot aggregation page and warm code
    pages, laid out at the module's constants."""

    image_bytes: int
    seed: int = 0

    def validate(self):
        if self.image_bytes < 0:
            raise ValueError("image_bytes must be >= 0")
        pages = self.image_pages + 1 + CODE_PAGES
        if pages > MAX_MAPPED_PAGES:
            raise ValueError(
                f"histogram maps {pages} pages, more than the {MAX_MAPPED_PAGES}"
                " one address space may map"
            )

    @property
    def image_pages(self) -> int:
        return -(-self.image_bytes // PAGE_SIZE)


def histogram_workload(scale: float, seed: int = 0) -> HistogramWorkload:
    w = HistogramWorkload(image_bytes=int(DEFAULT_IMAGE_BYTES * scale), seed=seed)
    w.validate()
    return w


def _hot_slot_order(seed: int) -> list:
    """The hot-page slots in the order the image's bytes count into them:
    a permutation of the page's offsets, shuffled by `seed`."""
    order = list(range(PAGE_SIZE))
    random.Random(seed).shuffle(order)
    return order


def iter_histogram_trace(w: HistogramWorkload):
    """One streaming pass over the image; per byte, a read-modify-write of
    a shuffled hot-page slot (`_hot_slot_order` is a permutation, so byte
    i's write is its slot's count, (i >> 12) + 1); a code-page read every
    `CODE_PERIOD` bytes.

    Validates `w` when called and returns a lazy iterator built from
    itertools (`_histogram_periods`), so no Python code runs per access."""
    w.validate()
    if w.image_bytes == 0:
        return iter([(0, "R", CODE_BASE_VA + k * PAGE_SIZE, None) for k in range(CODE_PAGES)])
    return chain.from_iterable(_histogram_periods(w))


def _histogram_periods(w: HistogramWorkload):
    """Yield the trace of `w` as iterables, per `CODE_PERIOD` image bytes:
    the first byte's three accesses, the code read, then the other bytes'.
    Each 4096-byte pass zips its image reads, the hot reads and its hot
    writes into triples; the 4096 hot-read tuples are built once and
    shared by every pass."""
    hot_vas = [HOT_PAGE_VA + slot for slot in _hot_slot_order(w.seed)]
    hot_reads = list(zip(repeat(0), repeat("R"), hot_vas, repeat(None)))
    code_span = CODE_PAGES * PAGE_SIZE
    for base in range(0, w.image_bytes, PAGE_SIZE):
        end = min(base + PAGE_SIZE, w.image_bytes)
        image_vas = range(IMAGE_BASE_VA + base, IMAGE_BASE_VA + end)
        image = zip(repeat(0), repeat("R"), image_vas, repeat(None))
        count = ((base >> PAGE_SHIFT) + 1) & 0xFF
        writes = zip(repeat(0), repeat("W"), hot_vas, repeat(count))
        accesses = chain.from_iterable(zip(image, hot_reads, writes))
        for i in range(base, end, CODE_PERIOD):
            yield islice(accesses, 3)
            yield ((0, "R", CODE_BASE_VA + (i // CODE_PERIOD * 64) % code_span, None),)
            # The pass's last period may be short; its run ends with the image.
            yield islice(accesses, 3 * (CODE_PERIOD - 1))


def gen_histogram_trace(w: HistogramWorkload) -> list:
    """The accesses of `iter_histogram_trace`, as a list."""
    return list(iter_histogram_trace(w))


def expected_hot_content(w: HistogramWorkload) -> bytes:
    """The hot page after the trace: slot order[k] counts every full pass
    over the page, plus one if k < the remainder."""
    full, rest = divmod(w.image_bytes, PAGE_SIZE)
    counts = bytearray(PAGE_SIZE)
    for k, slot in enumerate(_hot_slot_order(w.seed)):
        counts[slot] = (full + (k < rest)) & 0xFF
    return bytes(counts)


def _layout_histogram(m: Machine, w: HistogramWorkload):
    """Map the workload on `m`; return the hot page's frame and the rule
    that redirects the hot page."""
    rw = ATTR_WRITABLE | ATTR_CACHEABLE
    # One run for the image, the hot page and the code pages, so a
    # workload that cannot fit fails before any mapping is built.
    pfns = m.allocator.alloc_run(w.image_pages + 1 + CODE_PAGES)
    hot_pfn = pfns[w.image_pages]
    mappings = [
        (IMAGE_BASE_VA + k * PAGE_SIZE, pfn, rw)
        for k, pfn in enumerate(pfns[: w.image_pages])
    ]
    mappings.append((HOT_PAGE_VA, hot_pfn, rw))
    mappings += [
        (CODE_BASE_VA + k * PAGE_SIZE, pfn, ATTR_CACHEABLE)
        for k, pfn in enumerate(pfns[w.image_pages + 1 :])
    ]
    m.register_space(0, mappings)
    # Replacement frame with the same set alignment as the hot frame, so
    # the data-side cache behaviour is identical in every mode and the
    # cycle delta is purely the walk path.
    replacement_pfn = m.allocator.alloc()
    while (replacement_pfn & 3) != (hot_pfn & 3):
        replacement_pfn = m.allocator.alloc()
    rule = RewriteRule(1, 0, HOT_PAGE_VA, HOT_PAGE_VA + PAGE_SIZE, replacement_pfn)
    return hot_pfn, rule


def run_overhead_experiment(
    config: MachineConfig, workload: HistogramWorkload, modes=MODES, trace=None
) -> Report:
    """Run the identical histogram trace under the requested modes, which
    include the baseline the others are compared with.

    The active run redirects the hot page to a replacement frame; its
    aggregation output must land there and match the other modes byte for
    byte, while the cycle overheads stay within the shipped bounds.
    `trace` is the workload's trace, any iterable, when the caller supplies
    it; it is read once.
    """
    if trace is None:
        trace = iter_histogram_trace(workload)
    stats, hot_contents = {}, {}
    original_untouched = True
    hot_pfn = rule = None

    def prepare(m, _):
        nonlocal hot_pfn, rule
        hot_pfn, rule = _layout_histogram(m, workload)
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
    expected = expected_hot_content(workload)
    equal = set(hot_contents.values()) == {expected}
    checks = {"functional_equal": equal}
    lines = _stats_lines(stats)
    if "passive" in stats:
        passive = compare_runs(stats["baseline"], stats["passive"])
        checks["passive_ok"] = abs(passive.relative) < PASSIVE_OVERHEAD_EPSILON
        lines.append(passive.text("passive vs baseline"))
    if "active" in stats:
        active = compare_runs(stats["baseline"], stats["active"])
        in_frame = hot_contents["active"] == expected
        checks["active_ok"] = 0.0 < active.relative < ACTIVE_OVERHEAD_MAX
        checks["active_in_replacement_frame"] = in_frame
        checks["active_original_untouched"] = original_untouched
        checks["hot_page_redirected"] = stats["active"].lines_manipulated > 0
        lines.append(active.text("active vs baseline"))
        lines.append(
            f"hot page identical across modes: {equal};"
            f" active data in replacement frame: {in_frame}"
        )
    return Report(stats, checks, lines, "experiment ok")


# ---------------------------------------------------------------------------
# demand-paging hazard
# ---------------------------------------------------------------------------


def _map_then_reserve(m: Machine, vas, target_va: int, unmapped=()) -> RewriteRule:
    """Take one frame per page of `vas`, in order, and map each page in
    address space 0 but those in `unmapped`; then reserve a replacement
    frame and return the rule that redirects the page at `target_va` to
    it."""
    rw = ATTR_WRITABLE | ATTR_CACHEABLE
    pfns = m.allocator.alloc_run(len(vas))
    m.register_space(0, [(va, pfn, rw) for va, pfn in zip(vas, pfns) if va not in unmapped])
    return RewriteRule(1, 0, target_va, target_va + PAGE_SIZE, m.allocator.alloc())


def run_demand_paging_hazard(config: MachineConfig) -> Report:
    """Read an unpopulated target page with the rule active (the hazard),
    with the agent passive, and as a control with the target populated
    and the rule active.

    With the agent active, the faulting descriptor address lies in the
    watermark window -- useless to a fault handler without the module's
    context cache.  The passive fault carries the real descriptor address;
    the pre-populated control does not fault at all.
    """
    target_va = (8 << 30) | (5 << 21) | (7 << PAGE_SHIFT)
    sibling_va = target_va + PAGE_SIZE  # keeps the intermediate tables populated

    def prepare(m, mode):
        # The target takes its frame in every mode, so the frame numbers
        # (and the fault descriptor addresses) do not depend on the mode.
        unmapped = () if mode == "control" else (target_va,)
        return [_map_then_reserve(m, (sibling_va, target_va), target_va, unmapped)]

    # the sibling shares the target's level-0 slot by design
    config = replace(config, fault_policy=FAULT_RECORD, strict_isolation=False)
    trace = [(0, "R", target_va, None)]
    stats, in_window = {}, {}
    for mode, m, run in run_modes(config, ("control", "active", "passive"), trace, prepare):
        stats[mode] = run
        in_window[mode] = bool(run.faults) and m.lightv.window.contains_pfn(
            run.faults[0].pte_address >> PAGE_SHIFT
        )
    control_faults = len(stats["control"].faults)
    checks = {
        "control_does_not_fault": control_faults == 0,
        "active_fault_in_window": in_window["active"],
        "passive_fault_outside_window": bool(stats["passive"].faults) and not in_window["passive"],
    }
    lines = [f"control (pre-populated) faults: {control_faults}"]
    for mode in ("active", "passive"):
        faults = stats[mode].faults
        pte = f"{faults[0].pte_address:#x}" if faults else "none"
        lines.append(f"{mode} fault pte @ {pte} (watermark window: {in_window[mode]})")
    return Report(stats, checks, lines, "hazard reproduced")


# ---------------------------------------------------------------------------
# isolation hazard
# ---------------------------------------------------------------------------


def run_isolation_hazard(config: MachineConfig) -> Report:
    """Demonstrate why the target range must own its level-0 slot.

    A neighbour page sharing the target's first index mistranslates (here:
    faults at the synthesized intermediate level) once the rewrite is
    active, because the fabricated intermediate chunk only knows targeted
    paths.  Strict activation refuses such a layout outright.
    """
    target_va = 8 << 30
    shared_neighbor_va = (8 << 30) | (1 << 21)  # same index0, different index1
    isolated_neighbor_va = 9 << 30
    stats = {}

    def build(mode):
        m = Machine(replace(config.with_mode(mode), fault_policy=FAULT_RECORD))
        vas = (target_va, shared_neighbor_va, isolated_neighbor_va)
        return m, _map_then_reserve(m, vas, target_va)

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

    checks = {
        "strict_rejected": strict_rejected,
        "deviated": deviated,
        "control_unaffected": control_unaffected,
    }
    lines = [
        f"strict activation rejected: {strict_rejected} ({rejection})",
        f"neighbour baseline pa: {shared_base_pa:#x}",
        f"neighbour under permissive activation: {outcome}",
        f"neighbour deviated: {deviated}",
        f"isolated control unaffected: {control_unaffected}",
    ]
    return Report(stats, checks, lines, "hazard reproduced")


# ---------------------------------------------------------------------------
# page migration
# ---------------------------------------------------------------------------


@dataclass
class MigrationPlan:
    """How many accesses run during the copy and after it, and their seed;
    the page is at `MIGRATED_PAGE_VA`, copied `DMA_CHUNK_BYTES` at a time."""

    accessor_ops: int = 24
    post_ops: int = 8
    seed: int = 0


_DRAW_WORDS = 4096  # `random_bytes` draws at most this many words a round
_NINE_BIT_WORDS = int.from_bytes(b"\xff\x01\x00\x00" * _DRAW_WORDS, "little")


def random_bytes(rng: random.Random, n: int) -> bytes:
    """`bytes(rng.randrange(256) for _ in range(n))`, drawn in bulk.

    Returns the same bytes and leaves `rng` in the same state.  CPython's
    `randrange(256)` draws `getrandbits(9)`, `word >> 23` of one 32-bit
    Mersenne Twister word, until that is below 256.  `getrandbits(32 * k)`
    is k such words, the first least significant: shifted right by 23,
    each word masked to 9 bits and decoded as UTF-32-LE, they are k code
    points 0-511, and a Latin-1 encode that ignores errors drops exactly
    the rejected ones.  A round draws one word per byte still missing (at
    most `_DRAW_WORDS`), so no word past the last kept one is drawn.
    """
    out = b""
    while len(out) < n:
        k = min(n - len(out), _DRAW_WORDS)
        words = (rng.getrandbits(32 * k) >> 23) & _NINE_BIT_WORDS
        out += words.to_bytes(4 * k, "little").decode("utf-32-le").encode("latin-1", "ignore")
    return out


def run_migration(plan: MigrationPlan, config: MachineConfig) -> Report:
    """Copy a live page by DMA chunks while redirecting its translation.

    Accesses issued mid-copy are captured at the coherence level: reads of
    not-yet-copied destination lines are answered with source content, and
    dirty writebacks are mirrored to the source so the trailing DMA copy
    can never clobber newer data.  After the window the source frame is
    poisoned to prove nothing reads it again, and `source_clean` holds if
    no line of it is left in the cache before the final flush.
    """
    m = Machine(config.with_mode("active"))
    rng = random.Random(plan.seed)
    src = m.allocator.alloc()
    dst = m.allocator.alloc()
    src_base, dst_base = src << PAGE_SHIFT, dst << PAGE_SHIFT
    va = MIGRATED_PAGE_VA
    m.register_space(0, [(va, src, ATTR_WRITABLE | ATTR_CACHEABLE)])

    init = random_bytes(rng, PAGE_SIZE)
    m.dram.write_bytes(src_base, init)
    shadow = bytearray(init)
    before = m.tally()
    translate, access = m.mmu.translate, m.cci.access
    reads = []  # per checked read: did it return the latest write?

    def check_read(off):
        reads.append(access(translate(0, va + off), False) == shadow[off])

    for _ in range(4):
        check_read(rng.randrange(PAGE_SIZE))
    translated_to_source_before = translate(0, va) >> PAGE_SHIFT == src

    # open the window: flush source-tagged lines, redirect, capture
    m.invalidate_page_lines(src_base)
    rule = RewriteRule(1, 0, va, va + PAGE_SIZE, dst)
    m.activate_rules([rule])
    line_offs = range(0, PAGE_SIZE, LINE_BYTES)
    m.lightv.begin_page_capture({dst_base + off: src_base + off for off in line_offs})

    # a DMA event names the index of its chunk's first line
    chunk_lines = DMA_CHUNK_BYTES // LINE_BYTES
    events = [("dma", k, 0) for k in range(0, len(line_offs), chunk_lines)]
    for _ in range(plan.accessor_ops):
        pos = rng.randrange(len(events) + 1)
        off = rng.randrange(PAGE_SIZE)
        if rng.random() < 0.5:
            events.insert(pos, ("R", off, 0))
        else:
            events.insert(pos, ("W", off, rng.randrange(256)))

    for kind, arg, value in events:
        if kind == "dma":
            chunk = line_offs[arg : arg + chunk_lines]
            m.dram.dma_copy(dst_base + chunk[0], src_base + chunk[0], len(chunk))
            m.lightv.release_captured([dst_base + off for off in chunk])
        elif kind == "R":
            check_read(arg)
        else:
            access(translate(0, va + arg), True, value)
            shadow[arg] = value
    m.lightv.end_page_capture()

    # the old page is reclaimed; poison it so any lingering reference shows
    m.dram.write_bytes(src_base, b"\xee" * PAGE_SIZE)
    for _ in range(plan.post_ops):
        check_read(rng.randrange(PAGE_SIZE))
    to_destination = translate(0, va) >> PAGE_SHIFT == dst

    source_clean = not any(map(m.cache.lookup, range(src_base, src_base + PAGE_SIZE, LINE_BYTES)))
    m.flush_cache()
    final = m.dram.read_bytes(dst_base, PAGE_SIZE)
    # Equal pages, the usual case, cost one compare; a failing run still
    # gets its per-byte count.
    lost_writes = 0 if final == shadow else sum(map(int.__ne__, final, shadow))
    stale_reads = reads.count(False)
    checks = {
        "no_stale_reads": stale_reads == 0,
        "no_lost_writes": lost_writes == 0,
        "translated_to_source_before": translated_to_source_before,
        "translations_to_destination": to_destination,
        "source_clean": source_clean,
    }
    lines = [
        f"events interleaved: {len(events)}",
        f"reads checked: {len(reads)}, stale: {stale_reads}",
        f"lost writes: {lost_writes}",
        f"translations now resolve to destination: {to_destination}",
        f"source frame unreferenced: {source_clean}",
    ]
    return Report({"active": m.stats_since(before)}, checks, lines, "migration ok")


# ---------------------------------------------------------------------------
# custom trace
# ---------------------------------------------------------------------------


def run_custom_trace(config: MachineConfig, mappings, rules, trace, modes=MODES) -> Report:
    """Replay `trace` in address space 0, mapped by `mappings`, under each
    mode; `rules` are activated in active mode.  The report has no checks
    and no verdict."""

    def prepare(m, _):
        m.register_space(0, mappings)
        return rules

    stats = {mode: run for mode, _, run in run_modes(config, modes, trace, prepare)}
    return Report(stats, {}, _stats_lines(stats))
