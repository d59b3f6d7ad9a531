"""Composition root: DRAM, configuration, wiring, and run orchestration.

A Machine owns one PE cluster (MMU + TLB, and the cache the coherent
interconnect holds and every fabric transaction goes through), sparse
DRAM, and the translation-rewriter agent, which is on the interconnect in
passive and active mode only.
Runs are deterministic: the same configuration and trace produce
bit-identical statistics and memory images.
"""

import hashlib
import json
import struct
from collections import defaultdict
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from typing import Optional

from . import addressing
from .addressing import MAX_MAPPED_PAGES, PAGE_SHIFT, PAGE_SIZE, TranslationFault, hex_field
from .coherence import (
    LINE_BYTES,
    LINE_SHIFT,
    Cache,
    CacheState,
    CoherentInterconnect,
    Counters,
    LatencyConfig,
)
from .lightv import LightV, WatermarkWindow, WM_SPAN_FRAMES
from .mmu import ASID_SHIFT, Mmu, Tlb, WalkMemo

_LINE_MASK = LINE_BYTES - 1
_PAGE_MASK = PAGE_SIZE - 1
_ZERO_LINE = bytes(LINE_BYTES)
_ZERO_FRAME = bytes(PAGE_SIZE)
_DIGEST_RECORD = struct.Struct("<IQBH")

FAULT_ABORT = "abort"
FAULT_RECORD = "record"

# Cache.__init__ builds every set up front, so a config may not ask for more.
MAX_CACHE_SETS = 1 << 16


class ConfigError(ValueError):
    """Invalid machine configuration; message names the offending field."""


class TraceError(ValueError):
    pass


class TraceAbort(RuntimeError):
    """A trace access faulted under the abort policy."""

    def __init__(self, index, asid, va, fault):
        super().__init__(
            f"trace[{index}]: fault at va {va:#x} (level {fault.level},"
            f" pte @ {fault.pte_address:#x})"
        )
        self.index = index
        self.asid = asid
        self.va = va
        self.fault = fault


class AllocatorExhausted(RuntimeError):
    pass


class Dram:
    """Sparse 64-byte-line store; unwritten bytes read as zero.

    Line-granular reads/writes model fabric and DMA traffic and are
    counted, a `dma_copy`'s reads in `dma_reads` as well as in `reads`;
    the qword/byte accessors are the uncounted direct port used for
    table construction, oracles, and debug readback (a qword's address
    must be 8-byte aligned, so it lies in one line).

    `_frames` maps a frame number to its stored lines' addresses, each added
    when `_store`, the one maker of a line, creates it (none is deleted).
    A whole-frame `read_bytes` costs what the frame holds: an empty frame is
    one shared zero frame (safe, as `bytes` is immutable), a full one a join
    of its 64 lines, any other a copy of its stored lines into a zeroed frame.
    """

    def __init__(self, base: int, size: int):
        if base < 0:
            raise ValueError("DRAM base must not be negative")
        if base % PAGE_SIZE or size % PAGE_SIZE or size <= 0:
            raise ValueError("DRAM aperture must be page-aligned and non-empty")
        if base + size > (1 << addressing.PA_BITS):
            raise ValueError("DRAM aperture exceeds the physical address width")
        self.base = base
        self.size = size
        # The aperture's last line: one compare bounds a line port's address.
        self._last_line = base + size - LINE_BYTES
        self._lines = {}
        self._frames = defaultdict(list)
        self.reads = 0
        self.writes = 0
        # The share of `reads` that `dma_copy` made; nothing prices them.
        self.dma_reads = 0
        # The walks `Mmu.translate` replays; a write to a line one of them
        # read (in `_store`), or the fabric filling it into the PE cache,
        # drops them all.
        self.walk_memo = WalkMemo()
        # While a walk is recorded, the list each line read is appended to.
        self.read_log = None

    def contains(self, addr: int, n: int = 1) -> bool:
        """Whether the `n` bytes from `addr` all lie in the aperture (never for n < 0)."""
        return self.base <= addr and 0 <= n and addr + n <= self.base + self.size

    def read_line(self, line_addr: int):
        """The stored line itself, not a copy (a shared zero line when
        unwritten): callers must not mutate it, and one that keeps or edits
        the content, or holds it across a DRAM write, which writes the
        stored line in place, copies it."""
        if not self.base <= line_addr <= self._last_line:
            raise ValueError(f"address outside DRAM aperture: {line_addr:#x}")
        self.reads += 1
        if self.read_log is not None:
            self.read_log.append(line_addr)
        return self._lines.get(line_addr, _ZERO_LINE)

    def _store(self, line_addr: int) -> bytearray:
        """The stored line at `line_addr`, for a write port to write into:
        made zeroed and added to `_frames` on its first write.  Every DRAM
        write comes here, so this is where a write to a line a stored walk
        read drops the walk memo."""
        if line_addr in self.walk_memo.lines:
            self.walk_memo.forget()
        line = self._lines.get(line_addr)
        if line is None:
            line = self._lines[line_addr] = bytearray(LINE_BYTES)
            self._frames[line_addr >> PAGE_SHIFT].append(line_addr)
        return line

    def write_line(self, line_addr: int, payload):
        if not self.base <= line_addr <= self._last_line:
            raise ValueError(f"address outside DRAM aperture: {line_addr:#x}")
        if len(payload) != LINE_BYTES:  # first: a slice assignment would resize the line
            raise ValueError("line payload must be 64 bytes")
        self.writes += 1
        self._store(line_addr)[:] = payload

    def dma_copy(self, dst: int, src: int, n: int):
        """Copy the `n` lines from `src` to the `n` from `dst`, as a DMA
        engine does: through `read_line` and `write_line`, each read also
        counted in `dma_reads`."""
        for off in range(0, n * LINE_BYTES, LINE_BYTES):
            line = self.read_line(src + off)
            self.dma_reads += 1
            self.write_line(dst + off, line)

    def read_qword(self, addr: int) -> int:
        if not (self.base <= addr and addr + 8 <= self.base + self.size):
            raise ValueError(f"address outside DRAM aperture: {addr:#x}")
        if addr & 7:
            raise ValueError(f"qword address not 8-byte aligned: {addr:#x}")
        line = self._lines.get(addr & ~_LINE_MASK)
        if line is None:
            return 0
        off = addr & _LINE_MASK
        return int.from_bytes(line[off : off + 8], "little")

    def write_qword(self, addr: int, value: int):
        if not (self.base <= addr and addr + 8 <= self.base + self.size):
            raise ValueError(f"address outside DRAM aperture: {addr:#x}")
        if addr & 7:
            raise ValueError(f"qword address not 8-byte aligned: {addr:#x}")
        off = addr & _LINE_MASK
        self._store(addr - off)[off : off + 8] = value.to_bytes(8, "little")

    def read_bytes(self, addr: int, n: int) -> bytes:
        if not self.contains(addr, n):
            raise ValueError(f"address outside DRAM aperture: {addr:#x}")
        if n == PAGE_SIZE and not addr & _PAGE_MASK:
            stored = self._frames.get(addr >> PAGE_SHIFT)
            if stored is None:
                return _ZERO_FRAME
            whole = range(addr, addr + PAGE_SIZE, LINE_BYTES)
            if len(stored) == len(whole):
                return b"".join(map(self._lines.__getitem__, whole))
            frame = bytearray(PAGE_SIZE)
            for line_addr in stored:
                frame[line_addr - addr : line_addr - addr + LINE_BYTES] = self._lines[line_addr]
            return bytes(frame)
        first = addr & ~_LINE_MASK
        lines = range(first, addr + n, LINE_BYTES)
        data = b"".join(map(self._lines.get, lines, repeat(_ZERO_LINE)))
        return data[addr - first : addr - first + n]

    def write_bytes(self, addr: int, data: bytes):
        if not self.contains(addr, len(data)):
            raise ValueError(f"address outside DRAM aperture: {addr:#x}")
        end = addr + len(data)
        view = memoryview(data)  # slices of a view copy nothing
        for line_addr in range(addr & ~_LINE_MASK, end, LINE_BYTES):
            lo = addr if addr > line_addr else line_addr
            hi = end if end < line_addr + LINE_BYTES else line_addr + LINE_BYTES
            self._store(line_addr)[lo - line_addr : hi - line_addr] = view[lo - addr : hi - addr]

    def content_digest(self) -> str:
        h = hashlib.sha256()
        for line_addr in sorted(self._lines):
            payload = self._lines[line_addr]
            if any(payload):
                h.update(line_addr.to_bytes(8, "little"))
                h.update(payload)
        return h.hexdigest()


_EXHAUSTED = "no free frames left in the DRAM aperture"


class FrameAllocator:
    """Bump allocator handing out 4 KB frames from the DRAM aperture."""

    def __init__(self, dram: Dram):
        self._next = dram.base >> PAGE_SHIFT
        self._limit = (dram.base + dram.size) >> PAGE_SHIFT

    @property
    def next_pfn(self) -> int:
        return self._next

    def alloc(self) -> int:
        return self.alloc_run(1).start

    def alloc_run(self, n: int) -> range:
        """`n` consecutive frames, the ones `n` calls of `alloc` would hand
        out; none at all when fewer than `n` are left."""
        if self._next + n > self._limit:
            raise AllocatorExhausted(_EXHAUSTED)
        run = range(self._next, self._next + n)
        self._next += n
        return run


@dataclass
class MachineConfig:
    dram_base: int = 0x8000_0000
    dram_size: int = 0x8000_0000
    watermark_base_pfn: int = 0x20_0000
    cache_sets: int = 256
    cache_ways: int = 4
    tlb_entries: int = 64
    latencies: LatencyConfig = field(default_factory=LatencyConfig)
    mode: str = "absent"
    cache_ptes: bool = False
    fault_policy: str = FAULT_ABORT
    strict_isolation: bool = True
    debug_tlb_check: bool = False

    def validate(self):
        try:
            Dram(self.dram_base, self.dram_size)
        except ValueError as exc:
            raise ConfigError(f"dram_base/dram_size: {exc}") from None
        try:
            window = WatermarkWindow(self.watermark_base_pfn)
        except ValueError as exc:
            raise ConfigError(f"watermark_base_pfn: {exc}") from None
        lo = self.watermark_base_pfn << PAGE_SHIFT
        hi = (self.watermark_base_pfn + WM_SPAN_FRAMES) << PAGE_SHIFT
        if lo < self.dram_base + self.dram_size and self.dram_base < hi:
            raise ConfigError(
                "watermark_base_pfn: watermark window overlaps the DRAM aperture"
            )
        if self.cache_sets <= 0 or self.cache_sets & (self.cache_sets - 1):
            raise ConfigError("cache_sets: must be a power of two")
        if self.cache_sets > MAX_CACHE_SETS:
            raise ConfigError(f"cache_sets: at most {MAX_CACHE_SETS}")
        if self.cache_ways <= 0:
            raise ConfigError("cache_ways: must be positive")
        if self.tlb_entries < 0:
            raise ConfigError("tlb_entries: must be >= 0")
        try:
            self.latencies.validate()
        except ValueError as exc:
            raise ConfigError(f"latencies: {exc}") from None
        if self.mode not in ("absent", "passive", "active"):
            raise ConfigError(f"mode: unknown mode {self.mode!r}")
        if self.fault_policy not in (FAULT_ABORT, FAULT_RECORD):
            raise ConfigError(f"fault_policy: unknown policy {self.fault_policy!r}")
        return window

    def to_dict(self) -> dict:
        """Every field but `mode`, which the CLI sets for each machine it
        builds (`with_mode`), so a config file has no `mode` key."""
        return {
            "dram_base": hex(self.dram_base),
            "dram_size": hex(self.dram_size),
            "watermark_base_pfn": hex(self.watermark_base_pfn),
            "geometry": {
                "cache_sets": self.cache_sets,
                "cache_ways": self.cache_ways,
                "line_bytes": LINE_BYTES,
            },
            "tlb_entries": self.tlb_entries,
            "latencies": vars(self.latencies).copy(),
            "cache_ptes": self.cache_ptes,
            "fault_policy": self.fault_policy,
            "strict_isolation": self.strict_isolation,
            "debug_tlb_check": self.debug_tlb_check,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MachineConfig":
        """The config a JSON object describes, in `to_dict`'s layout.

        Strict: `geometry` and `latencies` must be objects, the flags JSON
        bools, and every number an int or an int string ("0x" accepted);
        an unknown key is an error.  Every failure is a ConfigError.
        """

        def obj(value, where):
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: expected a JSON object")
            return value

        def num(value, where):
            if isinstance(value, int) and not isinstance(value, bool):
                return value
            try:
                return int(value, 0)
            except (TypeError, ValueError):
                raise ConfigError(f"{where}: expected an integer, got {value!r}") from None

        cfg = cls()
        defaults = cfg.to_dict()
        for key in obj(data, "config"):
            if key not in defaults:
                raise ConfigError(f"{key}: unknown config key")
        geometry = obj(data.get("geometry", {}), "geometry")
        for key in geometry:
            if key not in defaults["geometry"]:
                raise ConfigError(f"geometry.{key}: unknown geometry key")
        line_bytes = geometry.get("line_bytes", LINE_BYTES)
        if num(line_bytes, "geometry.line_bytes") != LINE_BYTES:
            raise ConfigError("geometry.line_bytes: only 64-byte lines are modeled")
        for key in ("cache_sets", "cache_ways"):
            if key in geometry:
                setattr(cfg, key, num(geometry[key], f"geometry.{key}"))
        for key in ("dram_base", "dram_size", "watermark_base_pfn", "tlb_entries"):
            if key in data:
                setattr(cfg, key, num(data[key], key))
        if "latencies" in data:
            lat = vars(cfg.latencies).copy()
            for k, v in obj(data["latencies"], "latencies").items():
                if k not in lat:
                    raise ConfigError(f"latencies.{k}: unknown latency")
                lat[k] = num(v, f"latencies.{k}")
            cfg.latencies = LatencyConfig(**lat)
        if "fault_policy" in data:
            cfg.fault_policy = data["fault_policy"]
        for key in ("cache_ptes", "strict_isolation", "debug_tlb_check"):
            if key in data:
                if not isinstance(data[key], bool):
                    raise ConfigError(f"{key}: expected true or false, got {data[key]!r}")
                setattr(cfg, key, data[key])
        cfg.validate()
        return cfg

    def with_mode(self, mode: str) -> "MachineConfig":
        return replace(self, mode=mode, latencies=replace(self.latencies))


def load_config(path: str) -> MachineConfig:
    """The config of a JSON file; a file that is not UTF-8, not JSON, or
    nested too deeply to decode is a ConfigError."""
    with open(path) as f:
        try:
            data = json.load(f)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config file: {exc}") from None
    return MachineConfig.from_dict(data)


@dataclass(frozen=True)
class FaultRecord:
    index: int
    asid: int
    va: int
    level: int
    pte_address: int


@dataclass
class RunStats:
    """One run's statistics.  The fields before `faults` are the reported
    statistics, in report order (`STATS_COLUMNS`)."""

    total_cycles: int
    data_hits: int
    data_misses: int
    walk_reads: int
    snoops_issued: int
    snoops_acked: int
    dram_reads: int
    dram_writes: int
    lines_manipulated: int
    faults: tuple = ()

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in STATS_COLUMNS}

    def text(self) -> str:
        width = max(len(n) for n in STATS_COLUMNS)
        lines = [f"  {n:<{width}} {getattr(self, n)}" for n in STATS_COLUMNS]
        if self.faults:
            lines.append(f"  {'faults':<{width}} {len(self.faults)}")
        return "\n".join(lines)


STATS_COLUMNS = tuple(f.name for f in fields(RunStats) if f.name != "faults")


@dataclass
class OverheadReport:
    cycles_base: int
    cycles_other: int
    relative: float

    def text(self, label: str) -> str:
        return (
            f"{label}: {self.cycles_other} vs {self.cycles_base} cycles,"
            f" overhead {self.relative * 100:+.4f}%"
        )


def compare_runs(stats_a: RunStats, stats_b: RunStats) -> OverheadReport:
    """Relative cycle overhead of run b over run a; the caller ran the same
    trace on both (`run_modes` runs one trace on every mode)."""
    relative = (
        (stats_b.total_cycles - stats_a.total_cycles) / stats_a.total_cycles
        if stats_a.total_cycles
        else 0.0
    )
    return OverheadReport(stats_a.total_cycles, stats_b.total_cycles, relative)


def trace_digest(trace) -> str:
    """SHA-256 over the accesses of `trace`, one `_DIGEST_RECORD` each."""
    pack = _DIGEST_RECORD.pack
    records = [pack(asid, va, op == "W", (value or 0) & 0xFFFF) for asid, op, va, value in trace]
    return hashlib.sha256(b"".join(records)).hexdigest()


def _trace_access(fields):
    op = fields[1].upper()
    if op not in ("R", "W"):
        raise ValueError("op must be R or W")
    asid, va = hex_field(fields[0]), hex_field(fields[2])
    value = hex_field(fields[3]) if len(fields) == 4 else None
    if op == "W" and value is None:
        raise ValueError("write needs a data byte")
    if op == "R" and value is not None:
        raise ValueError("a read takes no data byte")
    if not 0 <= asid < 1 << 32:
        raise ValueError(f"asid {fields[0]} outside 32 bits")
    if not 0 <= va < 1 << addressing.VA_BITS:
        raise ValueError(f"va {fields[2]} outside {addressing.VA_BITS} bits")
    if value is not None and not 0 <= value <= 0xFF:
        raise ValueError(f"data {fields[3]} outside 8 bits")
    return asid, op, va, value


def iter_trace(lines):
    """Yield the access of each trace line, `asid op va [data]`: ops R/W
    (a write with its data byte, a read without), hex fields (see
    `addressing.read_records`).  A bad line raises TraceError when it is
    reached."""
    return addressing.read_records(lines, "asid op va [data]", TraceError, _trace_access)


# An access's trace line, as a `%` template over its four fields (asid, op,
# va, value) keyed by op, `%.0s` taking a field and printing nothing; any op
# but "W" is written as a read.  A writer of many accesses can join their
# templates and format all their fields with one `%`.
LINE_TEMPLATES = {"W": "%#x W%.0s %#x %#x\n"}
READ_TEMPLATE = "%#x R%.0s %#x%.0s\n"


def format_access(access) -> str:
    """One trace line, newline included, in the format `iter_trace` reads."""
    return LINE_TEMPLATES.get(access[1], READ_TEMPLATE) % tuple(access)


class Machine:
    """One fully wired simulator instance."""

    def __init__(self, config: MachineConfig):
        window = config.validate()
        self.config = config
        self.counters = Counters(config.latencies)
        self.dram = Dram(config.dram_base, config.dram_size)
        self.allocator = FrameAllocator(self.dram)
        self.cache = Cache(config.cache_sets, config.cache_ways)
        self.cci = CoherentInterconnect(self.dram, self.counters, self.cache)
        self.spaces = {}
        self.tlb = Tlb(config.tlb_entries)
        # Built in every mode; only passive and active mode plug it into the
        # fabric, where with no rules it NACKs every snoop.
        self.lightv = LightV(window, self.dram, config.latencies, self.spaces)
        if config.mode != "absent":
            self.cci.register_agent(self.lightv.handle_snoop)
            self.cci.writeback_hook = self.lightv.on_writeback
        self.mmu = Mmu(
            self.cci, self.tlb, self.spaces, self.lightv, config.cache_ptes, config.debug_tlb_check
        )

    def register_space(self, asid: int, mappings) -> addressing.AddressSpace:
        """Build the page tables of a new address space from (va, pfn,
        attrs) mappings (see `addressing.build_tables`).

        The tables take one frame for the level-0 table and one per distinct
        level-0 and level-1 prefix, which the bump allocator hands out as one
        run from `next_pfn`.  Before the first is taken, the asid must be a new
        32-bit one, there may be at most `MAX_MAPPED_PAGES` mappings, the run
        must fit in the aperture, no line of an open capture window may lie in
        it, and every mapping must be valid (`build_tables` checks them all
        first): a call that raises leaves the machine as it found it.  The
        build reads one entry per table it links and writes one per table and
        per mapping (each prefix is resolved once).
        """
        if not 0 <= asid < 1 << 32:
            raise addressing.MappingError(f"asid {asid:#x} outside 32 bits")
        if asid in self.spaces:
            raise addressing.MappingError(f"asid {asid} is already registered")
        mappings = list(mappings)
        if len(mappings) > MAX_MAPPED_PAGES:
            raise addressing.MappingError(
                f"{len(mappings)} mappings, more than the {MAX_MAPPED_PAGES} pages"
                " one address space may map"
            )
        prefixes = {va >> 21 for va, _, _ in mappings}  # (index0, index1) of each page
        count = 1 + len({prefix >> 9 for prefix in prefixes}) + len(prefixes)
        tables = range(self.allocator.next_pfn, self.allocator.next_pfn + count)
        if not self.dram.contains(tables.start << PAGE_SHIFT, count << PAGE_SHIFT):
            raise AllocatorExhausted(_EXHAUSTED)
        mirror = self.lightv._mirror
        for line in (*mirror, *mirror.values()):
            if line >> PAGE_SHIFT in tables:
                raise addressing.MappingError(
                    f"capture line {line:#x} lies in a page table of asid {asid}"
                )
        space = addressing.build_tables(mappings, self.dram, self.allocator, asid)
        self.spaces[asid] = space
        return space

    def activate_rules(self, rules, strict: Optional[bool] = None):
        if self.config.mode != "active":
            raise RuntimeError(f"machine mode is {self.config.mode!r}, not active")
        if strict is None:
            strict = self.config.strict_isolation
        self._invalidate(*self.lightv.activate(rules, strict=strict))

    def deactivate_rule(self, rule_id: int):
        if self.config.mode != "active":
            raise RuntimeError(f"machine mode is {self.config.mode!r}, not active")
        self._invalidate(*self.lightv.deactivate(rule_id))

    def _invalidate(self, tlb_ranges, lines):
        for asid, va_start, va_end in tlb_ranges:
            self.tlb.invalidate_range(asid, va_start, va_end)
        self.cci.invalidate_line(*lines)

    def flush_cache(self):
        self.cci.flush()

    def invalidate_page_lines(self, pa_base: int):
        self._invalidate((), range(pa_base, pa_base + PAGE_SIZE, LINE_BYTES))

    def read_frame(self, pfn: int) -> bytes:
        return self.dram.read_bytes(pfn << PAGE_SHIFT, PAGE_SIZE)

    def tally(self) -> dict:
        """Running totals of every reported statistic, and of the other
        fabric counters; `stats_since` turns two of them into a RunStats."""
        totals = self.counters.snapshot()
        totals.update(
            dram_reads=self.dram.reads,
            dram_writes=self.dram.writes,
            lines_manipulated=self.lightv.lines_manipulated,
        )
        return totals

    def stats_since(self, before: dict, faults=()) -> RunStats:
        """Statistics of the work done since `before = self.tally()`."""
        now = self.tally()
        return RunStats(
            **{name: now[name] - before[name] for name in STATS_COLUMNS},
            faults=tuple(faults),
        )

    def run_trace(self, trace) -> RunStats:
        """Execute a sequence of accesses in order, returning this run's
        statistics; faults follow the configured policy (see `replay`)."""
        before = self.tally()
        faults = []
        self.replay(trace, 0, faults)
        return self.stats_since(before, faults)

    def replay(self, chunk, start_index: int, faults: list):
        """Execute the accesses of `chunk`, the first of which has trace
        index `start_index`.

        Faults follow the configured policy: `abort` raises TraceAbort,
        `record` appends a FaultRecord to `faults` and continues.  The loop
        keeps no per-access index.  Before each `translate` call, `done`
        adds the inline hits since the last call plus this access, so it
        counts the accesses run so far, and a fault's index is
        `start_index + done - 1`.

        This is the hit path: a TLB hit followed by a PE-cache hit is
        resolved inline, with the LRU and counter updates the layers below
        would make; like them, it prices no cycles.  Every other access (a
        TLB miss, a cache miss, a write to a SHARED line, or any access while
        `debug_tlb_check` is on) calls `Mmu.translate`, then
        `CoherentInterconnect.access`, the fabric's data transaction.  Hits
        are tallied in a local and added to `data_hits` before each such
        call and when the loop ends, so every callee sees the counts (and so
        `total_cycles`) of a one-access-at-a-time run.

        The loop remembers the last two lines it resolved inline, `last` and
        the older `prev` (asid, virtual line and page, TLB key (`asid <<
        ASID_SHIFT | page`), frame base, cache line and set), and serves an
        access to either with no lookup (a write to a SHARED line excepted).  A
        hit on `last` touches nothing.  A hit on `prev` swaps the two, moves
        the line to the end of its set only if that is `last`'s set, and owes
        its TLB touch: while `stale`, the TLB ends with `prev`'s key, not
        `last`'s.  The debt is paid before a TLB hit on any page but `prev`'s,
        before each `translate` call and at the end; a TLB hit on `prev`'s page
        needs neither it nor a touch of its own.  An access to `prev`'s page on
        another line reuses its TLB key and frame base, since only `translate`
        changes the TLB; an out-of-range page is never probed.  The memo starts
        empty in each call, is cleared before every `translate` call, which
        (with the data transaction after it) may evict, invalidate or fault,
        and is never set while `debug_tlb_check` is on.
        """
        counters = self.counters
        translate, access = self.mmu.translate, self.cci.access
        tlb_touch = self.tlb._entries.move_to_end
        # With the debug check on, every TLB hit must reach `translate`.
        tlb_get = {}.get if self.config.debug_tlb_check else self.tlb._entries.get
        sets, set_mask = self.cache._sets, self.cache._set_mask
        record = self.config.fault_policy == FAULT_RECORD
        # Local names for the constants the loop reads on every access.
        page_shift, page_mask, asid_shift = PAGE_SHIFT, _PAGE_MASK, ASID_SHIFT
        line_shift, line_mask, line_base = LINE_SHIFT, _LINE_MASK, ~_LINE_MASK
        shared, modified = CacheState.SHARED, CacheState.MODIFIED
        last_asid = last_vline = last_page = last_key = last_base = last_line = last_ways = None
        prev_asid = prev_vline = prev_page = prev_key = prev_base = prev_line = prev_ways = None
        stale = False
        hits = done = 0
        try:
            for asid, op, va, value in chunk:
                write = op == "W"
                if write:
                    value &= 0xFF  # a missing value fails here, before any state moves
                vline = va >> line_shift
                if vline == last_vline and asid == last_asid and not (
                    write and last_line.state is shared
                ):
                    hits += 1
                    if write:
                        last_line.payload[va & line_mask] = value
                        last_line.state = modified
                    continue
                if vline == prev_vline and asid == prev_asid and not (
                    write and prev_line.state is shared
                ):
                    hits += 1
                    if write:
                        prev_line.payload[va & line_mask] = value
                        prev_line.state = modified
                    if prev_ways is last_ways:
                        prev_ways.move_to_end(prev_line.tag)
                    if prev_key != last_key:
                        stale = not stale
                    last_asid, prev_asid = prev_asid, last_asid
                    last_vline, prev_vline = prev_vline, last_vline
                    last_page, prev_page = prev_page, last_page
                    last_key, prev_key = prev_key, last_key
                    last_base, prev_base = prev_base, last_base
                    last_line, prev_line = prev_line, last_line
                    last_ways, prev_ways = prev_ways, last_ways
                    continue
                # Only an in-range page is ever a TLB key: any other page
                # (a negative one too) is not probed, and `translate` rejects it.
                page = va >> page_shift
                if page == prev_page and asid == prev_asid:
                    key, base = prev_key, prev_base
                else:
                    key = asid << asid_shift | page
                    hit = None if page >> asid_shift else tlb_get(key)
                    base = None if hit is None else hit[0] << page_shift
                if base is not None:
                    pa = base | (va & page_mask)
                    line_addr = pa & line_base
                    ways = sets[(pa >> line_shift) & set_mask]
                    line = ways.get(line_addr)
                    # Only the fabric fills the cache, so on a hit its
                    # `started` flag is already set.  The walk memo relies
                    # on this too: the fabric's fills are what drop it.
                    if line is not None and not (write and line.state is shared):
                        if not stale:
                            tlb_touch(key)
                        elif key != prev_key:
                            tlb_touch(last_key)
                            tlb_touch(key)
                        stale = False
                        ways.move_to_end(line_addr)
                        hits += 1
                        if write:
                            line.payload[va & line_mask] = value
                            line.state = modified
                        prev_asid, last_asid = last_asid, asid
                        prev_vline, last_vline = last_vline, vline
                        prev_page, last_page = last_page, page
                        prev_key, last_key = last_key, key
                        prev_base, last_base = last_base, base
                        prev_line, last_line = last_line, line
                        prev_ways, last_ways = last_ways, ways
                        continue
                if stale:
                    tlb_touch(last_key)
                    stale = False
                # `last_page` too: the next line resolved shifts it to `prev_page`.
                last_vline = last_page = prev_vline = prev_page = None
                done += hits + 1
                counters.data_hits += hits
                hits = 0
                try:
                    access(translate(asid, va), write, value)
                except TranslationFault as fault:
                    index = start_index + done - 1
                    if not record:
                        raise TraceAbort(index, asid, va, fault) from None
                    faults.append(
                        FaultRecord(index, asid, va, fault.level, fault.pte_address)
                    )
        finally:
            if stale:
                tlb_touch(last_key)
            counters.data_hits += hits
