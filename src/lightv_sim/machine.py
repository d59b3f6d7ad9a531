"""Composition root: DRAM, configuration, wiring, and run orchestration.

A Machine owns one PE cluster (cache + MMU + TLB), the coherent
interconnect, sparse DRAM, and optionally the translation-rewriter agent.
Runs are deterministic: the same configuration and trace produce
bit-identical statistics and memory images.
"""

import functools
import hashlib
import json
import struct
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from . import addressing
from .addressing import PAGE_SHIFT, PAGE_SIZE, TranslationFault
from .coherence import (
    LINE_BYTES,
    Cache,
    CoherentInterconnect,
    Counters,
    LatencyConfig,
)
from .lightv import LightV, WatermarkWindow, WM_SPAN_FRAMES
from .mmu import Mmu, Tlb

_LINE_MASK = LINE_BYTES - 1
_ZERO_LINE = bytes(LINE_BYTES)

FAULT_ABORT = "abort"
FAULT_RECORD = "record"


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


class SimClock:
    """Cycle counter; the fabric and the MMU add their charges to `now`."""

    def __init__(self):
        self.now = 0


class Dram:
    """Sparse 64-byte-line store; unwritten bytes read as zero.

    Line-granular reads/writes model fabric traffic and are counted;
    the qword/byte accessors are the uncounted direct port used for
    table construction, oracles, and debug readback.
    """

    def __init__(self, base: int, size: int):
        if base % PAGE_SIZE or size % PAGE_SIZE or size <= 0:
            raise ValueError("DRAM aperture must be page-aligned and non-empty")
        if base + size > (1 << addressing.PA_BITS):
            raise ValueError("DRAM aperture exceeds the physical address width")
        self.base = base
        self.size = size
        self._lines = {}
        self.reads = 0
        self.writes = 0

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    def contains_line(self, line_addr: int) -> bool:
        return self.base <= line_addr and line_addr + LINE_BYTES <= self.base + self.size

    def _check(self, addr: int, n: int = 1):
        if not (self.base <= addr and addr + n <= self.base + self.size):
            raise ValueError(f"address outside DRAM aperture: {addr:#x}")

    def read_line(self, line_addr: int):
        """The stored line itself, not a copy (a shared zero line when
        unwritten): callers must not mutate it, and one that keeps or
        edits the content copies it."""
        self._check(line_addr, LINE_BYTES)
        self.reads += 1
        return self._lines.get(line_addr, _ZERO_LINE)

    def write_line(self, line_addr: int, payload):
        self._check(line_addr, LINE_BYTES)
        if len(payload) != LINE_BYTES:
            raise ValueError("line payload must be 64 bytes")
        self.writes += 1
        self._lines[line_addr] = bytearray(payload)

    def read_qword(self, addr: int) -> int:
        self._check(addr, 8)
        line = self._lines.get(addr & ~_LINE_MASK)
        if line is None:
            return 0
        off = addr & _LINE_MASK
        return int.from_bytes(line[off : off + 8], "little")

    def write_qword(self, addr: int, value: int):
        self._check(addr, 8)
        line_addr = addr & ~_LINE_MASK
        line = self._lines.get(line_addr)
        if line is None:
            line = self._lines[line_addr] = bytearray(LINE_BYTES)
        off = addr & _LINE_MASK
        line[off : off + 8] = value.to_bytes(8, "little")

    def read_bytes(self, addr: int, n: int) -> bytes:
        self._check(addr, n)
        first = addr & ~_LINE_MASK
        get = self._lines.get
        data = b"".join(get(a, _ZERO_LINE) for a in range(first, addr + n, LINE_BYTES))
        return data[addr - first : addr - first + n]

    def write_bytes(self, addr: int, data: bytes):
        self._check(addr, len(data))
        for i, b in enumerate(data):
            a = addr + i
            line_addr = a & ~_LINE_MASK
            line = self._lines.get(line_addr)
            if line is None:
                line = self._lines[line_addr] = bytearray(LINE_BYTES)
            line[a & _LINE_MASK] = b

    def content_digest(self) -> str:
        h = hashlib.sha256()
        for line_addr in sorted(self._lines):
            payload = self._lines[line_addr]
            if any(payload):
                h.update(line_addr.to_bytes(8, "little"))
                h.update(payload)
        return h.hexdigest()

    def clone(self) -> "Dram":
        """Deep copy of the current image (counters reset)."""
        other = Dram(self.base, self.size)
        other._lines = {addr: bytearray(line) for addr, line in self._lines.items()}
        return other


class FrameAllocator:
    """Bump allocator handing out 4 KB frames from the DRAM aperture."""

    def __init__(self, dram: Dram, start_pfn: Optional[int] = None):
        self.dram = dram
        self._next = start_pfn if start_pfn is not None else dram.base >> PAGE_SHIFT
        self._limit = (dram.base + dram.size) >> PAGE_SHIFT
        self.allocated = 0

    @property
    def next_pfn(self) -> int:
        return self._next

    def alloc(self) -> int:
        if self._next >= self._limit:
            raise AllocatorExhausted("no free frames left in the DRAM aperture")
        pfn = self._next
        self._next += 1
        self.allocated += 1
        return pfn


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
        d = {
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
            "mode": self.mode,
            "cache_ptes": self.cache_ptes,
            "fault_policy": self.fault_policy,
            "strict_isolation": self.strict_isolation,
            "debug_tlb_check": self.debug_tlb_check,
        }
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "MachineConfig":
        def num(value):
            return int(value, 0) if isinstance(value, str) else int(value)

        cfg = cls()
        geometry = data.get("geometry", {})
        if "line_bytes" in geometry and num(geometry["line_bytes"]) != LINE_BYTES:
            raise ConfigError("geometry.line_bytes: only 64-byte lines are modeled")
        if "cache_sets" in geometry:
            cfg.cache_sets = num(geometry["cache_sets"])
        if "cache_ways" in geometry:
            cfg.cache_ways = num(geometry["cache_ways"])
        for key in ("dram_base", "dram_size", "watermark_base_pfn", "tlb_entries"):
            if key in data:
                setattr(cfg, key, num(data[key]))
        if "latencies" in data:
            lat = vars(cfg.latencies).copy()
            for k, v in data["latencies"].items():
                if k not in lat:
                    raise ConfigError(f"latencies.{k}: unknown latency")
                lat[k] = num(v)
            cfg.latencies = LatencyConfig(**lat)
        for key in ("mode", "fault_policy"):
            if key in data:
                setattr(cfg, key, data[key])
        for key in ("cache_ptes", "strict_isolation", "debug_tlb_check"):
            if key in data:
                setattr(cfg, key, bool(data[key]))
        cfg.validate()
        return cfg

    def with_mode(self, mode: str) -> "MachineConfig":
        return replace(self, mode=mode, latencies=replace(self.latencies))


def load_config(path: str) -> MachineConfig:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
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
    """One run's statistics.  The fields before `trace_digest` are the
    reported statistics, in report order (`STATS_COLUMNS`)."""

    total_cycles: int
    data_hits: int
    data_misses: int
    walk_reads: int
    snoops_issued: int
    snoops_acked: int
    dram_reads: int
    dram_writes: int
    lines_manipulated: int
    trace_digest: str
    faults: tuple = ()

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in STATS_COLUMNS}

    def text(self) -> str:
        width = max(len(n) for n in STATS_COLUMNS)
        lines = [f"  {n:<{width}} {getattr(self, n)}" for n in STATS_COLUMNS]
        if self.faults:
            lines.append(f"  {'faults':<{width}} {len(self.faults)}")
        return "\n".join(lines)


STATS_COLUMNS = tuple(
    f.name for f in fields(RunStats) if f.name not in ("trace_digest", "faults")
)


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
    """Relative cycle overhead of run b over run a (same trace required)."""
    if stats_a.trace_digest != stats_b.trace_digest:
        raise ValueError("runs executed different traces")
    relative = (
        (stats_b.total_cycles - stats_a.total_cycles) / stats_a.total_cycles
        if stats_a.total_cycles
        else 0.0
    )
    return OverheadReport(stats_a.total_cycles, stats_b.total_cycles, relative)


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    pack = struct.Struct("<IQBH").pack
    for asid, op, va, value in trace:
        h.update(pack(asid, va, 1 if op == "W" else 0, (value or 0) & 0xFFFF))
    return h.hexdigest()


def parse_trace(text: str):
    """Parse trace lines: `asid op va [data]`, ops R/W, hex fields."""
    trace = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) not in (3, 4):
            raise TraceError(f"line {lineno}: expected 'asid op va [data]'")
        op = parts[1].upper()
        if op not in ("R", "W"):
            raise TraceError(f"line {lineno}: op must be R or W")
        try:
            asid = addressing._hex_field(parts[0])
            va = addressing._hex_field(parts[2])
            value = addressing._hex_field(parts[3]) if len(parts) == 4 else None
        except ValueError as exc:
            raise TraceError(f"line {lineno}: {exc}") from None
        if op == "W" and value is None:
            raise TraceError(f"line {lineno}: write needs a data byte")
        trace.append((asid, op, va, value))
    return trace


def format_trace(trace) -> str:
    lines = []
    for asid, op, va, value in trace:
        if op == "W":
            lines.append(f"{asid:#x} W {va:#x} {value:#x}")
        else:
            lines.append(f"{asid:#x} R {va:#x}")
    return "\n".join(lines) + ("\n" if lines else "")


def _real_translation(spaces: dict, dram: Dram, asid: int, va: int):
    """Physical address a fresh walk of the real tables gives, or None."""
    try:
        return addressing.reference_walk(spaces[asid], va, dram)
    except TranslationFault:
        return None


class Machine:
    """One fully wired simulator instance."""

    def __init__(self, config: MachineConfig):
        window = config.validate()
        self.config = config
        self.clock = SimClock()
        self.counters = Counters()
        self.dram = Dram(config.dram_base, config.dram_size)
        self.allocator = FrameAllocator(self.dram)
        self.cache = Cache(config.cache_sets, config.cache_ways)
        self.cci = CoherentInterconnect(
            self.dram, config.latencies, self.counters, self.clock
        )
        self.spaces = {}
        self.tlb = Tlb(config.tlb_entries)
        self.lightv = None
        if config.mode in ("passive", "active"):
            self.lightv = LightV(window, self.dram, config.latencies, self.spaces)
            self.cci.register_agent(self.lightv.handle_snoop)
            self.cci.writeback_hook = self.lightv.on_writeback
        self.mmu = Mmu(
            self.cci,
            self.cache,
            self.tlb,
            self.spaces,
            cache_ptes=config.cache_ptes,
            debug_tlb_check=config.debug_tlb_check,
            # Neither refers back to the machine, so dropping the last
            # reference to a machine frees it without a cyclic collection.
            expected_translation=(
                self.lightv.expected_pa
                if self.lightv is not None
                else functools.partial(_real_translation, self.spaces, self.dram)
            ),
        )

    def register_space(self, asid: int, mappings) -> addressing.AddressSpace:
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
        self._invalidate(*self.lightv.deactivate(rule_id))

    def _invalidate(self, tlb_ranges, lines):
        for asid, va_start, va_end in tlb_ranges:
            self.tlb.invalidate_range(asid, va_start, va_end)
        for line in lines:
            self.cci.invalidate_line(self.cache, line)

    def mem_read(self, asid: int, va: int) -> int:
        return self.mmu.access(asid, va)

    def mem_write(self, asid: int, va: int, value: int):
        self.mmu.access(asid, va, True, value)

    def flush_cache(self):
        self.cci.flush(self.cache)

    def invalidate_page_lines(self, pa_base: int):
        for k in range(PAGE_SIZE // LINE_BYTES):
            self.cci.invalidate_line(self.cache, pa_base + (k << 6))

    def read_frame(self, pfn: int) -> bytes:
        return self.dram.read_bytes(pfn << PAGE_SHIFT, PAGE_SIZE)

    def tally(self) -> dict:
        """Running totals of every reported statistic, and of the other
        fabric counters; `stats_since` turns two of them into a RunStats."""
        totals = self.counters.snapshot()
        totals.update(
            total_cycles=self.clock.now,
            dram_reads=self.dram.reads,
            dram_writes=self.dram.writes,
            lines_manipulated=self.lightv.lines_manipulated if self.lightv else 0,
        )
        return totals

    def stats_since(self, before: dict, digest: str, faults=()) -> RunStats:
        """Statistics of the work done since `before = self.tally()`."""
        now = self.tally()
        return RunStats(
            **{name: now[name] - before[name] for name in STATS_COLUMNS},
            trace_digest=digest,
            faults=tuple(faults),
        )

    def run_trace(self, trace, digest: Optional[str] = None) -> RunStats:
        """Execute accesses in order, returning this run's statistics.

        Faults follow the configured policy: `abort` raises TraceAbort,
        `record` logs a FaultRecord and continues.
        """
        before = self.tally()
        faults = []
        record = self.config.fault_policy == FAULT_RECORD
        access = self.mmu.access
        for index, (asid, op, va, value) in enumerate(trace):
            try:
                access(asid, va, op == "W", value)
            except TranslationFault as fault:
                if not record:
                    raise TraceAbort(index, asid, va, fault) from None
                faults.append(
                    FaultRecord(index, asid, va, fault.level, fault.pte_address)
                )
        if digest is None:
            digest = trace_digest(trace)
        return self.stats_since(before, digest, faults)
