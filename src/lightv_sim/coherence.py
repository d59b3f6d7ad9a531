"""MESI cache and the snoop-broadcast interconnect it hangs off.

One PE-side cache is modeled; additional coherent agents (the translation
rewriter, test doubles) register with the interconnect.  An agent is a
plain callable, `agent(line_addr)`, that returns None to NACK the snoop or
`(payload, serve_cycles)` to ACK it with a full 64-byte line.  On a miss
the interconnect polls the agents in registration order; the first ACK
supplies the line, otherwise the line comes from DRAM.  The interconnect
is the one place that checks an ACK: it rejects a payload that is not a
full line and a negative serve time before it counts the ACK.

Cycle model (flat per-event costs from LatencyConfig), charged to the
shared clock, which is the single accounting point:
  * cache hit: `cache_hit`
  * miss, all agents NACK: `cci + dram` -- the DRAM fetch is launched
    speculatively alongside the broadcast, so NACK resolution is hidden
    behind it and registering a silent agent costs nothing
  * miss answered by an agent: `cci + snoop + <agent serve cycles>` --
    agent-served data rides the snoop network and cannot overlap
"""

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Optional

LINE_BYTES = 64
LINE_SHIFT = 6
_LINE_MASK = LINE_BYTES - 1


class CacheState(Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


class SnoopKind(Enum):
    READ_SHARED = "read-shared"
    READ_UNIQUE = "read-unique"


SOURCE_CACHE = "CACHE"
SOURCE_SNOOPED = "SNOOPED"
SOURCE_DRAM = "DRAM"

KLASS_DATA = "data"
KLASS_WALK = "walk"


class FabricGap(RuntimeError):
    """A coherent read reached an address nothing backs: every agent
    NACKed and the line is outside the DRAM aperture."""

    def __init__(self, line_addr: int):
        super().__init__(f"no backing for line {line_addr:#x}")
        self.line_addr = line_addr


@dataclass
class LatencyConfig:
    cache_hit: int = 2
    cci: int = 10
    snoop: int = 15
    dram: int = 100
    lightv: int = 20

    def validate(self):
        bad = [
            name
            for name, value in vars(self).items()
            if not isinstance(value, int) or value <= 0
        ]
        if bad:
            raise ValueError(f"latencies must be positive integers: {', '.join(bad)}")


class Counters:
    """Per-run event counters shared by the fabric and the MMU."""

    FIELDS = (
        "data_hits",
        "data_misses",
        "walk_reads",
        "walk_hits",
        "walk_misses",
        "snoops_issued",
        "snoops_acked",
        "writebacks",
    )

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


class CacheLine:
    __slots__ = ("tag", "state", "payload")

    def __init__(self, tag: int, state: CacheState, payload: bytearray):
        self.tag = tag
        self.state = state
        self.payload = payload


class Cache:
    """Set-associative cache of 64-byte lines with LRU replacement."""

    def __init__(self, sets: int = 256, ways: int = 4):
        if sets <= 0 or sets & (sets - 1):
            raise ValueError("sets must be a power of two")
        if ways <= 0:
            raise ValueError("ways must be positive")
        self.sets = sets
        self.ways = ways
        self._set_mask = sets - 1
        self._sets = [OrderedDict() for _ in range(sets)]

    def _set_for(self, line_addr: int) -> OrderedDict:
        if line_addr & _LINE_MASK:
            raise ValueError(f"address not line-aligned: {line_addr:#x}")
        return self._sets[(line_addr >> LINE_SHIFT) & self._set_mask]

    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        """Hit test without touching replacement metadata or MESI state."""
        return self._set_for(line_addr).get(line_addr)

    def probe(self, line_addr: int) -> Optional[CacheLine]:
        """Hit test that refreshes LRU recency on hit."""
        s = self._set_for(line_addr)
        line = s.get(line_addr)
        if line is not None:
            s.move_to_end(line_addr)
        return line

    def fill(self, line_addr: int, payload: bytearray, state: CacheState):
        """Install (or refresh) a line; returns (the installed line, the
        evicted line or None)."""
        if len(payload) != LINE_BYTES:
            raise ValueError("payload must be one full line")
        s = self._set_for(line_addr)
        existing = s.get(line_addr)
        if existing is not None:
            existing.payload = payload
            existing.state = state
            s.move_to_end(line_addr)
            return existing, None
        evicted = None
        if len(s) >= self.ways:
            _, evicted = s.popitem(last=False)
        line = s[line_addr] = CacheLine(line_addr, state, payload)
        return line, evicted

    def drop(self, line_addr: int) -> Optional[CacheLine]:
        """Remove a line without any writeback; returns it if present."""
        return self._set_for(line_addr).pop(line_addr, None)

    def iter_lines(self):
        for s in self._sets:
            yield from s.values()

    def snapshot(self):
        """Deterministic (tag, state, payload) dump for comparisons."""
        return sorted(
            (line.tag, line.state.value, bytes(line.payload))
            for line in self.iter_lines()
        )


class CoherentInterconnect:
    """Serialized snoop fabric between the PE cache, agents, and DRAM.

    Agents are polled in registration order and the first ACK wins, so
    arbitration is deterministic.  One transaction is in flight at a time.
    """

    def __init__(self, dram, latencies: LatencyConfig, counters: Counters, clock):
        self.dram = dram
        self.lat = latencies
        self.counters = counters
        self.clock = clock
        self.agents = []
        self.writeback_hooks = []
        self.started = False

    def register_agent(self, handler) -> int:
        if self.started:
            raise RuntimeError("cannot register agents after traffic has started")
        self.agents.append(handler)
        return len(self.agents) - 1

    def add_writeback_hook(self, hook):
        self.writeback_hooks.append(hook)

    # -- transaction core ---------------------------------------------------

    def _ensure_line(self, cache, line_addr, kind, allocate, klass):
        """Resolve a line into the requester's cache (or transiently).

        Returns (CacheLine, source).  The cycles are charged to the clock
        here, the single accounting point for fabric traffic.  `probe`'s
        answer holds for the whole transaction: no agent touches the
        requester's cache while it serves a snoop.  An agent's ACK is
        checked here, before it is counted: its payload must be one full
        line and its serve cycles must be >= 0.
        """
        self.started = True
        c = self.counters
        lat = self.lat
        line = cache.probe(line_addr)
        if line is not None and not (
            kind is SnoopKind.READ_UNIQUE and line.state is CacheState.SHARED
        ):
            if klass == KLASS_WALK:
                c.walk_reads += 1
                c.walk_hits += 1
            else:
                c.data_hits += 1
            self.clock.now += lat.cache_hit
            return line, SOURCE_CACHE

        if klass == KLASS_WALK:
            c.walk_reads += 1
            c.walk_misses += 1
        else:
            c.data_misses += 1

        cycles = lat.cci
        payload = None
        if self.agents:
            c.snoops_issued += 1
            for agent in self.agents:
                ack = agent(line_addr)
                if ack is not None:
                    payload, serve_cycles = ack
                    if payload is None or len(payload) != LINE_BYTES:
                        raise ValueError("ACK requires a full line payload")
                    if serve_cycles < 0:
                        raise ValueError("serve cycles must be >= 0")
                    c.snoops_acked += 1
                    cycles += lat.snoop + serve_cycles
                    break
        if payload is None:
            if not self.dram.contains_line(line_addr):
                raise FabricGap(line_addr)
            payload = self.dram.read_line(line_addr)
            cycles += lat.dram
            source = SOURCE_DRAM
            state = CacheState.EXCLUSIVE
        else:
            source = SOURCE_SNOOPED
            state = (
                CacheState.SHARED
                if kind is SnoopKind.READ_SHARED
                else CacheState.EXCLUSIVE
            )

        self.clock.now += cycles
        buf = bytearray(payload)
        if not (allocate or line is not None):
            return CacheLine(line_addr, state, buf), source
        line, evicted = cache.fill(line_addr, buf, state)
        if evicted is not None and evicted.state is CacheState.MODIFIED:
            self._writeback(evicted)
        return line, source

    def _writeback(self, line: CacheLine):
        self.dram.write_line(line.tag, line.payload)
        self.counters.writebacks += 1
        for hook in self.writeback_hooks:
            hook(line.tag, line.payload)

    # -- public operations ---------------------------------------------------

    def coherent_read(
        self,
        cache,
        line_addr: int,
        kind: SnoopKind = SnoopKind.READ_SHARED,
        allocate: bool = True,
        klass: str = KLASS_DATA,
    ):
        """Full-line coherent read: (payload copy, source)."""
        line, source = self._ensure_line(cache, line_addr, kind, allocate, klass)
        return bytes(line.payload), source

    def read_byte(self, cache, addr: int) -> int:
        line, _ = self._ensure_line(
            cache, addr & ~_LINE_MASK, SnoopKind.READ_SHARED, True, KLASS_DATA
        )
        return line.payload[addr & _LINE_MASK]

    def write_byte(self, cache, addr: int, value: int):
        line, _ = self._ensure_line(
            cache, addr & ~_LINE_MASK, SnoopKind.READ_UNIQUE, True, KLASS_DATA
        )
        line.payload[addr & _LINE_MASK] = value & 0xFF
        line.state = CacheState.MODIFIED

    def walk_read(self, cache, pte_addr: int, allocate: bool):
        """Fetch the 8-byte descriptor containing pte_addr.

        Returns (raw, source).  The containing 64-byte line is the
        coherence unit; `allocate=False` keeps it out of the requester's
        cache, modeling a non-allocating table walker.
        """
        line, source = self._ensure_line(
            cache, pte_addr & ~_LINE_MASK, SnoopKind.READ_SHARED, allocate, KLASS_WALK
        )
        off = pte_addr & _LINE_MASK
        return int.from_bytes(line.payload[off : off + 8], "little"), source

    def invalidate_line(self, cache, line_addr: int):
        """Drop a line from the cache, writing Modified data back first."""
        line = cache.drop(line_addr)
        if line is not None and line.state is CacheState.MODIFIED:
            self._writeback(line)

    def flush(self, cache):
        """Write back and drop every line (cache maintenance sweep)."""
        for line in list(cache.iter_lines()):
            cache.drop(line.tag)
            if line.state is CacheState.MODIFIED:
                self._writeback(line)
