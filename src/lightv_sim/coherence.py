"""MESI cache and the snoop-broadcast interconnect it hangs off.

The interconnect holds the one PE-side cache, the requester of every
transaction; other coherent agents (the translation rewriter, test
doubles) register with it.  An agent is a plain callable,
`agent(line_addr)`, that returns None to NACK the snoop or
`(payload, serve_cycles)` to ACK it with a full 64-byte line.  On a miss
the interconnect polls the agents in registration order; the first ACK
supplies the line, otherwise the line comes from DRAM.  `_fetch` is the one
place that polls the agents, checks an ACK (a full-line payload, serve
cycles >= 0) before counting it, and sums its serve cycles.  Two transactions
share it.  The data transaction (`access`, which `read_byte`/`write_byte`
wrap) runs in one body: the set lookup and LRU move, then on a miss the
fetch, the fill, the eviction and the writeback of an evicted Modified
line, with no call into `Cache`; then the byte read or write.  A fill into
a full set reuses the victim's `CacheLine` record for the new line.  The
walk transaction (`walk_read`) returns the line holding one descriptor for
the walker to decode, through `Cache.probe` and, when it allocates
(`cache_ptes`), `Cache.fill`; a non-allocating one returns the ACK payload
or the DRAM line itself and never builds a line.  Each counts its hit or
miss only once it has the line: a walk read adds to `walk_reads`, and to
`walk_hits` on a hit, and `Counters.walk_misses` is derived from the two,
never counted.  Both fills, the data transaction's and an allocating walk
read's, drop the walk memo (`mmu.WalkMemo`) when they install a line a
stored walk read; nothing else fills the PE cache.

Cycle model: transactions count events and charge no cycles; only
`Counters.total_cycles` prices them, at the flat costs of LatencyConfig:
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


# Module names for the states the miss path sets and tests: a member read
# through the Enum class costs about ten times a global read.
_MODIFIED, _EXCLUSIVE, _SHARED = CacheState.MODIFIED, CacheState.EXCLUSIVE, CacheState.SHARED


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
    """Event counters shared by the fabric and the MMU.  `total_cycles`, the
    one place cycles are priced, is the cycle model over them (see the
    module docstring); `serve_cycles`, summed over ACKs, is not reported.
    Seven event counts are stored; `walk_misses` is derived, as
    `walk_reads - walk_hits`, since a walk read counts one or the other."""

    # Report order.
    EVENTS = (
        "data_hits", "data_misses", "walk_reads", "walk_hits", "walk_misses",
        "snoops_issued", "snoops_acked", "writebacks",
    )

    def __init__(self, latencies: LatencyConfig):
        self.data_hits = self.data_misses = self.walk_reads = self.walk_hits = 0
        self.snoops_issued = self.snoops_acked = self.writebacks = 0
        self.serve_cycles = 0
        self._lat = latencies

    @property
    def walk_misses(self) -> int:
        return self.walk_reads - self.walk_hits

    @property
    def total_cycles(self) -> int:
        lat, acked, misses = self._lat, self.snoops_acked, self.data_misses + self.walk_misses
        return (
            lat.cache_hit * (self.data_hits + self.walk_hits) + lat.cci * misses
            + lat.dram * (misses - acked) + lat.snoop * acked + self.serve_cycles
        )

    def snapshot(self) -> dict:
        """The event counts in report order, then `total_cycles`."""
        return {name: getattr(self, name) for name in (*self.EVENTS, "total_cycles")}


class CacheLine:
    __slots__ = ("tag", "state", "payload")

    def __init__(self, tag: int, state: CacheState, payload: bytearray):
        self.tag = tag
        self.state = state
        self.payload = payload


class Cache:
    """Set-associative cache of 64-byte lines with LRU replacement."""

    def __init__(self, sets: int, ways: int):
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
        """Install a line the cache does not hold, evicting the set's least
        recently used line when the set is full; returns the evicted line
        or None."""
        if len(payload) != LINE_BYTES:
            raise ValueError("payload must be one full line")
        s = self._set_for(line_addr)
        evicted = s.popitem(last=False)[1] if len(s) >= self.ways else None
        s[line_addr] = CacheLine(line_addr, state, payload)
        return evicted


class CoherentInterconnect:
    """Serialized snoop fabric between the PE cache it holds, agents, and DRAM.

    Agents are polled in registration order and the first ACK wins, so
    arbitration is deterministic.  One transaction is in flight at a time.
    """

    def __init__(self, dram, counters: Counters, cache: Cache):
        self.dram = dram
        self.counters = counters
        self.cache = cache
        # A fill of any line in `lines` drops the walk memo (see mmu.py).
        self._walk_memo = dram.walk_memo
        self.agents = []
        # Called as hook(line_addr, payload) after each dirty writeback.
        self.writeback_hook = None
        self.started = False

    def register_agent(self, handler):
        if self.started:
            raise RuntimeError("cannot register agents after traffic has started")
        self.agents.append(handler)

    # -- transaction core ---------------------------------------------------

    def _fetch(self, line_addr: int, shared: bool):
        """The miss half of every transaction: returns (payload, state).

        An ACKed line lands SHARED when `shared`, else EXCLUSIVE; a line
        from DRAM lands EXCLUSIVE, and its payload is DRAM's own line, so
        a caller that keeps it copies it.
        """
        c = self.counters
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
                    c.serve_cycles += serve_cycles
                    return payload, _SHARED if shared else _EXCLUSIVE
        try:
            payload = self.dram.read_line(line_addr)
        except ValueError:  # outside the aperture: nothing backs the line
            raise FabricGap(line_addr) from None
        return payload, _EXCLUSIVE

    def access(self, addr: int, write: bool, value=None):
        """The data transaction: read the byte at `addr` or store `value`
        there, through the PE cache.

        One body does what `Cache.probe` and `Cache.fill` do for an
        allocating walk read: the set lookup and LRU move, then on a miss
        (or a write to a SHARED line, which upgrades it in place) `_fetch`,
        the fill, the eviction of the set's least recently used line and
        the writeback of an evicted Modified one, whose record then holds
        the new line with a fresh payload (the bytes DRAM and the writeback
        hook were handed never change); then the byte read or write.  The
        lookup's answer and the LRU move hold for the whole transaction: no
        agent touches the requester's cache while it serves a snoop.
        """
        self.started = True
        line_addr = addr & ~_LINE_MASK
        cache = self.cache
        ways = cache._sets[(addr >> LINE_SHIFT) & cache._set_mask]
        line = ways.get(line_addr)
        if line is not None:
            ways.move_to_end(line_addr)
        if line is None or write and line.state is _SHARED:
            payload, state = self._fetch(line_addr, not write)
            payload = bytearray(payload)  # before a writeback can write DRAM's line
            self.counters.data_misses += 1
            if line is None:
                if line_addr in self._walk_memo.lines:
                    self._walk_memo.forget()
                if len(ways) < cache.ways:
                    line = ways[line_addr] = CacheLine(line_addr, state, None)
                else:
                    line = ways.popitem(last=False)[1]
                    if line.state is _MODIFIED:
                        self._writeback(line)
                    line.tag = line_addr
                    ways[line_addr] = line
            line.payload = payload
            line.state = state
        else:
            self.counters.data_hits += 1
        if write:
            line.payload[addr & _LINE_MASK] = value & 0xFF
            line.state = _MODIFIED
            return None
        return line.payload[addr & _LINE_MASK]

    def _writeback(self, line: CacheLine):
        self.dram.write_line(line.tag, line.payload)
        self.counters.writebacks += 1
        if self.writeback_hook is not None:
            self.writeback_hook(line.tag, line.payload)

    # -- public operations ---------------------------------------------------

    def read_byte(self, addr: int) -> int:
        return self.access(addr, False)

    def write_byte(self, addr: int, value: int):
        self.access(addr, True, value)

    def walk_read(self, pte_addr: int, allocate: bool = False):
        """The walk transaction: the 64-byte line holding the descriptor
        at pte_addr, read shared; the caller decodes the descriptor and
        must not mutate the line.

        `allocate=False` models a non-allocating table walker: a miss
        returns the ACK payload or the DRAM line itself and leaves the
        requester's cache as it was.
        """
        self.started = True
        line_addr = pte_addr & ~_LINE_MASK
        c = self.counters
        line = self.cache.probe(line_addr)
        if line is not None:
            c.walk_hits += 1
            c.walk_reads += 1
            return line.payload
        payload, state = self._fetch(line_addr, True)
        c.walk_reads += 1
        if allocate:
            if line_addr in self._walk_memo.lines:
                self._walk_memo.forget()
            payload = bytearray(payload)  # before a writeback can write DRAM's line
            evicted = self.cache.fill(line_addr, payload, state)
            if evicted is not None and evicted.state is _MODIFIED:
                self._writeback(evicted)
        return payload

    def invalidate_line(self, *line_addrs: int):
        """Check every address, then drop each line in turn; a Modified one
        is written back after its drop."""
        for line_addr in line_addrs:
            if line_addr & _LINE_MASK:
                raise ValueError(f"address not line-aligned: {line_addr:#x}")
        sets, set_mask = self.cache._sets, self.cache._set_mask
        for line_addr in line_addrs:
            line = sets[(line_addr >> LINE_SHIFT) & set_mask].pop(line_addr, None)
            if line is not None and line.state is _MODIFIED:
                self._writeback(line)

    def flush(self):
        """Drop every line, set by set in LRU order, each as `invalidate_line` does."""
        for ways in self.cache._sets:
            while ways:
                line = ways.popitem(last=False)[1]
                if line.state is _MODIFIED:
                    self._writeback(line)
