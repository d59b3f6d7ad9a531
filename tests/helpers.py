"""Machine and fabric builders shared by the unit tests."""

from contextlib import contextmanager

import pytest

from lightv_sim import scenarios
from lightv_sim.coherence import Cache, CoherentInterconnect, Counters, LatencyConfig
from lightv_sim.machine import Dram, Machine, MachineConfig


def data_access(m, asid, va, write=False, value=None):
    """One data access on machine `m`: `translate`, then the fabric's data
    transaction; returns the byte read, or None after a write."""
    return m.cci.access(m.mmu.translate(asid, va), write, value)


def cache_drop(cache, line_addr):
    """Remove a line without any writeback; returns it if present."""
    return cache._set_for(line_addr).pop(line_addr, None)


def cache_lines(cache):
    """Every cached line, set by set, each set in LRU order."""
    for s in cache._sets:
        yield from s.values()


def cache_snapshot(cache):
    """Deterministic (tag, state, payload) dump for comparisons."""
    return sorted((line.tag, line.state.value, bytes(line.payload)) for line in cache_lines(cache))


def dram_clone(dram):
    """Deep copy of a DRAM image (counters reset), stored line by line
    through `write_line`, so the copy keeps its own frame index."""
    other = Dram(dram.base, dram.size)
    for addr, line in dram._lines.items():
        other.write_line(addr, line)
    other.writes = 0
    return other


@contextmanager
def machines_built(module=scenarios):
    """Within the block, collect every Machine that `module` (the scenarios
    by default) builds, in order of construction."""
    built = []

    def build(config):
        built.append(Machine(config))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "Machine", build)
        yield built


def make_machine(mode="absent", **overrides):
    cfg = MachineConfig(mode=mode, **overrides)
    return Machine(cfg)


class Fabric:
    """Bare interconnect + one cache over a small DRAM, for unit tests."""

    def __init__(self, sets=16, ways=2, base=0x8000_0000, size=1 << 22):
        self.dram = Dram(base, size)
        self.lat = LatencyConfig()
        self.counters = Counters(self.lat)
        self.cache = Cache(sets, ways)
        self.cci = CoherentInterconnect(self.dram, self.counters, self.cache)
