"""Machine and fabric builders shared by the unit tests."""

from lightv_sim.coherence import Cache, CoherentInterconnect, Counters, LatencyConfig
from lightv_sim.machine import Dram, Machine, MachineConfig, SimClock


def make_machine(mode="absent", **overrides):
    cfg = MachineConfig(mode=mode, **overrides)
    return Machine(cfg)


class Fabric:
    """Bare interconnect + one cache over a small DRAM, for unit tests."""

    def __init__(self, sets=16, ways=2, base=0x8000_0000, size=1 << 22):
        self.dram = Dram(base, size)
        self.clock = SimClock()
        self.counters = Counters()
        self.lat = LatencyConfig()
        self.cache = Cache(sets, ways)
        self.cci = CoherentInterconnect(self.dram, self.lat, self.counters, self.clock)
