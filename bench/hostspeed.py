"""Host speed probe: a fixed, package-independent reference loop.

On a shared virtual machine the host's speed drifts by up to 1.5x within minutes,
mostly through contention for caches and memory, which slows the simulator
and this loop alike.  A run times the loop before every workload run and
scales its host times to a reference host on which the loop takes
`NOMINAL_S`: host seconds are divided, and rates multiplied, by
`median(loop times) / NOMINAL_S`.  The loop's work mirrors the simulator's
mix: lookups in a table larger than the per-core caches, tuple allocation
and LRU updates in a small ordered dict.
"""

import random
import statistics
import time
from collections import OrderedDict

NOMINAL_S = 0.08  # on a shared 2-vCPU Intel Xeon VM at 2.1 GHz, in a quiet spell
TABLE_ENTRIES = 20_000  # about 3 MB, allocated once
ROUNDS = 5
LRU_SLOTS = 192


class HostSpeed:
    def __init__(self):
        rng = random.Random(1)
        self._keys = [rng.getrandbits(40) for _ in range(TABLE_ENTRIES)]
        self._table = {k: (i, "R", k) for i, k in enumerate(self._keys)}
        rng.shuffle(self._keys)
        self.samples = []

    def measure(self):
        """Time one pass of the reference loop and keep the sample."""
        table, lru, total = self._table, OrderedDict(), 0
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            for k in self._keys:
                total += table[k][0]
                slot = (k & 255, "W")
                if slot in lru:
                    lru.move_to_end(slot)
                else:
                    lru[slot] = bytearray(8)
                    if len(lru) > LRU_SLOTS:
                        lru.popitem(last=False)
        self.samples.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        """How much slower than the reference host this run's host was."""
        return statistics.median(self.samples) / NOMINAL_S
