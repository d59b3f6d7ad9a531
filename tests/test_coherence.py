import random

import pytest

from lightv_sim.coherence import (
    Cache,
    CacheState,
    FabricGap,
    KLASS_DATA,
    LatencyConfig,
    SnoopKind,
)

from helpers import Fabric
from oracles import LruShadow

LINE = 64


def line_of(n):
    return 0x8000_0000 + n * LINE


def test_lookup_empty_cache_misses():
    cache = Cache(16, 2)
    assert cache.lookup(line_of(0)) is None


def test_lookup_rejects_unaligned():
    cache = Cache(16, 2)
    with pytest.raises(ValueError):
        cache.lookup(0x8000_0001)


def test_fill_then_lookup_hits():
    cache = Cache(16, 2)
    payload = bytearray(range(64))
    cache.fill(line_of(3), payload, CacheState.EXCLUSIVE)
    hit = cache.lookup(line_of(3))
    assert hit is not None and bytes(hit.payload) == bytes(range(64))


def test_lru_eviction_matches_shadow_model():
    rng = random.Random(11)
    cache = Cache(4, 2)
    shadow = LruShadow(4, 2)
    lines = [line_of(i) for i in range(24)]
    for _ in range(500):
        addr = rng.choice(lines)
        if rng.random() < 0.1:
            cache.drop(addr)
            shadow.drop(addr)
            continue
        hit = cache.probe(addr) is not None
        assert hit == shadow.touch(addr)
        if not hit:
            cache.fill(addr, bytearray(64), CacheState.EXCLUSIVE)
    for addr in lines:
        assert (cache.lookup(addr) is not None) == shadow.contains(addr)


def nack(line_addr):
    return None


def test_snoop_response_validation():
    # the fabric rejects a malformed ACK before it counts or charges it
    cases = [
        ((None, 0), "full line"),
        ((bytes(8), 0), "full line"),
        ((bytes(64), -1), "serve cycles"),
    ]
    for ack, message in cases:
        f = Fabric()
        f.cci.register_agent(lambda line_addr, ack=ack: ack)
        with pytest.raises(ValueError, match=message):
            f.cci.read_byte(f.cache, line_of(0))
        assert f.counters.snoops_acked == 0
        assert f.clock.now == 0 and f.cache.lookup(line_of(0)) is None


def test_misaligned_read_fails_before_anything_moves(fabric):
    # every public operation aligns its address; the transaction core
    # rejects one that is not before it counts, charges or snoops
    fabric.cci.register_agent(nack)
    with pytest.raises(ValueError, match="not line-aligned"):
        fabric.cci._ensure_line(
            fabric.cache, line_of(0) + 8, SnoopKind.READ_SHARED, True, KLASS_DATA
        )
    assert fabric.counters.snapshot() == dict.fromkeys(fabric.counters.FIELDS, 0)
    assert fabric.clock.now == 0 and fabric.dram.reads == 0


def test_latency_validation():
    with pytest.raises(ValueError, match="dram"):
        LatencyConfig(dram=0).validate()


def test_read_no_agents_comes_from_dram(fabric):
    fabric.dram.write_line(line_of(0), bytes([7]) * 64)
    assert fabric.cci.read_byte(fabric.cache, line_of(0) + 3) == 7
    assert fabric.dram.reads == 1 and fabric.counters.data_misses == 1
    line = fabric.cache.lookup(line_of(0))
    assert line.state is CacheState.EXCLUSIVE and line.payload == bytes([7]) * 64
    assert fabric.clock.now == fabric.lat.cci + fabric.lat.dram


def test_second_read_hits_cache_without_snoops(fabric):
    fabric.cci.register_agent(nack)
    fabric.cci.read_byte(fabric.cache, line_of(1))
    issued = fabric.counters.snoops_issued
    before = fabric.clock.now
    fabric.cci.read_byte(fabric.cache, line_of(1) + 9)
    assert fabric.counters.data_hits == 1 and fabric.dram.reads == 1
    assert fabric.clock.now - before == fabric.lat.cache_hit
    assert fabric.counters.snoops_issued == issued


def test_agent_ack_short_circuits_dram(fabric):
    canned = bytes(range(64))
    fabric.cci.register_agent(lambda line_addr: (canned, 5))
    reads_before = fabric.dram.reads
    assert fabric.cci.read_byte(fabric.cache, line_of(2) + 5) == canned[5]
    line = fabric.cache.lookup(line_of(2))
    assert line.state is CacheState.SHARED and line.payload == canned
    assert fabric.dram.reads == reads_before  # the fabric never touched DRAM
    assert fabric.clock.now == fabric.lat.cci + fabric.lat.snoop + 5
    assert fabric.counters.snoops_acked == 1


def test_first_ack_wins_in_registration_order(fabric):
    calls = []

    def agent(name, ack):
        def handler(line_addr):
            calls.append(name)
            return ack

        return handler

    fabric.cci.register_agent(agent("a", (bytes([1]) * 64, 0)))
    fabric.cci.register_agent(agent("b", (bytes([2]) * 64, 0)))
    assert fabric.cci.read_byte(fabric.cache, line_of(3)) == 1
    assert calls == ["a"]  # second agent never consulted


def test_all_nack_falls_back_to_dram(fabric):
    fabric.cci.register_agent(nack)
    fabric.cci.register_agent(nack)
    fabric.dram.write_line(line_of(4), bytes([9]) * 64)
    assert fabric.cci.read_byte(fabric.cache, line_of(4)) == 9
    assert fabric.counters.snoops_issued == 1 and fabric.counters.snoops_acked == 0
    assert fabric.dram.reads == 1


def test_silent_agent_changes_nothing():
    ops = [(random.Random(5).randrange(32), k % 3 == 0) for k in range(200)]

    def run(with_agent):
        f = Fabric()
        if with_agent:
            f.cci.register_agent(nack)
        values = []
        for n, is_write in ops:
            addr = line_of(n) + (n % 64)
            if is_write:
                f.cci.write_byte(f.cache, addr, n & 0xFF)
            else:
                values.append(f.cci.read_byte(f.cache, addr))
        return values, f.clock.now, f.cache.snapshot()

    assert run(False) == run(True)


def test_registration_after_start_rejected(fabric):
    fabric.cci.read_byte(fabric.cache, line_of(0))
    with pytest.raises(RuntimeError):
        fabric.cci.register_agent(nack)


def test_invalidate_absent_line_is_noop(fabric):
    fabric.cci.invalidate_line(fabric.cache, line_of(9))


def test_invalidate_modified_writes_back(fabric):
    addr = line_of(5) + 13
    fabric.cci.write_byte(fabric.cache, addr, 0x5A)
    assert fabric.dram.read_bytes(addr, 1) == b"\x00"  # still only in cache
    fabric.cci.invalidate_line(fabric.cache, line_of(5))
    assert fabric.dram.read_bytes(addr, 1) == b"\x5a"
    assert fabric.cache.lookup(line_of(5)) is None
    assert fabric.counters.writebacks == 1


def test_write_sets_modified_and_read_returns_it(fabric):
    addr = line_of(6) + 1
    fabric.cci.write_byte(fabric.cache, addr, 0xEE)
    line = fabric.cache.lookup(line_of(6))
    assert line.state is CacheState.MODIFIED
    before = fabric.clock.now
    assert fabric.cci.read_byte(fabric.cache, addr) == 0xEE
    assert fabric.clock.now - before == fabric.lat.cache_hit


def test_read_unique_upgrades_shared_line(fabric):
    # a snoop-supplied fill lands Shared; writing it requires a fabric trip
    fabric.cci.register_agent(lambda line_addr: (bytes(64), 0))
    fabric.cci.read_byte(fabric.cache, line_of(7))
    assert fabric.cache.lookup(line_of(7)).state is CacheState.SHARED
    misses = fabric.counters.data_misses
    fabric.cci.write_byte(fabric.cache, line_of(7), 1)
    assert fabric.counters.data_misses == misses + 1
    assert fabric.cache.lookup(line_of(7)).state is CacheState.MODIFIED


def test_cached_write_leaves_dram_line_until_writeback(fabric):
    # Dram.read_line hands out the stored line; the fabric's fill is a copy
    fabric.dram.write_line(line_of(8), bytes([3]) * 64)
    assert fabric.cci.read_byte(fabric.cache, line_of(8)) == 3
    fabric.cci.write_byte(fabric.cache, line_of(8) + 2, 0x44)  # Exclusive: a hit
    assert fabric.counters.data_hits == 1
    assert fabric.dram.read_line(line_of(8)) == bytes([3]) * 64
    fabric.cci.write_byte(fabric.cache, line_of(9), 0x55)  # filled from a zero line
    assert fabric.dram.read_line(line_of(10)) == bytes(64)
    fabric.cci.flush(fabric.cache)
    assert fabric.dram.read_line(line_of(8)) == b"\x03\x03\x44" + bytes([3]) * 61
    assert fabric.dram.read_line(line_of(9)) == b"\x55" + bytes(63)


def test_eviction_writes_back_dirty_lines(fabric):
    # 16 sets x 2 ways; three lines mapping to the same set force an eviction
    addrs = [0x8000_0000 + s * 16 * LINE for s in range(3)]
    fabric.cci.write_byte(fabric.cache, addrs[0], 0x11)
    fabric.cci.write_byte(fabric.cache, addrs[1], 0x22)
    fabric.cci.write_byte(fabric.cache, addrs[2], 0x33)
    assert fabric.dram.read_bytes(addrs[0], 1) == b"\x11"


def test_fabric_gap_outside_aperture(fabric):
    with pytest.raises(FabricGap):
        fabric.cci.read_byte(fabric.cache, 0x2_0000_0000)


def test_reads_match_flat_shadow():
    rng = random.Random(12)
    f = Fabric(sets=8, ways=2)
    shadow = {}
    span = 40 * LINE
    for _ in range(3000):
        addr = 0x8000_0000 + rng.randrange(span)
        if rng.random() < 0.4:
            value = rng.randrange(256)
            f.cci.write_byte(f.cache, addr, value)
            shadow[addr] = value
        elif rng.random() < 0.05:
            f.cci.invalidate_line(f.cache, addr & ~63)
        else:
            assert f.cci.read_byte(f.cache, addr) == shadow.get(addr, 0)


def test_determinism_bitwise():
    def run():
        rng = random.Random(13)
        f = Fabric()
        for _ in range(800):
            addr = 0x8000_0000 + rng.randrange(64 * LINE)
            if rng.random() < 0.5:
                f.cci.write_byte(f.cache, addr, rng.randrange(256))
            else:
                f.cci.read_byte(f.cache, addr)
        return f.cache.snapshot(), f.clock.now, f.dram.content_digest()

    assert run() == run()


def test_cache_geometry_validation():
    with pytest.raises(ValueError):
        Cache(3, 2)
    with pytest.raises(ValueError):
        Cache(16, 0)
