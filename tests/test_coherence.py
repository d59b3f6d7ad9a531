import random

import pytest

from lightv_sim.coherence import (
    Cache,
    CacheState,
    FabricGap,
    LatencyConfig,
    SnoopKind,
    SnoopResponse,
    Verdict,
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


def test_snoop_response_validation():
    with pytest.raises(ValueError):
        SnoopResponse(Verdict.ACK, None)
    with pytest.raises(ValueError):
        SnoopResponse(Verdict.ACK, b"\x00" * 8)
    with pytest.raises(ValueError):
        SnoopResponse(Verdict.NACK, b"\x00" * 64)


def test_latency_validation():
    with pytest.raises(ValueError, match="dram"):
        LatencyConfig(dram=0).validate()


def test_read_no_agents_comes_from_dram(fabric):
    fabric.dram.write_line(line_of(0), bytes([7]) * 64)
    payload, source, cycles = fabric.cci.coherent_read(fabric.cache, line_of(0))
    assert payload == bytes([7]) * 64
    assert source == "DRAM"
    assert cycles == fabric.lat.cci + fabric.lat.dram


def test_second_read_hits_cache_without_snoops(fabric):
    fabric.cci.register_agent(lambda req: SnoopResponse.nack())
    fabric.cci.coherent_read(fabric.cache, line_of(1))
    issued = fabric.counters.snoops_issued
    payload, source, cycles = fabric.cci.coherent_read(fabric.cache, line_of(1))
    assert source == "CACHE"
    assert cycles == fabric.lat.cache_hit
    assert fabric.counters.snoops_issued == issued


def test_agent_ack_short_circuits_dram(fabric):
    canned = bytes(range(64))
    fabric.cci.register_agent(lambda req: SnoopResponse.ack(canned, 5))
    reads_before = fabric.dram.reads
    payload, source, cycles = fabric.cci.coherent_read(fabric.cache, line_of(2))
    assert payload == canned
    assert source == "SNOOPED"
    assert fabric.dram.reads == reads_before  # the fabric never touched DRAM
    assert cycles == fabric.lat.cci + fabric.lat.snoop + 5
    assert fabric.counters.snoops_acked == 1


def test_first_ack_wins_in_registration_order(fabric):
    calls = []

    def agent(name, resp):
        def handler(req):
            calls.append(name)
            return resp

        return handler

    fabric.cci.register_agent(agent("a", SnoopResponse.ack(bytes([1]) * 64)))
    fabric.cci.register_agent(agent("b", SnoopResponse.ack(bytes([2]) * 64)))
    payload, _, _ = fabric.cci.coherent_read(fabric.cache, line_of(3))
    assert payload == bytes([1]) * 64
    assert calls == ["a"]  # second agent never consulted


def test_all_nack_falls_back_to_dram(fabric):
    fabric.cci.register_agent(lambda req: SnoopResponse.nack())
    fabric.cci.register_agent(lambda req: SnoopResponse.nack())
    fabric.dram.write_line(line_of(4), bytes([9]) * 64)
    payload, source, _ = fabric.cci.coherent_read(fabric.cache, line_of(4))
    assert (payload, source) == (bytes([9]) * 64, "DRAM")


def test_silent_agent_changes_nothing():
    ops = [(random.Random(5).randrange(32), k % 3 == 0) for k in range(200)]

    def run(with_agent):
        f = Fabric()
        if with_agent:
            f.cci.register_agent(lambda req: SnoopResponse.nack())
        values = []
        for n, is_write in ops:
            addr = line_of(n) + (n % 64)
            if is_write:
                f.cci.write_byte(f.cache, addr, n & 0xFF)
            else:
                value, _ = f.cci.read_byte(f.cache, addr)
                values.append(value)
        return values, f.clock.now, f.cache.snapshot()

    assert run(False) == run(True)


def test_registration_after_start_rejected(fabric):
    fabric.cci.coherent_read(fabric.cache, line_of(0))
    with pytest.raises(RuntimeError):
        fabric.cci.register_agent(lambda req: SnoopResponse.nack())


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
    value, cycles = fabric.cci.read_byte(fabric.cache, addr)
    assert value == 0xEE and cycles == fabric.lat.cache_hit


def test_read_unique_upgrades_shared_line(fabric):
    # a snoop-supplied fill lands Shared; writing it requires a fabric trip
    fabric.cci.register_agent(lambda req: SnoopResponse.ack(bytes(64)))
    fabric.cci.coherent_read(fabric.cache, line_of(7), SnoopKind.READ_SHARED)
    assert fabric.cache.lookup(line_of(7)).state is CacheState.SHARED
    misses = fabric.counters.data_misses
    fabric.cci.write_byte(fabric.cache, line_of(7), 1)
    assert fabric.counters.data_misses == misses + 1
    assert fabric.cache.lookup(line_of(7)).state is CacheState.MODIFIED


def test_eviction_writes_back_dirty_lines(fabric):
    # 16 sets x 2 ways; three lines mapping to the same set force an eviction
    addrs = [0x8000_0000 + s * 16 * LINE for s in range(3)]
    fabric.cci.write_byte(fabric.cache, addrs[0], 0x11)
    fabric.cci.write_byte(fabric.cache, addrs[1], 0x22)
    fabric.cci.write_byte(fabric.cache, addrs[2], 0x33)
    assert fabric.dram.read_bytes(addrs[0], 1) == b"\x11"


def test_fabric_gap_outside_aperture(fabric):
    with pytest.raises(FabricGap):
        fabric.cci.coherent_read(fabric.cache, 0x2_0000_0000)


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
            value, _ = f.cci.read_byte(f.cache, addr)
            assert value == shadow.get(addr, 0)


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
