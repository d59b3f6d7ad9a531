import gc
import json
import random
import weakref

import pytest

from lightv_sim.addressing import ATTR_WRITABLE, MappingError
from lightv_sim.coherence import Cache, CacheState, LatencyConfig
from lightv_sim.lightv import RewriteRule
from lightv_sim.machine import (
    AllocatorExhausted,
    ConfigError,
    Dram,
    FrameAllocator,
    Machine,
    MachineConfig,
    TraceAbort,
    TraceError,
    compare_runs,
    format_access,
    iter_trace,
    load_config,
    trace_digest,
)

from helpers import cache_snapshot, data_access, dram_clone, make_machine
from oracles import flush_by_line, invalidate_by_line

RW = ATTR_WRITABLE
PAGE_VA = 8 << 30


def simple_machine(mode="absent", **overrides):
    m = make_machine(mode, **overrides)
    m.register_space(0, [(PAGE_VA, 0x90000, RW), (9 << 30, 0x90001, RW)])
    return m


# -- configuration --------------------------------------------------------------


def test_default_build_shapes():
    # Every mode builds LightV; only passive and active mode plug it in.
    for mode in ("absent", "passive", "active"):
        m = make_machine(mode)
        assert m.lightv is not None and m.mmu.lightv is m.lightv
        if mode == "absent":
            assert m.cci.agents == [] and m.cci.writeback_hook is None
        else:
            assert m.cci.agents == [m.lightv.handle_snoop]
            assert m.cci.writeback_hook == m.lightv.on_writeback
        # The walker's own agents are a copy: a foreign agent registered
        # later is not one of them.
        assert m.mmu._own_agents == m.cci.agents
        m.cci.register_agent(lambda line_addr: None)
        assert m.mmu._own_agents != m.cci.agents


def test_window_overlapping_dram_rejected():
    cfg = MachineConfig(watermark_base_pfn=0x80000)  # inside the aperture
    with pytest.raises(ConfigError, match="watermark_base_pfn"):
        Machine(cfg)


def test_bad_latency_rejected():
    cfg = MachineConfig(latencies=LatencyConfig(snoop=-1))
    with pytest.raises(ConfigError, match="latencies"):
        cfg.validate()


def test_bad_geometry_and_mode_rejected():
    with pytest.raises(ConfigError, match="cache_sets"):
        MachineConfig(cache_sets=100).validate()
    with pytest.raises(ConfigError, match="mode"):
        MachineConfig(mode="turbo").validate()
    with pytest.raises(ConfigError, match="fault_policy"):
        MachineConfig(fault_policy="panic").validate()


def test_config_dict_roundtrip(tmp_path):
    cfg = MachineConfig(tlb_entries=16, cache_ptes=True, fault_policy="record")
    clone = MachineConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert load_config(str(path)) == cfg
    # the CLI's --mode sets every machine's mode, so a file may not name one
    assert "mode" not in cfg.to_dict()
    with pytest.raises(ConfigError, match="^mode: unknown config key$"):
        MachineConfig.from_dict({"mode": "active"})


def test_config_file_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text(json.dumps({"latencies": {"warp": 1}}))
    with pytest.raises(ConfigError, match="latencies.warp"):
        load_config(str(path))


def test_register_space_rejects_a_registered_asid():
    m = simple_machine("active")
    first = m.spaces[0]
    state = m.allocator.next_pfn, m.dram.content_digest()
    with pytest.raises(MappingError, match="asid 0 is already registered"):
        m.register_space(0, [(10 << 30, 0x90002, RW)])
    assert (m.allocator.next_pfn, m.dram.content_digest()) == state
    assert m.spaces == {0: first}


@pytest.mark.parametrize("asid", [-1, 1 << 32])
def test_register_space_rejects_an_asid_outside_32_bits(asid):
    m = simple_machine("active")
    first = m.spaces[0]
    state = m.allocator.next_pfn, m.dram.content_digest()
    with pytest.raises(MappingError, match="outside 32 bits"):
        m.register_space(asid, [(10 << 30, 0x90002, RW)])
    assert (m.allocator.next_pfn, m.dram.content_digest()) == state
    assert m.spaces == {0: first}
    m.register_space((1 << 32) - 1, [(10 << 30, 0x90002, RW)])


def test_activate_requires_active_mode():
    m = simple_machine("passive")
    with pytest.raises(RuntimeError, match="mode"):
        m.activate_rules([])


@pytest.mark.parametrize("mode", ["absent", "passive"])
def test_deactivate_requires_active_mode(mode):
    m = simple_machine(mode)
    with pytest.raises(RuntimeError, match=f"machine mode is '{mode}', not active"):
        m.deactivate_rule(1)


@pytest.mark.parametrize("mode", ["absent", "passive", "active"])
def test_machine_is_freed_without_the_cycle_collector(mode):
    m = simple_machine(mode, debug_tlb_check=True)
    if mode == "active":
        m.activate_rules([RewriteRule(1, 0, PAGE_VA, PAGE_VA + 4096, 0xA0000)])
    m.run_trace([(0, "W", PAGE_VA, 1), (0, "R", PAGE_VA, None), (0, "R", PAGE_VA, None)])
    if mode == "active":
        m.deactivate_rule(1)
    ref = weakref.ref(m)
    gc.disable()
    try:
        del m
        assert ref() is None
    finally:
        gc.enable()


# -- set-up work counts -----------------------------------------------------------
# Host-independent guards on set-up cost: a builder or a strict check that
# went back to walking every page from level 0 reads about three entries a
# page and fails these, whatever the host's speed.


def count_qword_calls(monkeypatch):
    counts = {"read_qword": 0, "write_qword": 0}
    for name, method in ((name, getattr(Dram, name)) for name in counts):
        def counted(self, *args, _name=name, _method=method):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(Dram, name, counted)
    return counts


def test_register_space_reads_each_table_entry_it_links_once(monkeypatch):
    # 3 level-0 slots x 3 level-1 indices x 40 pages: 1 + 3 + 9 tables
    vas = [(i0 << 30) | (i1 << 21) | (i2 << 12)
           for i0 in (8, 9, 300) for i1 in (0, 7, 511) for i2 in range(40)]
    mappings = [(va, 0x9_0000 + n, RW) for n, va in enumerate(vas)]
    m = make_machine("active")
    counts = count_qword_calls(monkeypatch)
    space = m.register_space(0, mappings)
    tables = len(space.table_pfns)
    assert tables == 13
    assert counts["read_qword"] <= 2 * tables
    assert counts["write_qword"] <= len(mappings) + tables


def test_strict_activation_reads_each_page_once_and_a_few_entries_per_table(monkeypatch):
    # 512 pages from the middle of one leaf table into the next: the rule
    # meets one level-1 and two leaf tables
    start = (8 << 30) | (256 << 12)
    pages = 512
    m = make_machine("active")
    m.register_space(0, [(start + (k << 12), 0x9_0000 + k, RW) for k in range(pages)])
    counts = count_qword_calls(monkeypatch)
    m.activate_rules([RewriteRule(1, 0, start, start + (pages << 12), 0xA_0000)])
    assert counts["write_qword"] == 0
    assert counts["read_qword"] <= pages + 4 * 3



def count_calls(monkeypatch, owner, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(self, *args, _name=name, _method=getattr(owner, name)):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(owner, name, counted)
    return counts


def test_capturing_a_page_checks_each_frame_once(monkeypatch):
    m = make_machine("active")
    m.register_space(0, [(PAGE_VA, 0x90000, RW)])
    counts = count_calls(monkeypatch, Dram, "contains")
    m.lightv.begin_page_capture({0x9100_0000 + off: 0x9200_0000 + off for off in range(0, 4096, 64)})
    assert counts["contains"] <= 2


def test_flush_sweeps_the_sets_without_per_line_cache_calls(monkeypatch):
    m = make_machine("absent", cache_sets=16, cache_ways=2)
    for k in range(40):
        if k % 3:
            m.cci.write_byte(0x9000_0000 + 64 * k, k)
        else:
            m.cci.read_byte(0x9000_0000 + 64 * k)
    counts = count_calls(monkeypatch, Cache, "_set_for", "lookup", "probe")
    m.flush_cache()
    assert counts == {"_set_for": 0, "lookup": 0, "probe": 0}
    assert not any(m.cache._sets)


# -- cache sweeps -----------------------------------------------------------------


def mixed_cache_machine(seed):
    """A machine whose 64 x 2 cache is full of lines in random M, E and S
    states, with random payloads and a shuffled LRU order in every set;
    it logs each writeback, and whether its line was dropped by then."""
    m = make_machine("absent", cache_sets=64, cache_ways=2)
    rng = random.Random(seed)
    page = 0x9000_0000
    lines = [page + 64 * k for k in range(64)] + [page + 0x1_0000 + 64 * k for k in range(64)]
    rng.shuffle(lines)
    for line in lines:
        m.cache.fill(line, bytearray(rng.randbytes(64)), rng.choice(list(CacheState)))
    for _ in range(200):
        m.cache.probe(rng.choice(lines))
    m.log = []
    m.cci.writeback_hook = lambda addr, payload: m.log.append(
        (addr, bytes(payload), m.cache.lookup(addr) is None)
    )
    return m


def machine_after(m):
    # each DRAM line copied: a write port writes the stored line in place
    lines = sorted((addr, bytes(line)) for addr, line in m.dram._lines.items())
    return m.log, m.counters.writebacks, m.dram.writes, lines, cache_snapshot(m.cache)


@pytest.mark.parametrize("seed", range(5))
def test_cache_sweeps_write_back_as_a_per_line_sweep_does(seed):
    # flush: set by set in LRU order; invalidate_page_lines: the page's
    # lines in address order; either way each Modified line is dropped
    # before its writeback
    got, want = mixed_cache_machine(seed), mixed_cache_machine(seed)
    got.flush_cache()
    flush_by_line(want.cci, want.cache)
    assert machine_after(got) == machine_after(want)
    assert got.log and all(dropped for _, _, dropped in got.log)
    assert not any(got.cache._sets)
    page = 0x9000_0000 + 0x1_0000 * (seed % 2)
    got, want = mixed_cache_machine(seed), mixed_cache_machine(seed)
    got.invalidate_page_lines(page)
    invalidate_by_line(want.cci, want.cache, range(page, page + 4096, 64))
    assert machine_after(got) == machine_after(want)
    assert got.log and all(dropped for _, _, dropped in got.log)
    assert len(cache_snapshot(got.cache)) == 64
    before = machine_after(got)
    with pytest.raises(ValueError, match=f"address not line-aligned: {page + 8:#x}"):
        got.invalidate_page_lines(page + 8)
    assert machine_after(got) == before

# -- dram and allocator ----------------------------------------------------------


def test_dram_zero_fill_and_bounds():
    dram = Dram(0x8000_0000, 1 << 20)
    assert dram.read_line(0x8000_0000) == bytes(64)
    assert dram.read_qword(0x8000_0040) == 0
    with pytest.raises(ValueError):
        dram.read_line(0x7FFF_FFC0)
    with pytest.raises(ValueError):
        dram.write_line(0x8000_0000 + (1 << 20), bytes(64))


def test_dram_write_line_rejects_a_short_payload():
    dram = Dram(0x8000_0000, 1 << 20)
    dram.write_line(0x8000_0040, bytes(range(64)))
    before = {a: bytes(line) for a, line in dram._lines.items()}, dram.writes
    # a new line and a stored one, which a slice assignment would resize
    for addr in (0x8000_0000, 0x8000_0040):
        for n in (63, 65):
            with pytest.raises(ValueError, match="line payload must be 64 bytes"):
                dram.write_line(addr, bytes(n))
    assert ({a: bytes(line) for a, line in dram._lines.items()}, dram.writes) == before


def test_dram_qword_ports_reject_an_address_off_the_qword_grid():
    """A qword lies in one line: an unaligned address, one that would
    cross a line among them, is refused before any state moves."""
    base = 0x8000_0000
    dram = Dram(base, 1 << 20)
    dram.write_qword(base + 56, 0x1122_3344_5566_7788)
    def state():
        lines = {a: bytes(line) for a, line in dram._lines.items()}
        return lines, {frame: list(stored) for frame, stored in dram._frames.items()}

    before = state()
    for addr in (base + 60, base + 4, base + 0x1FFC):
        with pytest.raises(ValueError, match=f"^qword address not 8-byte aligned: {addr:#x}$"):
            dram.write_qword(addr, 0x1122_3344_5566_7788)
        with pytest.raises(ValueError, match=f"^qword address not 8-byte aligned: {addr:#x}$"):
            dram.read_qword(addr)
    assert state() == before
    assert len(dram.read_line(base)) == 64
    assert dram.read_qword(base + 56) == 0x1122_3344_5566_7788


def test_dram_byte_ops_cross_lines():
    dram = Dram(0x8000_0000, 1 << 20)
    data = bytes(range(200))
    dram.write_bytes(0x8000_0020, data)
    assert dram.read_bytes(0x8000_0020, 200) == data
    assert dram.read_qword(0x8000_0020) == int.from_bytes(data[:8], "little")


def per_byte_write(dram, addr, data):
    """Reference for `Dram.write_bytes`: one byte at a time, through the
    qword port, which also creates a zeroed line for every line it touches."""
    for i, b in enumerate(data):
        a = addr + i
        word = bytearray(dram.read_qword(a & ~7).to_bytes(8, "little"))
        word[a & 7] = b
        dram.write_qword(a & ~7, int.from_bytes(word, "little"))


def test_dram_write_bytes_matches_per_byte_reference():
    base, size = 0x8000_0000, 1 << 20
    dram = Dram(base, size)
    dram.write_line(base + 0x40, bytes(range(1, 65)))
    dram.write_qword(base + 0x1008, 0x1122_3344_5566_7788)
    rng = random.Random(9)
    cases = [
        (base + 0x43, bytes([0xAA, 0xBB, 0xCC])),  # within one written line
        (base + 0x2005, bytes(range(40))),  # within one unwritten line
        (base + 0x3, rng.randbytes(300)),  # unaligned, across a written line
        (base + 0xFF9, rng.randbytes(4096 + 14)),  # across many lines of both kinds
        (base + 0x3000, bytes(64)),  # one whole unwritten line of zeros
        (base + 0x80, b""),
        (base + size, b""),
        # line-aligned address and length: whole lines
        (base, rng.randbytes(4096)),  # a page over written and unwritten lines
        (base + 0x1000, rng.randbytes(4096)),  # a page whose line 0 holds a qword
        (base + 0x2040, rng.randbytes(3 * 64)),  # lines inside a page
        (base + 0x1000, rng.randbytes(100)),  # aligned start, unaligned length
    ]
    for addr, data in cases:
        got, want = dram_clone(dram), dram_clone(dram)
        got.write_bytes(addr, data)
        per_byte_write(want, addr, data)
        assert got.content_digest() == want.content_digest(), hex(addr)
        assert sorted(got._lines) == sorted(want._lines), hex(addr)
        assert got.read_bytes(addr, len(data)) == data
        assert (got.reads, got.writes) == (0, 0)
    for addr, n in ((base + size - 10, 20), (base - 4, 8), (base + size, 1)):
        d = dram_clone(dram)
        digest, lines = d.content_digest(), sorted(d._lines)
        with pytest.raises(ValueError, match="outside DRAM aperture"):
            d.write_bytes(addr, bytes(range(1, n + 1)))
        assert (d.content_digest(), sorted(d._lines)) == (digest, lines)


def test_dram_read_bytes_matches_per_byte_reference():
    """`read_bytes` against one `read_qword` per byte, over unaligned starts
    and lengths and over spans of written and unwritten lines."""
    base, size = 0x8000_0000, 1 << 20
    dram = Dram(base, size)
    rng = random.Random(4)
    for line in rng.sample(range(base, base + 0x4000, 64), 40):
        dram.write_line(line, rng.randbytes(64))
    dram.write_qword(base + 0x5008, 0x0102_0304_0506_0708)

    def per_byte(addr, n):
        qword = dram.read_qword
        return bytes(qword(a & ~7) >> 8 * (a & 7) & 0xFF for a in range(addr, addr + n))

    cases = [(base + 0x5000, 64), (base + 0x6001, 130), (base + size - 3, 3), (base + size, 0)]
    cases += [(base + rng.randrange(0x5100), rng.randrange(600)) for _ in range(200)]
    for addr, n in cases:
        assert dram.read_bytes(addr, n) == per_byte(addr, n), (hex(addr), n)
    assert dram.reads == 0
    for addr, n in ((base + size - 10, 20), (base - 4, 8), (base + 0x40, -1)):
        with pytest.raises(ValueError, match="outside DRAM aperture"):
            dram.read_bytes(addr, n)


def per_line_frame(dram, pfn):
    """Reference for a whole-frame `read_bytes`: its 64 lines joined in
    address order, one `read_line` each."""
    base = pfn << 12
    return b"".join(bytes(dram.read_line(a)) for a in range(base, base + 4096, 64))


def test_dram_whole_frame_reads_match_a_per_line_join():
    base = 0x8000_0000
    dram = Dram(base, 1 << 20)
    rng = random.Random(13)
    pfn = base >> 12
    dram.write_line(base + 0x1040, rng.randbytes(64))  # sparse, write_line only
    dram.write_qword(base + 0x2FF8, 0x1122_3344_5566_7788)  # sparse, write_qword only
    dram.write_bytes(base + 0x3FC0, rng.randbytes(4096 + 128))  # spans frames 3, 4 and 5
    for line in rng.sample(range(base + 0x6000, base + 0x7000, 64), 64):  # full, write_line
        dram.write_line(line, rng.randbytes(64))
    for line in rng.sample(range(base + 0x7000, base + 0x8000, 64), 64):  # full, write_qword
        dram.write_qword(line + 8 * rng.randrange(8), rng.getrandbits(64))
    dram.write_line(base + 0x8000, rng.randbytes(64))  # sparse, all three paths
    dram.write_qword(base + 0x8F00, rng.getrandbits(64))
    dram.write_bytes(base + 0x8100, rng.randbytes(100))
    frames = [0, 1, 2, 3, 4, 5, 6, 7, 8]  # frame 0 is unwritten
    for k in frames:
        got = dram.read_bytes(base + (k << 12), 4096)
        assert type(got) is bytes
        assert got == per_line_frame(dram, pfn + k), k
    assert {k for k in frames if any(dram.read_bytes(base + (k << 12), 4096))} == set(frames[1:])
    assert len(dram._frames[pfn + 4]) == len(dram._frames[pfn + 6]) == 64
    assert dram.read_bytes(base, 4096) is dram.read_bytes(base + 0x9000, 4096)


def test_dram_frame_index_groups_the_stored_lines_by_frame():
    base = 0x8000_0000
    dram = Dram(base, 16 << 12)
    rng = random.Random(21)
    for _ in range(300):  # frames 12-15 stay unwritten
        kind = rng.randrange(3)
        if kind == 0:
            dram.write_line(base + 64 * rng.randrange(12 * 64), rng.randbytes(64))
        elif kind == 1:
            dram.write_qword(base + 8 * rng.randrange(12 * 512), rng.getrandbits(64))
        else:
            n = rng.choice((rng.randrange(600), 4096 + rng.randrange(64)))
            dram.write_bytes(base + rng.randrange((12 << 12) - n), rng.randbytes(n))
        if rng.random() < 0.1:
            k = rng.randrange(16)
            assert dram.read_bytes(base + (k << 12), 4096) == per_line_frame(dram, (base >> 12) + k)
    grouped = {}
    for line in dram._lines:
        grouped.setdefault(line >> 12, []).append(line)
    assert dram._frames == grouped
    sizes = set(map(len, grouped.values()))
    assert len(grouped) == 12 and min(sizes) < 64 and 64 in sizes  # sparse and full frames
    for k in range(16):
        assert dram.read_bytes(base + (k << 12), 4096) == per_line_frame(dram, (base >> 12) + k)


def test_dram_digest_tracks_content():
    dram = Dram(0x8000_0000, 1 << 20)
    d0 = dram.content_digest()
    dram.write_qword(0x8000_1000, 0xAB)
    assert dram.content_digest() != d0
    clone = dram_clone(dram)
    assert clone.content_digest() == dram.content_digest()
    clone.write_qword(0x8000_1000, 0xCD)
    assert clone.content_digest() != dram.content_digest()
    assert dram.read_qword(0x8000_1000) == 0xAB


def test_allocator_exhaustion():
    dram = Dram(0x8000_0000, 3 * 4096)
    alloc = FrameAllocator(dram)
    for _ in range(3):
        alloc.alloc()
    with pytest.raises(AllocatorExhausted):
        alloc.alloc()


# -- trace running ----------------------------------------------------------------


def test_empty_trace_zero_cycles():
    m = simple_machine()
    stats = m.run_trace([])
    assert stats.total_cycles == 0
    assert stats.to_dict()["data_hits"] == 0


def test_determinism_replay():
    rng = random.Random(41)
    trace = []
    for _ in range(500):
        va = PAGE_VA + rng.randrange(4096)
        if rng.random() < 0.4:
            trace.append((0, "W", va, rng.randrange(256)))
        else:
            trace.append((0, "R", va, None))

    def run():
        m = simple_machine("active")
        stats = m.run_trace(trace)
        return stats, m.dram.content_digest(), cache_snapshot(m.cache)

    assert run() == run()


def test_tlb_hit_reads_cost_exactly_hit_latency():
    m = simple_machine()
    m.run_trace([(0, "R", PAGE_VA, None)])  # warm the TLB and the line
    n = 50
    stats = m.run_trace([(0, "R", PAGE_VA, None)] * n)
    assert stats.total_cycles == n * m.config.latencies.cache_hit
    assert stats.data_hits == n and stats.walk_reads == 0


def test_cycle_additivity_against_manual_accumulation():
    rng = random.Random(42)
    ops = []
    for _ in range(300):
        va = (PAGE_VA if rng.random() < 0.5 else 9 << 30) + rng.randrange(4096)
        op = "W" if rng.random() < 0.3 else "R"
        ops.append((0, op, va, rng.randrange(256) if op == "W" else None))

    manual = simple_machine()
    total = 0
    for asid, op, va, data in ops:
        before = manual.counters.total_cycles
        if op == "W":
            data_access(manual, asid, va, True, data)
        else:
            data_access(manual, asid, va)
        total += manual.counters.total_cycles - before
    fresh = simple_machine()
    stats = fresh.run_trace(ops)
    assert stats.total_cycles == total


def test_conservation_against_flat_shadow():
    rng = random.Random(43)
    m = simple_machine("active")
    shadow = {}
    for _ in range(2000):
        va = (PAGE_VA if rng.random() < 0.5 else 9 << 30) + rng.randrange(4096)
        if rng.random() < 0.4:
            value = rng.randrange(256)
            data_access(m, 0, va, True, value)
            shadow[va] = value
        else:
            assert data_access(m, 0, va) == shadow.get(va, 0)


def test_compare_runs_relative_overhead():
    trace = [(0, "R", PAGE_VA, None)] * 10
    a = simple_machine().run_trace(trace)
    b = simple_machine().run_trace(trace)
    report = compare_runs(a, b)
    assert (report.cycles_base, report.cycles_other) == (a.total_cycles, b.total_cycles)
    assert report.relative == 0.0 and a == b
    a.total_cycles, b.total_cycles = 400, 401
    assert compare_runs(a, b).relative == 1 / 400
    # a base run of no cycles reports no overhead rather than dividing by 0
    assert compare_runs(simple_machine().run_trace([]), b).relative == 0.0


def test_fault_abort_policy():
    m = simple_machine()
    with pytest.raises(TraceAbort) as exc:
        m.run_trace([(0, "R", 10 << 30, None)])
    assert exc.value.index == 0


def test_fault_record_policy():
    m = simple_machine(fault_policy="record")
    stats = m.run_trace([(0, "R", 10 << 30, None), (0, "R", PAGE_VA, None)])
    assert len(stats.faults) == 1
    fault = stats.faults[0]
    assert fault.level == 0 and fault.va == 10 << 30
    assert fault.pte_address == m.spaces[0].pgd_base + 10 * 8


def test_trace_text_roundtrip():
    trace = [(0, "R", PAGE_VA, None), (1, "W", 0x1000, 0x7F)]
    text = "".join(map(format_access, trace))
    assert list(iter_trace(text.splitlines())) == trace
    assert trace_digest(iter_trace(text.splitlines())) == trace_digest(trace)


def test_trace_parse_errors():
    with pytest.raises(TraceError, match="line 1"):
        list(iter_trace(["0 X 0x1000\n"]))
    with pytest.raises(TraceError, match="data byte"):
        list(iter_trace(["0 W 0x1000\n"]))
    with pytest.raises(TraceError, match="^line 2: a read takes no data byte$"):
        list(iter_trace(["0 W 0x5 0x7\n", "0 R 0x5 0x7\n"]))
    assert list(iter_trace(["# empty\n", "\n"])) == []
    # a trace's asid must fit 32 bits, its va 39 bits and its data 8 bits
    for line, field in [("0x100000000 R 0x0", "asid"), ("-1 R 0x0", "asid"),
                        ("0 R 0x8000000000", "va"), ("0 R 0xffffffffffffffff", "va"),
                        ("0 R 0x10000000000000000", "va"), ("0 W -0x1 0x5", "va"),
                        ("0 W 0x5 0x100", "data"), ("0 W 0x5 -0x1", "data")]:
        with pytest.raises(TraceError, match=f"line 2: {field} "):
            list(iter_trace(["0xffffffff W 0x7fffffffff 0xff\n", f"{line}\n"]))


def test_stats_text_rendering():
    m = simple_machine()
    stats = m.run_trace([(0, "R", PAGE_VA, None)])
    text = stats.text()
    assert "total_cycles" in text and "walk_reads" in text
