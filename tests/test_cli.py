import csv
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from lightv_sim import cli, machine, scenarios
from lightv_sim.addressing import PAGE_SHIFT, PAGE_SIZE, MappingError, reference_walk
from lightv_sim.lightv import LightV
from lightv_sim.machine import Machine, MachineConfig, format_access, iter_trace
from lightv_sim.mmu import Mmu
from lightv_sim.scenarios import _layout_histogram, gen_histogram_trace, histogram_workload

from helpers import machines_built
from oracles import cycle_law_gap


CSV_HEADER = (
    "scenario,mode,seed,scale,total_cycles,data_hits,data_misses,walk_reads,"
    "snoops_issued,snoops_acked,dram_reads,dram_writes,lines_manipulated\n"
)


MIB = 1 << 20


def run_cli(*argv):
    return cli.main(list(argv))


def test_histogram_all_modes_csv(tmp_path):
    out = tmp_path / "report.csv"
    code = run_cli(
        "run", "--scenario", "histogram", "--mode", "all",
        "--scale", "0.0002", "--format", "csv", "--out", str(out),
    )
    assert code == 0
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[0] == list(cli.CSV_COLUMNS)
    assert len(rows) == 4
    assert [r[1] for r in rows[1:]] == ["baseline", "passive", "active"]


def test_single_mode_run(tmp_path):
    out = tmp_path / "r.csv"
    code = run_cli(
        "run", "--scenario", "histogram", "--mode", "passive",
        "--scale", "0.0002", "--format", "csv", "--out", str(out),
    )
    assert code == 0
    with open(out) as f:
        modes = [row["mode"] for row in csv.DictReader(f)]
    assert modes == ["baseline", "passive"]  # baseline implied for comparison


def test_migration_run_ok(capsys):
    assert run_cli("run", "--scenario", "migration", "--seed", "3") == 0
    assert "migration ok: True" in capsys.readouterr().out


def test_hazard_scenarios_exit_zero():
    assert run_cli("run", "--scenario", "demand-paging", "--format", "csv",
                   "--out", "/dev/null") == 0
    assert run_cli("run", "--scenario", "isolation", "--format", "csv",
                   "--out", "/dev/null") == 0


def test_unknown_scenario_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--scenario", "bogus")
    assert exc.value.code == cli.EXIT_USAGE


def test_bad_config_exit_code(tmp_path, capsys):
    # a mode, even the CLI's own name for one, is no config key: --mode decides
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode": "baseline"}))
    code = run_cli("run", "--scenario", "migration", "--config", str(bad))
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: mode: unknown config key\n"


@pytest.mark.parametrize("config, message", [
    ([], "config: expected a JSON object"),
    ({"geometry": [64]}, "geometry: expected a JSON object"),
    ({"latencies": []}, "latencies: expected a JSON object"),
    ({"cache_ptes": "false"}, "cache_ptes: expected true or false"),
    ({"strict_isolation": 0}, "strict_isolation: expected true or false"),
    ({"debug_tlb_check": None}, "debug_tlb_check: expected true or false"),
    ({"tlb_entries": "x"}, "tlb_entries: expected an integer"),
    ({"tlb_entries": True}, "tlb_entries: expected an integer"),
    ({"geometry": {"cache_ways": 2.5}}, "geometry.cache_ways: expected an integer"),
    ({"latencies": {"dram": "fast"}}, "latencies.dram: expected an integer"),
    ({"strict_isolaton": False}, "strict_isolaton: unknown config key"),
    ({"geometry": {"sets": 4}}, "geometry.sets: unknown geometry key"),
])
def test_config_values_are_strictly_typed(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli("run", "--scenario", "migration", "--config", str(path)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["run", "--scenario", "migration"], ["verify", "--configs", "1"]])
@pytest.mark.parametrize("data, message", [
    pytest.param(b"\xff{}", "config file: 'utf-8' codec can't decode byte 0xff", id="not-utf-8"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "config file: maximum recursion depth",
                 id="nested"),
    pytest.param(b'{"dram_base": "-0x1000", "dram_size": "0x100000"}',
                 "dram_base/dram_size: DRAM base must not be negative", id="negative-base"),
    # Small enough to build if the bound were missing.
    pytest.param(b'{"geometry": {"cache_sets": 131072}}', "cache_sets: at most 65536",
                 id="sets-past-bound"),
])
def test_config_loader_failures_exit_3(tmp_path, capsys, command, data, message):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    assert run_cli(*command, "--config", str(path)) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("scale", ["inf", "0"])
def test_scale_must_be_finite_and_positive(capsys, scale):
    assert run_cli("run", "--scenario", "histogram", "--scale", scale) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --scale must be finite and > 0")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("scale", ["1e-300", "1e-8"])
def test_scale_with_an_empty_image_is_a_config_error(capsys, scale):
    code = run_cli("run", "--scenario", "histogram", "--scale", scale, "--format", "csv")
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"error: --scale {float(scale)} gives an empty histogram image\n"
    assert captured.out == ""


def test_config_env_fallback(tmp_path, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"fault_policy": "panic"}))
    monkeypatch.setenv(cli.CONFIG_ENV, str(bad))
    assert run_cli("run", "--scenario", "migration") == cli.EXIT_CONFIG
    good = tmp_path / "good.json"
    good.write_text(json.dumps(MachineConfig().to_dict()))
    monkeypatch.setenv(cli.CONFIG_ENV, str(good))
    assert run_cli("run", "--scenario", "migration", "--out", "/dev/null") == 0


def test_custom_trace_with_rules(tmp_path):
    mappings = tmp_path / "map.txt"
    mappings.write_text("0x200000000 0x90000 wc\n0x240000000 0x90001 wc\n")
    trace = tmp_path / "trace.txt"
    trace.write_text(
        "0 W 0x200000010 0xaa\n0 R 0x200000010\n0 R 0x240000000\n"
    )
    rules = tmp_path / "rules.txt"
    rules.write_text("0 0x200000000 0x200001000 0xa0000\n")
    out = tmp_path / "out.csv"
    code = run_cli(
        "run", "--scenario", "custom-trace", "--mode", "all",
        "--trace", str(trace), "--mappings", str(mappings),
        "--rules", str(rules), "--format", "csv", "--out", str(out),
    )
    assert code == 0
    with open(out) as f:
        rows = {row["mode"]: row for row in csv.DictReader(f)}
    assert int(rows["active"]["lines_manipulated"]) > 0
    assert int(rows["passive"]["lines_manipulated"]) == 0
    assert int(rows["baseline"]["snoops_issued"]) == 0
    assert out.read_text() == CSV_HEADER + (
        "custom-trace,baseline,0,0.01,882,1,2,6,0,0,8,0,0\n"
        "custom-trace,passive,0,0.01,882,1,2,6,8,0,8,0,0\n"
        "custom-trace,active,0,0.01,1022,1,2,6,8,4,8,0,4\n"
    )


@pytest.mark.parametrize("scenario, rows", [
    ("demand-paging",
     "demand-paging,control,4,0.01,545,0,1,3,4,3,4,0,3\n"
     "demand-paging,active,4,0.01,435,0,0,3,3,3,3,0,3\n"
     "demand-paging,passive,4,0.01,330,0,0,3,3,0,3,0,0\n"),
    ("isolation",
     "isolation,baseline,4,0.01,0,0,0,0,0,0,0,0,0\n"
     "isolation,permissive,4,0.01,765,0,1,5,6,3,6,0,3\n"),
    ("migration",
     "migration,active,4,0.01,4424,7,29,6,35,16,99,78,3\n"),
])
def test_small_scenario_csv_is_pinned(scenario, rows, capsys):
    assert run_cli("run", "--scenario", scenario, "--seed", "4", "--format", "csv") == 0
    assert capsys.readouterr().out == CSV_HEADER + rows


# the per-mode blocks of a histogram run at --scale 0.0002 --seed 4
HISTOGRAM_0002_BASELINE = (
    "[baseline]\n"
    "  total_cycles      113874\n"
    "  data_hits         33122\n"
    "  data_misses       412\n"
    "  walk_reads        21\n"
    "  snoops_issued     0\n"
    "  snoops_acked      0\n"
    "  dram_reads        433\n"
    "  dram_writes       0\n"
    "  lines_manipulated 0\n"
)
HISTOGRAM_0002_PASSIVE = (
    "[passive]\n"
    "  total_cycles      113874\n"
    "  data_hits         33122\n"
    "  data_misses       412\n"
    "  walk_reads        21\n"
    "  snoops_issued     433\n"
    "  snoops_acked      0\n"
    "  dram_reads        433\n"
    "  dram_writes       0\n"
    "  lines_manipulated 0\n"
)


@pytest.mark.parametrize("scenario, text", [
    # the descriptor addresses depend on the order the frames are taken in
    ("demand-paging",
     "control (pre-populated) faults: 0\n"
     "active fault pte @ 0x202001038 (watermark window: True)\n"
     "passive fault pte @ 0x80004038 (watermark window: False)\n"
     "hazard reproduced: True\n"),
    ("isolation",
     "strict activation rejected: True"
     " (rule 1: neighbour mapping 0x200200000 shares level-0 slot 8)\n"
     "neighbour baseline pa: 0x80001000\n"
     "neighbour under permissive activation: fault:L1\n"
     "neighbour deviated: True\n"
     "isolated control unaffected: True\n"
     "hazard reproduced: True\n"),
    ("migration",
     "events interleaved: 40\n"
     "reads checked: 20, stale: 0\n"
     "lost writes: 0\n"
     "translations now resolve to destination: True\n"
     "source frame unreferenced: True\n"
     "migration ok: True\n"),
    ("histogram --scale 0.0002 --mode all",
     HISTOGRAM_0002_BASELINE
     + HISTOGRAM_0002_PASSIVE
     + "[active]\n"
     "  total_cycles      114084\n"
     "  data_hits         33122\n"
     "  data_misses       412\n"
     "  walk_reads        21\n"
     "  snoops_issued     433\n"
     "  snoops_acked      6\n"
     "  dram_reads        433\n"
     "  dram_writes       0\n"
     "  lines_manipulated 6\n"
     "passive vs baseline: 113874 vs 113874 cycles, overhead +0.0000%\n"
     "active vs baseline: 114084 vs 113874 cycles, overhead +0.1844%\n"
     "hot page identical across modes: True; active data in replacement frame: True\n"
     "experiment ok: True\n"),
    ("histogram --scale 0.0002 --mode passive",
     HISTOGRAM_0002_BASELINE
     + HISTOGRAM_0002_PASSIVE
     + "passive vs baseline: 113874 vs 113874 cycles, overhead +0.0000%\n"
     "experiment ok: True\n"),
])
def test_hazard_text_report_is_pinned(scenario, text, capsys):
    # `scenario` is the scenario name, then any further flags
    argv = ["run", "--scenario", *scenario.split(), "--seed", "4", "--format", "text"]
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == text


def test_custom_trace_missing_inputs():
    assert run_cli("run", "--scenario", "custom-trace") == cli.EXIT_USAGE


UNREAD_FLAGS = [
    (flag, scenario)
    for flag, reader in (
        ("--export-trace", "histogram"),
        ("--trace", "custom-trace"),
        ("--mappings", "custom-trace"),
        ("--rules", "custom-trace"),
    )
    for scenario in cli.SCENARIOS
    if scenario != reader
]


@pytest.mark.parametrize("flag, scenario", UNREAD_FLAGS)
def test_a_flag_the_scenario_never_reads_is_a_usage_error(tmp_path, monkeypatch, capsys, flag, scenario):
    def refuse(*args, **kwargs):
        raise AssertionError("the call went past the flag check")

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    monkeypatch.setattr(Machine, "__init__", refuse)
    (tmp_path / "trace.txt").write_text("0 R 0x0\n")
    (tmp_path / "map.txt").write_text("0x0 0x80100 wc\n")
    argv = ["run", "--scenario", scenario, "--scale", "0.0001",
            "--out", str(tmp_path / "report"), flag, str(tmp_path / "flag.txt")]
    if scenario == "custom-trace":  # its own inputs, so only the unread flag is wrong
        argv += ["--trace", str(tmp_path / "trace.txt"), "--mappings", str(tmp_path / "map.txt")]
    assert run_cli(*argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and flag in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["map.txt", "trace.txt"]


def test_exported_trace_replays_identically(tmp_path):
    # the scenario's generated trace, replayed through custom-trace against
    # an equivalent address space, produces the same statistics in every mode
    trace_path = tmp_path / "hist.trace"
    hist_csv = tmp_path / "hist.csv"
    assert run_cli(
        "run", "--scenario", "histogram", "--mode", "all", "--seed", "6",
        "--scale", "0.0001", "--format", "csv", "--out", str(hist_csv),
        "--export-trace", str(trace_path),
    ) == 0
    w = histogram_workload(scale=0.0001, seed=6)
    with open(trace_path) as f:
        assert list(iter_trace(f)) == gen_histogram_trace(w)

    # Each page sits at its histogram frame + SHIFT: a multiple of the
    # 4-page cache span keeps every line in its set, and it clears the
    # table frames custom-trace allocates from the bottom of DRAM.
    SHIFT = 0x1000
    layout = Machine(MachineConfig())
    _, rule = _layout_histogram(layout, w)
    space = layout.spaces[0]
    pages = [scenarios.IMAGE_BASE_VA + k * PAGE_SIZE for k in range(w.image_pages)]
    pages += [scenarios.HOT_PAGE_VA]
    pages += [scenarios.CODE_BASE_VA + k * PAGE_SIZE for k in range(scenarios.CODE_PAGES)]
    mappings = []
    for va in pages:
        pfn = reference_walk(space, va, layout.dram) >> PAGE_SHIFT
        flags = "c" if va < scenarios.HOT_PAGE_VA else "wc"  # code pages are read-only
        mappings.append(f"{va:#x} {pfn + SHIFT:#x} {flags}\n")
    (tmp_path / "map.txt").write_text("".join(mappings))
    (tmp_path / "rules.txt").write_text(
        f"0 {rule.va_start:#x} {rule.va_end:#x} {rule.replacement_base_pfn + SHIFT:#x}\n"
    )
    replay_csv = tmp_path / "replay.csv"
    assert run_cli(
        "run", "--scenario", "custom-trace", "--mode", "all", "--seed", "6",
        "--scale", "0.0001", "--format", "csv", "--out", str(replay_csv),
        "--trace", str(trace_path), "--mappings", str(tmp_path / "map.txt"),
        "--rules", str(tmp_path / "rules.txt"),
    ) == 0

    def stats(path):
        with open(path) as f:
            return {r["mode"]: [r[c] for c in cli.CSV_COLUMNS[4:]] for r in csv.DictReader(f)}

    hist, replay = stats(hist_csv), stats(replay_csv)
    assert list(hist) == list(replay) == ["baseline", "passive", "active"]
    assert hist == replay


def test_export_generates_the_trace_once(tmp_path, monkeypatch):
    want = gen_histogram_trace(histogram_workload(scale=0.0001))
    calls, produced = [], []
    real = scenarios.iter_histogram_trace

    def counted(w):
        calls.append(w)
        for access in real(w):
            produced.append(access)
            yield access

    monkeypatch.setattr(scenarios, "iter_histogram_trace", counted)
    trace_path = tmp_path / "hist.trace"
    assert run_cli(
        "run", "--scenario", "histogram", "--scale", "0.0001", "--format", "csv",
        "--out", str(tmp_path / "hist.csv"), "--export-trace", str(trace_path),
    ) == 0
    assert len(calls) == 1
    assert produced == want
    assert trace_path.read_text() == "".join(map(format_access, want))


def test_export_writes_each_access_as_format_access_does(tmp_path):
    # Two full chunks and a short third; writes of 0, of a byte and of a
    # wider value (both writers format any int), and asids past 0.
    rng = random.Random(4)
    trace = [
        (rng.choice([0, 1, 0xFFFF_FFFF]), "W", rng.randrange(1 << 39), rng.choice([0, 0x5A, 0x1FF]))
        if rng.random() < 0.4 else (rng.randrange(3), "R", rng.randrange(1 << 39), None)
        for _ in range(2 * scenarios.CHUNK + 3)
    ]
    path = tmp_path / "t.trace"
    with open(path, "w") as f:
        passed = list(cli._exporting(iter(trace), f))
    assert passed == trace
    want = "".join(
        f"{asid:#x} {op} {va:#x}" + (f" {value:#x}" if op == "W" else "") + "\n"
        for asid, op, va, value in trace
    )
    assert path.read_text() == want == "".join(map(format_access, trace))


def test_histogram_memory_stays_flat_as_the_image_grows(capsys):
    # The trace streams through every mode's machine, so a run's memory
    # does not grow with the trace: one kept as a list would add about
    # 6 MiB of 0.0005's peak over 0.0001's.
    peaks = {}
    for scale in ("0.0001", "0.0005"):
        tracemalloc.start()
        try:
            assert run_cli("run", "--scenario", "histogram", "--scale", scale, "--format", "csv") == 0
            peaks[scale] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
    assert peaks["0.0005"] < 4 * MIB
    assert peaks["0.0005"] - peaks["0.0001"] < MIB // 2


def test_custom_trace_memory_stays_flat_as_the_trace_grows(tmp_path, capsys):
    # The trace streams from its file into every mode's machine, so a
    # run's memory does not grow with it: one read whole, or kept as a
    # list, would add several MiB of 100k accesses' peak over 20k's.
    (tmp_path / "map.txt").write_text(
        "".join(f"{0x200000000 + k * PAGE_SIZE:#x} {0x90000 + k:#x} wc\n" for k in range(16)))
    peaks = {}
    for count in (20_000, 100_000):
        trace = tmp_path / f"trace{count}.txt"
        trace.write_text("".join(
            f"0 R {0x200000000 + (k % 16) * PAGE_SIZE + (k * 64) % PAGE_SIZE:#x}\n"
            for k in range(count)))
        tracemalloc.start()
        try:
            assert run_cli(
                "run", "--scenario", "custom-trace", "--mode", "baseline", "--format", "csv",
                "--trace", str(trace), "--mappings", str(tmp_path / "map.txt"),
            ) == 0
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        [row] = csv.DictReader(capsys.readouterr().out.splitlines())
        assert int(row["data_hits"]) + int(row["data_misses"]) == count
    assert peaks[100_000] - peaks[20_000] < MIB // 2


def test_custom_trace_fault_abort(tmp_path):
    mappings = tmp_path / "map.txt"
    mappings.write_text("0x200000000 0x90000 wc\n")
    trace = tmp_path / "trace.txt"
    trace.write_text("0 R 0x240000000\n")  # unmapped
    code = run_cli(
        "run", "--scenario", "custom-trace", "--mode", "baseline",
        "--trace", str(trace), "--mappings", str(mappings),
    )
    assert code == cli.EXIT_FAULT


def test_out_is_opened_before_the_run(tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(scenarios, "run_overhead_experiment", no_run)
    missing = tmp_path / "missing" / "r.csv"
    assert run_cli("run", "--scenario", "histogram", "--out", str(missing)) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"

    # a run that fails after the check leaves an old report as it was, and
    # a new path empty
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("old report\n")
    for report in (old, new):
        code = run_cli(
            "run", "--scenario", "custom-trace", "--out", str(report),
            "--trace", str(tmp_path / "no-trace.txt"), "--mappings", str(tmp_path / "no-map.txt"),
        )
        assert code == cli.EXIT_CONFIG and "no-trace.txt" in capsys.readouterr().err
    assert (old.read_text(), new.read_text()) == ("old report\n", "")


def _custom_trace(tmp_path, trace_lines, mappings="0x0 0x80100 wc\n", rules=None, mode="baseline"):
    (tmp_path / "map.txt").write_text(mappings)
    (tmp_path / "trace.txt").write_text("".join(line + "\n" for line in trace_lines))
    argv = ["run", "--scenario", "custom-trace", "--mode", mode,
            "--trace", str(tmp_path / "trace.txt"), "--mappings", str(tmp_path / "map.txt")]
    if rules is not None:
        (tmp_path / "rules.txt").write_text(rules)
        argv += ["--rules", str(tmp_path / "rules.txt")]
    return run_cli(*argv)


@pytest.mark.parametrize("bad_line, code", [
    (5001, cli.EXIT_FAULT),  # the faulting access's chunk runs first
    (20, cli.EXIT_CONFIG),  # the chunk is read whole before it runs
])
def test_a_bad_trace_line_fails_when_its_chunk_is_read(tmp_path, capsys, bad_line, code):
    lines = ["0 R 0x10"] * 5001
    lines[10] = "0 R 0x40000000"  # unmapped: faults under the abort policy
    lines[bad_line - 1] = "0 X 0x10"
    assert _custom_trace(tmp_path, lines) == code
    err = capsys.readouterr().err
    if code == cli.EXIT_FAULT:
        assert err.startswith("fault abort: ") and err.count("\n") == 1
    else:
        assert err == f"error: line {bad_line}: op must be R or W\n"


def test_a_bad_mapping_file_fails_before_a_bad_trace(tmp_path, capsys):
    code = _custom_trace(tmp_path, ["0 X 0x10"], mappings="0x0 0x80100 wc\n0x1000\n")
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: line 2: expected 'VA PFN [flags]'\n"


@pytest.mark.parametrize("mappings, rules", [
    pytest.param("0x0 0x80100 wc\n0x1000 0x80101 wx\n", None, id="mappings"),
    pytest.param("0x0 0x80100 wc\n", "\n0 0x0 0x1000 0x80200 q\n", id="rules"),
])
def test_a_bad_attribute_flag_names_its_line(tmp_path, capsys, mappings, rules):
    code = _custom_trace(tmp_path, ["0 R 0x10"], mappings=mappings, rules=rules, mode="active")
    assert code == cli.EXIT_CONFIG
    flag = "q" if rules else "x"
    assert capsys.readouterr().err == f"error: line 2: unknown attribute flag '{flag}'\n"


def test_unbacked_mapping_is_a_config_error(tmp_path, capsys):
    # the page maps frame 0x1, below the DRAM aperture
    (tmp_path / "map.txt").write_text("0x0 0x1 wc\n")
    (tmp_path / "trace.txt").write_text("0x0 R 0x10\n")
    code = run_cli(
        "run", "--scenario", "custom-trace", "--mode", "baseline",
        "--trace", str(tmp_path / "trace.txt"), "--mappings", str(tmp_path / "map.txt"),
    )
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: no backing for line 0x1000\n" and "Traceback" not in err


def test_context_cache_overflow_is_a_config_error(tmp_path, capsys):
    # five 2 GiB rules need more intermediate contexts than the cache holds;
    # a 12 GiB DRAM aperture holds their five disjoint replacement runs
    config = tmp_path / "loose.json"
    config.write_text(json.dumps({
        "strict_isolation": False, "dram_size": "0x300000000", "watermark_base_pfn": "0x400000",
    }))
    (tmp_path / "map.txt").write_text(
        "".join(f"{k << 31:#x} {0x90000 + k:#x} wc\n" for k in range(5)))
    (tmp_path / "rules.txt").write_text("".join(
        f"0 {k << 31:#x} {(k + 1) << 31:#x} {0x100000 + k * 0x80000:#x}\n" for k in range(5)))
    (tmp_path / "trace.txt").write_text("0 R 0x0\n")
    code = run_cli(
        "run", "--scenario", "custom-trace", "--mode", "active", "--config", str(config),
        "--trace", str(tmp_path / "trace.txt"), "--mappings", str(tmp_path / "map.txt"),
        "--rules", str(tmp_path / "rules.txt"),
    )
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: context cache full\n" and "Traceback" not in err


@pytest.mark.parametrize(
    "line", ["0x100000000 R 0x0", "0 R 0x10000000000000000", "0 R 0x8000000000", "-1 R 0x0",
             "0 W 0x5 0x1ff", "0 R 0x5 0x7"]
)
def test_trace_field_out_of_range_is_a_config_error(tmp_path, capsys, line):
    # a trace's asid must fit 32 bits, its va 39 bits and its data 8 bits
    (tmp_path / "map.txt").write_text("0x0 0x80100 wc\n")
    (tmp_path / "trace.txt").write_text(f"0 R 0x0\n{line}\n")
    code = run_cli(
        "run", "--scenario", "custom-trace",
        "--trace", str(tmp_path / "trace.txt"), "--mappings", str(tmp_path / "map.txt"),
    )
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["run", "--scenario", "histogram"],
    ["verify", "--configs", "1"],
])
def test_dram_too_small_is_a_config_error(tmp_path, capsys, command):
    config = tmp_path / "small.json"
    config.write_text(json.dumps({"dram_size": "0x2000"}))
    assert run_cli(*command, "--config", str(config)) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "error: no free frames left in the DRAM aperture\n"
    assert captured.out == ""


# Runs `cli.main(argv)` with the address space capped, in the child only.
_CAPPED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from lightv_sim import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_histogram_past_the_page_cap_exits_before_set_up(tmp_path):
    # An aperture of nearly 2^40 bytes fits the 13.6M image pages of
    # --scale 1000, so only the page cap stops the mapping list.
    config = tmp_path / "huge.json"
    huge = {"dram_size": hex((1 << 40) - (1 << 31)), "watermark_base_pfn": "0x0"}
    config.write_text(json.dumps(huge))
    argv = ["run", "--scenario", "histogram", "--scale", "1000", "--config", str(config)]
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD, *argv],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    image = scenarios.HistogramWorkload(image_bytes=int(scenarios.DEFAULT_IMAGE_BYTES * 1000))
    pages = image.image_pages + 1 + scenarios.CODE_PAGES
    assert (child.returncode, child.stdout) == (cli.EXIT_CONFIG, "")
    assert child.stderr == (
        f"error: histogram maps {pages} pages, more than the"
        f" {machine.MAX_MAPPED_PAGES} one address space may map\n"
    )


def test_a_mapping_stream_past_the_page_cap_exits_at_the_first_line_past_it(tmp_path):
    # The mappings come from an endless pipe: only the cap ends the read.
    (tmp_path / "trace.txt").write_text("0 R 0x0\n")
    argv = ["run", "--scenario", "custom-trace", "--trace", str(tmp_path / "trace.txt"),
            "--mappings", "/dev/stdin"]
    src = Path(__file__).resolve().parents[1] / "src"
    read_end, write_end = os.pipe()

    def feed():
        lines = (f"{k << PAGE_SHIFT:#x} {0x9_0000 + k:#x}\n" for k in itertools.count())
        try:
            while True:
                chunk = "".join(itertools.islice(lines, 4096)).encode()
                while chunk:
                    chunk = chunk[os.write(write_end, chunk):]
        except BrokenPipeError:  # the child is gone
            pass
        finally:
            os.close(write_end)

    feeder = threading.Thread(target=feed)
    with subprocess.Popen(
        [sys.executable, "-c", _CAPPED_CHILD, *argv],
        env={"PYTHONPATH": str(src)},
        stdin=read_end,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as child:
        os.close(read_end)
        feeder.start()
        try:
            out, err = child.communicate(timeout=60)
        finally:
            child.kill()
            feeder.join()
    code = child.returncode
    cap = machine.MAX_MAPPED_PAGES
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == f"error: line {cap + 1}: more than the {cap} pages one address space may map\n"


def test_register_space_caps_its_mappings(monkeypatch):
    monkeypatch.setattr(machine, "MAX_MAPPED_PAGES", 3)
    m = Machine(MachineConfig())
    before = (m.allocator.next_pfn, m.dram.content_digest())
    mappings = [(k << PAGE_SHIFT, 0x9_0000 + k, 0) for k in range(4)]
    with pytest.raises(MappingError, match="4 mappings, more than the 3 pages"):
        m.register_space(0, mappings)
    assert (m.spaces, m.allocator.next_pfn, m.dram.content_digest()) == ({}, *before)
    m.register_space(0, mappings[:3])


@pytest.mark.parametrize("mode", ["baseline", "passive"])
def test_histogram_verdict_alone_sets_the_exit_code(monkeypatch, capsys, mode):
    monkeypatch.setattr(scenarios, "expected_hot_content", lambda w: b"\xff" * PAGE_SIZE)
    code = run_cli("run", "--scenario", "histogram", "--mode", mode, "--scale", "0.0001")
    captured = capsys.readouterr()
    assert code == cli.EXIT_ASSERTION
    assert "experiment ok: False" in captured.out
    assert captured.err == "check failed: functional_equal\n"


def test_a_lightv_that_never_serves_fails_the_redirect_check(monkeypatch, capsys):
    # every walk then reads the real tables, so the hot page is never
    # redirected and its bytes land in the original frame
    monkeypatch.setattr(LightV, "handle_snoop", lambda self, line_addr: None)
    code = run_cli("run", "--scenario", "histogram", "--mode", "active", "--scale", "0.0001")
    captured = capsys.readouterr()
    assert code == cli.EXIT_ASSERTION
    assert captured.err == "".join(
        f"check failed: {name}\n"
        for name in (
            "functional_equal",
            "active_ok",
            "active_in_replacement_frame",
            "active_original_untouched",
            "hot_page_redirected",
        )
    )


def test_reports_are_byte_identical(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        run_cli(
            "run", "--scenario", "histogram", "--mode", "all", "--seed", "4",
            "--scale", "0.0002", "--format", "csv", "--out", str(out),
        )
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]
    for name in ("m1.txt", "m2.txt"):
        out = tmp_path / name
        run_cli("run", "--scenario", "migration", "--seed", "9", "--out", str(out))
        paths.append(out.read_bytes())
    assert paths[2] == paths[3]


# Each call with its recorded (exit code, sha256 of stdout, sha256 of
# stderr).  A change that moves any simulated output fails here.
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
HASH_SEED_CALLS = {
    ("run", "--scenario", "histogram", "--scale", "0.001", "--format", "csv"):
        (0, "10a2fbb47231abd2501b867dc823bdeae2ecb332526c1370733a4f8496b18de5", _EMPTY),
    ("run", "--scenario", "migration"):
        (0, "adc6feb247bd6e1bfefbe4bcba7d08aaffde84ce0666a6dd0ecf1ca21da74ff0", _EMPTY),
    ("run", "--scenario", "demand-paging"):
        (0, "48de7ee072ae16177ee1250c6ada96aba7e2953c14cdafe1b957a6a0c5835ece", _EMPTY),
    ("run", "--scenario", "isolation"):
        (0, "1fd19992d07b816ca3e19746fe804caa2066b20dbe3ce3447764626f35fe32dd", _EMPTY),
    ("verify", "--configs", "6", "--vas", "200", "--seed", "3"):
        (0, "723a15f3b9d2d45ccdc0c7c733d0ada7890f35cf0336c49f30d9ebce32b9ab0d", _EMPTY),
}


def test_cli_output_does_not_depend_on_the_hash_seed():
    """Each call prints the same bytes and exits the same way in a fresh
    interpreter under `PYTHONHASHSEED` 0 and 1, so no output depends on
    the order of a set or dict of strings; and what it prints is the
    recorded output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    for argv, recorded in HASH_SEED_CALLS.items():
        runs = [
            subprocess.run(
                [sys.executable, "-m", "lightv_sim.cli", *argv],
                env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                timeout=60,
            )
            for hash_seed in ("0", "1")
        ]
        first, second = ((r.returncode, r.stdout, r.stderr) for r in runs)
        assert first == second, argv
        assert first[0] == 0 and first[1], argv
        code, stdout, stderr = first
        digests = (code, hashlib.sha256(stdout).hexdigest(), hashlib.sha256(stderr).hexdigest())
        assert digests == recorded, argv


def test_verify_passes_on_correct_build(capsys):
    assert run_cli("verify", "--configs", "4", "--vas", "60") == 0
    assert "failed 0" in capsys.readouterr().out


def test_verify_machines_obey_the_cycle_law(capsys):
    with machines_built(cli) as machines:
        assert run_cli("verify", "--configs", "6", "--vas", "200", "--seed", "3") == 0
    assert [m.config.mode for m in machines] == ["absent", "passive"] * 3
    assert [cycle_law_gap(m) for m in machines] == [0] * 6


def test_verify_zero_sweep_is_vacuous(capsys):
    assert run_cli("verify", "--configs", "0") == 0
    assert "checked 0" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--configs", "--vas"])
def test_verify_rejects_a_negative_count(flag, tmp_path, capsys):
    # A usage error, named on one line before the config file is opened.
    missing = tmp_path / "absent.json"
    assert run_cli("verify", "--config", str(missing), flag, "-3") == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {flag} must be >= 0, got -3\n")


def test_verify_catches_index_mutation(monkeypatch, capsys):
    real = Mmu._walk_indices

    def skewed(self, va):
        i0, i1, i2 = real(self, va)
        return i0, i1, (i2 + 1) & 0x1FF  # off-by-one in the leaf index

    monkeypatch.setattr(Mmu, "_walk_indices", skewed)
    assert run_cli("verify", "--configs", "4", "--vas", "60") == cli.EXIT_VERIFY_FAIL
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "va 0x" in out


def test_consecutive_calls_share_the_parser_and_nothing_else(tmp_path, capsys):
    report = tmp_path / "report.txt"

    def call(argv):
        """Exit code, stdout, stderr and the --out file of one call."""
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = report.read_text() if report.exists() else None
        report.unlink(missing_ok=True)
        return code, captured.out, captured.err, written

    migration = ["run", "--scenario", "migration", "--seed", "4"]
    pairs = [
        (["run", "--scenario", "bogus"], migration),
        (migration + ["--format", "csv", "--out", str(report)], migration),
        (["verify", "--configs", "1"], ["run", "--scenario", "demand-paging"]),
    ]
    codes = []
    for first, second in pairs:
        alone = []
        for argv in (first, second):
            cli._build_parser.cache_clear()
            alone.append(call(argv))
        cli._build_parser.cache_clear()
        assert [call(first), call(second)] == alone, (first, second)
        assert cli._build_parser.cache_info().hits == 1
        codes.append((alone[0][0], alone[1][0]))
    assert codes == [(cli.EXIT_USAGE, cli.EXIT_OK)] + [(cli.EXIT_OK, cli.EXIT_OK)] * 2
