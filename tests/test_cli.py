import csv
import json

import pytest

from lightv_sim import cli
from lightv_sim.addressing import PAGE_SHIFT, PAGE_SIZE, reference_walk
from lightv_sim.machine import Machine, MachineConfig, parse_trace
from lightv_sim.mmu import Mmu
from lightv_sim.scenarios import _layout_histogram, gen_histogram_trace, histogram_workload


CSV_HEADER = (
    "scenario,mode,seed,scale,total_cycles,data_hits,data_misses,walk_reads,"
    "snoops_issued,snoops_acked,dram_reads,dram_writes,lines_manipulated\n"
)


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
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode": "turbo"}))
    code = run_cli("run", "--scenario", "migration", "--config", str(bad))
    assert code == cli.EXIT_CONFIG
    assert "error" in capsys.readouterr().err


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


def test_custom_trace_missing_inputs():
    assert run_cli("run", "--scenario", "custom-trace") == cli.EXIT_USAGE


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
    assert parse_trace(trace_path.read_text()) == gen_histogram_trace(w)

    # Each page sits at its histogram frame + SHIFT: a multiple of the
    # 4-page cache span keeps every line in its set, and it clears the
    # table frames custom-trace allocates from the bottom of DRAM.
    SHIFT = 0x1000
    layout = Machine(MachineConfig())
    _, rule = _layout_histogram(layout, w)
    space = layout.spaces[w.asid]
    pages = [w.image_base_va + k * PAGE_SIZE for k in range(w.image_pages)]
    pages += [w.hot_page_va] + [w.code_base_va + k * PAGE_SIZE for k in range(w.code_pages)]
    mappings = []
    for va in pages:
        pfn = reference_walk(space, va, layout.dram) >> PAGE_SHIFT
        flags = "c" if va < w.hot_page_va else "wc"  # code pages are read-only
        mappings.append(f"{va:#x} {pfn + SHIFT:#x} {flags}\n")
    (tmp_path / "map.txt").write_text("".join(mappings))
    (tmp_path / "rules.txt").write_text(
        f"{w.asid} {rule.va_start:#x} {rule.va_end:#x} {rule.replacement_base_pfn + SHIFT:#x}\n"
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
    # five 2 GiB rules need more intermediate contexts than the cache holds
    config = tmp_path / "loose.json"
    config.write_text(json.dumps({"strict_isolation": False}))
    (tmp_path / "map.txt").write_text(
        "".join(f"{k << 31:#x} {0x90000 + k:#x} wc\n" for k in range(5)))
    (tmp_path / "rules.txt").write_text(
        "".join(f"0 {k << 31:#x} {(k + 1) << 31:#x} 0x80000\n" for k in range(5)))
    (tmp_path / "trace.txt").write_text("0 R 0x0\n")
    code = run_cli(
        "run", "--scenario", "custom-trace", "--mode", "active", "--config", str(config),
        "--trace", str(tmp_path / "trace.txt"), "--mappings", str(tmp_path / "map.txt"),
        "--rules", str(tmp_path / "rules.txt"),
    )
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: context cache full\n" and "Traceback" not in err


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


def test_verify_passes_on_correct_build(capsys):
    assert run_cli("verify", "--configs", "4", "--vas", "60") == 0
    assert "failed 0" in capsys.readouterr().out


def test_verify_zero_sweep_is_vacuous(capsys):
    assert run_cli("verify", "--configs", "0") == 0
    assert "checked 0" in capsys.readouterr().out


def test_verify_catches_index_mutation(monkeypatch, capsys):
    real = Mmu._walk_indices

    def skewed(self, va):
        i0, i1, i2 = real(self, va)
        return i0, i1, (i2 + 1) & 0x1FF  # off-by-one in the leaf index

    monkeypatch.setattr(Mmu, "_walk_indices", skewed)
    assert run_cli("verify", "--configs", "4", "--vas", "60") == cli.EXIT_VERIFY_FAIL
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "va 0x" in out
