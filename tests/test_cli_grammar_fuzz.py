"""Seeded grammar fuzzer for the CLI's config file and flags.

Config documents are drawn from the grammar `MachineConfig.from_dict`
reads (see the README's Configuration section), and flag vectors from the
`run` and `verify` options.  The generator, not the program, labels each
case.  Every call must end in a documented exit code (0-5) with no
exception escaping `cli.main`.  A valid document or flag vector must run
(exit 0, or 5 where a scenario's own verdict fails); an invalid one must
exit 3 with exactly one `error:` line, which for a document names the bad
key.
Each kind of case is its own test with a fixed number of cases, so a
failure names the kind.  Background: grammar-based fuzzing (Godefroid,
Kiezun and Levin, PLDI 2008).
"""

import json
import random

import pytest

from lightv_sim import addressing, cli, machine
from lightv_sim.machine import MAX_CACHE_SETS, MachineConfig

SEED = 14
CASES = 10  # per kind, or one per path a kind mutates if it has more

# Valid (dram_base, dram_size) pairs, and watermark bases whose 2^14-frame
# windows clear every one of those apertures.
DRAMS = ((0x8000_0000, 0x8000_0000), (0x8000_0000, 0x100_0000),
         (0x1_0000_0000, 0x4000_0000), (0, 0x1000_0000))
WATERMARKS = (0x20_0000, 0x40_0000, 0xFF_C000)
LATENCIES = ("cache_hit", "cci", "snoop", "dram", "lightv")
FLAGS = ("cache_ptes", "strict_isolation", "debug_tlb_check")

# The path of every value in a document, by the type the grammar wants.
OBJECTS = [(), ("geometry",), ("latencies",)]
NUMBERS = [("dram_base",), ("dram_size",), ("watermark_base_pfn",), ("tlb_entries",),
           ("geometry", "cache_sets"), ("geometry", "cache_ways"), ("geometry", "line_bytes")]
NUMBERS += [("latencies", name) for name in LATENCIES]
BOOLS = [(name,) for name in FLAGS]
NAMES = [("fault_policy",)]
KEYS = {(): [p[0] for p in OBJECTS[1:] + NUMBERS + BOOLS + NAMES],
        ("geometry",): ["cache_sets", "cache_ways", "line_bytes"],
        ("latencies",): list(LATENCIES)}

# Histogram runs stay at or below a scale of 1e-5, a few hundred accesses
# per mode: each case then costs milliseconds, and the whole fuzzer a few
# seconds.  Every other scenario is small at any scale.
COMMANDS = (
    ["run", "--scenario", "histogram", "--scale", "1e-5"],
    ["run", "--scenario", "migration"],
    ["run", "--scenario", "demand-paging", "--format", "csv"],
    ["run", "--scenario", "isolation"],
    ["verify", "--configs", "2", "--vas", "8"],
)
VERIFY = ["verify", "--configs", "1", "--vas", "4"]


def _coin(rng):
    return rng.random() < 0.5


def _valid_document(rng):
    doc = {}
    if _coin(rng):
        doc["dram_base"], doc["dram_size"] = rng.choice(DRAMS)
    if _coin(rng):
        doc["watermark_base_pfn"] = rng.choice(WATERMARKS)
    if _coin(rng):
        geometry = {"cache_sets": 1 << rng.randrange(MAX_CACHE_SETS.bit_length()),
                    "cache_ways": rng.choice((1, 4, 16, 1 << 40)), "line_bytes": 64}
        doc["geometry"] = {k: v for k, v in geometry.items() if _coin(rng)}
    if _coin(rng):
        doc["tlb_entries"] = rng.choice((0, 1, 64, 1 << 40))
    if _coin(rng):
        doc["latencies"] = {k: rng.choice((1, 7, 100, 1 << 64)) for k in LATENCIES if _coin(rng)}
    if _coin(rng):
        doc["fault_policy"] = rng.choice(("abort", "record"))
    for key in FLAGS:
        if _coin(rng):
            doc[key] = _coin(rng)
    return doc


def _get(doc, path):
    for key in path:
        doc = doc.get(key, {}) if isinstance(doc, dict) else {}
    return doc


def _set(doc, path, value):
    """`doc` with the value at `path` (the document itself for ()) replaced."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent.setdefault(key, {})
    parent[path[-1]] = value
    return doc


def _encode(value, rng):
    """`value` with each int (not bool) spelt as a JSON int, a hex string
    or a decimal string, all of which the grammar accepts."""
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {k: _encode(v, rng) for k, v in items}
    if type(value) is int:
        return rng.choice((value, hex(value), str(value), f"{value:#X}"))
    return value


RAW = "<raw>"


def _dump(doc, rng, raw=None):
    """The bytes of `doc`, its `RAW` value (if any) spelt as `raw`."""
    text = json.dumps(_encode(doc, rng), indent=rng.choice((None, 1, "\t")))
    if raw is not None:
        text = text.replace(json.dumps(RAW), raw)
    return text.encode()


def _name(path):
    return path[-1] if path else "config"


# Each invalid kind maps (a valid document, the path it mutates, rng) to
# (the bytes of the mutated document, the name its error must contain).
def _wrong_type(doc, path, rng):
    if path in OBJECTS:
        value = rng.choice(([], [{}], "{}", 3, None, True))
    elif path in NUMBERS:
        value = rng.choice((2.5, 64.0, [], {}, None))
    elif path in BOOLS:
        value = rng.choice((None, 0, 1, [], {}))
    else:
        value = rng.choice((None, 1, [], {}, True))
    return _dump(_set(doc, path, value), rng), _name(path)


def _unknown_key(doc, path, rng):
    key = rng.choice(("x", "seed", "cache_size", "mode", "Mode", "cycles", "sets"))
    return _dump(_set(doc, path + (key,), rng.choice((1, True, "x"))), rng), key


def _misspelt_key(doc, path, rng):
    key = wrong = path[-1]
    while wrong in KEYS[path[:-1]]:
        i = rng.randrange(len(key) - 1)
        wrong = rng.choice((key[:i] + key[i + 1:], key[:i] + key[i] + key[i:],
                            key[:i] + key[i + 1] + key[i] + key[i + 2:]))
    value = 1 if path in NUMBERS else True if path in BOOLS else "active"
    return _dump(_set(doc, path[:-1] + (wrong,), value), rng), wrong


def _bool_for_number(doc, path, rng):
    return _dump(_set(doc, path, _coin(rng)), rng), _name(path)


def _string_for_flag(doc, path, rng):
    value = rng.choice(("true", "false", "True", "1", "0", "", "yes"))
    return _dump(_set(doc, path, value), rng), _name(path)


def _negative(doc, path, rng):
    return _dump(_set(doc, path, -(_get(doc, path) or 0x1000)), rng), _name(path)


# Bit counts of a power of two past the bound of each bounded number.
HUGE_BITS = {("dram_base",): (40, 80), ("dram_size",): (40, 80),
             ("watermark_base_pfn",): (28, 64),
             ("geometry", "cache_sets"): (MAX_CACHE_SETS.bit_length(), 41)}


def _huge(doc, path, rng):
    if path not in HUGE_BITS:  # any size is valid here: spell one too long for JSON
        return _dump(_set(doc, path, RAW), rng, raw="9" * 5000), "config file"
    return _dump(_set(doc, path, 1 << rng.randrange(*HUGE_BITS[path])), rng), _name(path)


def _bad_number_string(doc, path, rng):
    value = rng.choice(("0xzz", "0x", "12abc", "0b2", "1e3", "", "0x1.8", "ten"))
    return _dump(_set(doc, path, value), rng), _name(path)


def _deep_nesting(doc, path, rng):
    depth = 100_000
    raw = rng.choice(("[" * depth + "]" * depth, '{"a": ' * depth + "1" + "}" * depth))
    return _dump(_set(doc, path, RAW), rng, raw=raw), "config file"


def _not_utf8(doc, path, rng):
    data = _dump(doc, rng)
    at = rng.randrange(len(data) + 1)
    byte = rng.choice((b"\xff", b"\xc3(", b"\x80", b"\xed\xa0\x80", b"\xfe"))
    return data[:at] + byte + data[at:], "config file"


# Each kind, with the paths it mutates in turn.
INVALID = {
    "wrong type": (_wrong_type, OBJECTS + NUMBERS + BOOLS + NAMES),
    "unknown key": (_unknown_key, OBJECTS),
    "misspelt key": (_misspelt_key, NUMBERS + BOOLS + NAMES),
    "bool for number": (_bool_for_number, NUMBERS),
    "string for flag": (_string_for_flag, BOOLS),
    "negative": (_negative, NUMBERS),
    "huge": (_huge, NUMBERS),
    "bad number string": (_bad_number_string, NUMBERS),
    "deep nesting": (_deep_nesting, OBJECTS + NUMBERS),
    "not utf-8": (_not_utf8, [()]),
}


def _call(capsys, argv, case):
    """(exit code, stdout, stderr) of one CLI call; a usage error exits
    through argparse's SystemExit, any other exception fails the case."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        pytest.fail(f"{case}: {argv} raised {exc!r}")
    captured = capsys.readouterr()
    assert code in range(6), (case, argv, code, captured.err)
    return code, captured.out, captured.err


def _assert_one_error(result, case, names=()):
    code, out, err = result
    assert (code, out) == (cli.EXIT_CONFIG, ""), (case, code, err)
    assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
    for name in names:
        assert name in err, (case, err)


def _ok(result, case):
    code, out, err = result
    assert code in (cli.EXIT_OK, cli.EXIT_ASSERTION) and "error" not in err, (case, code, err)


def test_valid_documents_are_accepted(tmp_path, capsys):
    rng = random.Random(f"{SEED}:valid")
    path = tmp_path / "config.json"
    for index in range(CASES):
        doc = _valid_document(rng)
        path.write_bytes(_dump(doc, rng))
        for command in COMMANDS:
            case = f"valid #{index}: {doc}"
            _ok(_call(capsys, command + ["--config", str(path)], case), case)


@pytest.mark.parametrize("kind", list(INVALID))
def test_invalid_documents_exit_3_naming_the_key(tmp_path, capsys, kind):
    rng = random.Random(f"{SEED}:{kind}")
    mutate, paths = INVALID[kind]
    path = tmp_path / "config.json"
    for index in range(max(CASES, len(paths))):
        data, name = mutate(_valid_document(rng), paths[index % len(paths)], rng)
        path.write_bytes(data)
        case = f"{kind} #{index}: {data[:200]!r}"
        if kind == "huge":
            # A loader that let a huge set count through would build every
            # set: load each document on its own first, before any machine.
            with pytest.raises(ValueError):
                MachineConfig.from_dict(json.loads(data))
        for command in (rng.choice(COMMANDS[:4]), VERIFY):
            _assert_one_error(_call(capsys, command + ["--config", str(path)], case), case, [name])


# Flag values: a scale the histogram runs (at most 1e-5, as above), one
# that is not finite and > 0, and one so small the image has no bytes.
SCALES = ("1e-5", "5e-6", "0.00001", "1e-6")
BAD_SCALES = ("inf", "-inf", "nan", "0", "-0.0", "-1e-5", "-1")
EMPTY_SCALES = ("1e-8", "1e-300", "5e-324")


def _run_argv(rng, scenario, scale=None):
    argv = ["run", "--scenario", scenario, "--seed", str(rng.randrange(10)),
            "--mode", rng.choice(("baseline", "passive", "active", "all")),
            "--format", rng.choice(("text", "csv"))]
    return argv + [f"--scale={scale or rng.choice(SCALES)}"]


def test_every_scenario_mode_and_format(capsys):
    rng = random.Random(f"{SEED}:choices")
    for scenario in cli.SCENARIOS:
        for mode in ("baseline", "passive", "active", "all"):
            for fmt in ("text", "csv"):
                argv = ["run", "--scenario", scenario, "--mode", mode, "--format", fmt,
                        "--seed", str(rng.randrange(10)), f"--scale={rng.choice(SCALES)}"]
                result = _call(capsys, argv, "choices")
                if scenario == "custom-trace":  # needs --trace and --mappings
                    assert result[0] == cli.EXIT_USAGE, (argv, result)
                else:
                    _ok(result, argv)


def test_scales_exit_as_documented(capsys):
    rng = random.Random(f"{SEED}:scale")
    scenarios = [s for s in cli.SCENARIOS if s != "custom-trace"]
    for index in range(3 * CASES):
        scenario = rng.choice(scenarios)
        scale = rng.choice(rng.choice((SCALES, BAD_SCALES, EMPTY_SCALES)))
        argv = _run_argv(rng, scenario, scale)
        result = _call(capsys, argv, f"scale #{index}")
        if scale in BAD_SCALES or (scale in EMPTY_SCALES and scenario == "histogram"):
            _assert_one_error(result, argv, ["--scale"])
        else:
            _ok(result, argv)


def test_unwritable_outputs_exit_3(tmp_path, capsys):
    rng = random.Random(f"{SEED}:out")
    missing = tmp_path / "missing" / "report"
    for index in range(CASES):
        scenario = rng.choice([s for s in cli.SCENARIOS if s != "custom-trace"])
        argv = _run_argv(rng, scenario)
        if scenario == "histogram" and _coin(rng):
            argv += ["--export-trace", str(missing)]
        else:
            argv += ["--out", str(missing)]
        _assert_one_error(_call(capsys, argv, f"out #{index}"), argv, [str(missing)])
        assert not missing.parent.exists()
        out = tmp_path / "report"
        code, stdout, _ = _call(capsys, _run_argv(rng, scenario) + ["--out", str(out)], index)
        assert code in (cli.EXIT_OK, cli.EXIT_ASSERTION) and stdout == "" and out.stat().st_size


def test_small_verify_sweeps_pass(capsys):
    rng = random.Random(f"{SEED}:verify")
    for index in range(CASES):
        argv = ["verify", "--configs", str(rng.choice((-1, 0, 1, 2))),
                "--vas", str(rng.choice((-1, 0, 1, 6))), "--seed", str(rng.randrange(100))]
        code, out, err = _call(capsys, argv, f"verify #{index}")
        if "-1" in argv:  # a negative count is a usage error, named on one line
            assert (code, out) == (cli.EXIT_USAGE, "") and err.count("\n") == 1, (argv, err)
            assert err.startswith(f"error: {argv[argv.index('-1') - 1]} must be >= 0"), (argv, err)
            continue
        assert (code, err) == (cli.EXIT_OK, "") and out.endswith("failed 0\n"), (argv, out, err)


def test_mapping_counts_around_the_page_cap(tmp_path, capsys, monkeypatch):
    # With the cap patched to 3, mapping files of 2, 3 and 4 pages: the
    # first two run, the third exits 3 naming its fourth mapping's line.
    cap = 3
    monkeypatch.setattr(addressing, "MAX_MAPPED_PAGES", cap)
    monkeypatch.setattr(machine, "MAX_MAPPED_PAGES", cap)
    rng = random.Random(f"{SEED}:cap")
    mappings, trace = tmp_path / "mappings.txt", tmp_path / "trace.txt"
    counts = [cap - 1, cap, cap + 1] * CASES
    rng.shuffle(counts)
    for index, count in enumerate(counts):
        lines = [f"{page << 12:#x} {0x9_0000 + k:#x} {rng.choice(('wc', 'c', '-'))}\n"
                 for k, page in enumerate(rng.sample(range(1 << 27), count))]
        for _ in range(rng.randint(0, 2)):
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(("# comment\n", "\n")))
        mappings.write_text("".join(lines))
        reads = [f"0 R {int(line.split()[0], 16) + rng.randrange(4096):#x}\n"
                 for line in lines if line.startswith("0x")]
        trace.write_text("".join(reads))
        argv = ["run", "--scenario", "custom-trace", "--trace", str(trace),
                "--mappings", str(mappings), "--mode", rng.choice(("baseline", "passive", "all")),
                "--format", rng.choice(("text", "csv"))]
        case = f"cap #{index}: {count} mappings"
        result = _call(capsys, argv, case)
        if count > cap:
            past = [n for n, line in enumerate(lines, 1) if line.startswith("0x")][cap]
            _assert_one_error(result, case, [f"error: line {past}: more than the {cap} pages"])
        else:
            _ok(result, case)
            assert result[0] == cli.EXIT_OK, (case, result)


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "histogram", "--mode", "bogus"],
    ["run", "--scenario", "histogram", "--format", "json"],
    ["run", "--scenario", "histogram", "--scale", "abc"],
    ["run", "--scenario", "migration", "--seed", "0x10"],
    ["run"],
    ["verify", "--configs", "x"],
    ["verify", "--vas", "1.5"],
    ["lint"],
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = _call(capsys, argv, "usage")
    assert code == cli.EXIT_USAGE and out == "" and "usage:" in err
