"""Seeded mutations of the three record files custom-trace reads.

Each case applies one mutation to one line of a small valid mapping, rule
or trace file and runs the CLI on the result.  A mutation labelled valid
(layout the formats allow) must leave the report unchanged; an invalid one
must exit 3 with exactly one `error:` line, which names the line.  No
exception may escape `cli.main`.
"""

import random

from lightv_sim import cli

FILES = {
    "mappings": ["0x200000000 0x90000 wc", "# the rule's second page", "0x200001000 0x90001 wc",
                 "0x240000000 0x90002 wc"],
    "rules": ["0 0x200000000 0x200002000 0xa0000 w"],
    "trace": ["0 W 0x200000010 0xaa", "0 R 0x200000010", "0 R 0x240000000",
              "0 W 0x200001040 0x5", "0 R 0x200001040"],
}
HEX_FIELDS = {"mappings": (0, 1), "rules": (0, 1, 2, 3), "trace": (0, 2, 3)}
MAX_FIELDS = {"mappings": 3, "rules": 5, "trace": 4}  # the last one optional

# Past each field's limit: 32-bit asids, 39-bit mapped and ruled vas,
# 64-bit trace vas, 28-bit frames and 8-bit data.
OUT_OF_RANGE = {
    "mappings": ("0x8000000000", "0x10000000"),
    "rules": ("0x100000000", "0x8000000000", "0x8000001000", "0x10000000"),
    "trace": ("0x100000000", None, "0x8000000000", "0x100"),
}

CASES = 240
SEED = 13


def _replace_hex(value):
    def mutate(name, fields, rng):
        i = rng.choice([i for i in HEX_FIELDS[name] if i < len(fields)])
        return fields[:i] + [value(name, i, fields[i], rng)] + fields[i + 1:]
    return mutate


def _zero_x(name, i, field, rng):
    return "0X" + (field[2:] if field.startswith("0x") else field)


def _spaces(name, fields, rng):
    gaps = [rng.choice((" ", "  ", "\t", " \t ")) for _ in fields]
    return [rng.choice(("", "  ", "\t")) + "".join(f + g for f, g in zip(fields, gaps))]


def _lowercase_op(name, fields, rng):
    if name == "trace":
        return fields[:1] + [fields[1].lower()] + fields[2:]
    return None


def _drop_field(name, fields, rng):
    i = rng.randrange(MAX_FIELDS[name] - 1)  # never the optional last field
    return fields[:i] + fields[i + 1:]


def _on_trace_op(op, mutate):
    def apply(name, fields, rng):
        return mutate(fields, rng) if name == "trace" and fields[1] == op else None
    return apply


# Each maps (file name, fields of a record line, rng) to the fields of the
# mutated line, or to None where it does not apply to that line.
VALID = {
    "blank line": lambda name, fields, rng: fields + ["\n" + rng.choice(("", "   ", "\t"))],
    "comment line": lambda name, fields, rng: ["# note 0 X zz\n"] + fields,
    "trailing comment": lambda name, fields, rng: fields + ["# 0 R 0x1 0x2"],
    "0X prefix": _replace_hex(_zero_x),
    "extra spaces": _spaces,
    "lowercase op": _lowercase_op,
}
INVALID = {
    "dropped field": _drop_field,
    "extra field": lambda name, fields, rng: fields + ["0x1"] * (MAX_FIELDS[name] + 1 - len(fields)),
    "non-hex": _replace_hex(lambda name, i, field, rng: rng.choice(("zz", "0xg1", "0x", "1.5"))),
    "negative": _replace_hex(lambda name, i, field, rng: "-0x1000"),
    "out of range": _replace_hex(lambda name, i, field, rng: OUT_OF_RANGE[name][i]),
    "bad op": _on_trace_op("R", lambda fields, rng: fields[:1] + [rng.choice(("X", "RW", "0"))] + fields[2:]),
    "bad flag": lambda name, fields, rng: fields[:-1] + [fields[-1] + rng.choice("xyz!")]
    if name != "trace" else None,
    "data on a read": _on_trace_op("R", lambda fields, rng: fields + ["0x7"]),
    "no data on a write": _on_trace_op("W", lambda fields, rng: fields[:3]),
}


def _cases(rng):
    """(label, valid, file name, line number, mutated files): every
    mutation in turn, each on a random file and record line it applies to."""
    kinds = [(label, True, m) for label, m in VALID.items()]
    kinds += [(label, False, m) for label, m in INVALID.items()]
    cases = []
    while len(cases) < CASES:
        for label, valid, mutate in kinds:
            fields = None
            while fields is None:
                name = rng.choice(sorted(FILES))
                lines = FILES[name]
                index = rng.choice([k for k, line in enumerate(lines) if not line.startswith("#")])
                fields = mutate(name, lines[index].split(), rng)
            mutated = lines[:index] + [" ".join(fields)] + lines[index + 1:]
            cases.append((label, valid, name, index + 1, {**FILES, name: mutated}))
    return cases


def _run(tmp_path, capsys, files):
    paths = {name: tmp_path / f"{name}.txt" for name in files}
    for name, lines in files.items():
        text = "".join(line + "\n" for line in lines)
        paths[name].write_bytes(text.encode(errors="surrogateescape"))
    code = cli.main([
        "run", "--scenario", "custom-trace", "--mode", "all", "--format", "csv",
        "--trace", str(paths["trace"]), "--mappings", str(paths["mappings"]),
        "--rules", str(paths["rules"]),
    ])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_record_file_mutations_exit_as_documented(tmp_path, capsys):
    code, clean, err = _run(tmp_path, capsys, FILES)
    assert (code, err) == (cli.EXIT_OK, "")
    for label, valid, name, lineno, files in _cases(random.Random(SEED)):
        code, out, err = _run(tmp_path, capsys, files)
        case = f"{label} in {name} line {lineno}: {files[name][lineno - 1]!r}"
        if valid:
            assert (code, out, err) == (cli.EXIT_OK, clean, ""), case
        else:
            assert code == cli.EXIT_CONFIG, (case, code, err)
            assert err.startswith(f"error: line {lineno}: ") and err.count("\n") == 1, (case, err)


def test_an_undecodable_byte_names_its_line(tmp_path, capsys):
    # A 0xff byte (written from "\udcff") past the first 8 KiB, so it is in
    # a later read buffer than the file's first line: its line number
    # counts from the file's start, its position from its line's.
    lines = FILES["trace"] * 400
    lines[1687] = "0 R 0x240000000 # \udcff"
    code, out, err = _run(tmp_path, capsys, {**FILES, "trace": lines})
    assert (tmp_path / "trace.txt").read_bytes().index(b"\xff") > 8192
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err == ("error: line 1688: 'utf-8' codec can't decode byte 0xff in position 18:"
                   " invalid start byte\n")
