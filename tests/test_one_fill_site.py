"""Only the fabric fills the PE cache: `coherence.py` is the one module
that makes a cache line, fills one or re-tags one.

The walk memo is exact because the fabric's two fills drop it (see
`mmu.py`), and `Machine.replay` may skip setting the fabric's `started`
flag on a cache hit because a filled line means the fabric has run.  Both
hold only while no other module puts a line in the cache: no module but
`coherence.py` calls `CacheLine(...)`, calls a method named `fill`, or
stores to an attribute named `tag` (reading one is fine).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lightv_sim"
FILL_MODULE = "coherence.py"


def fill_sites(source):
    """Line numbers in `source` of each `CacheLine(...)` call (by name or
    attribute), call of a method named `fill`, and store to an attribute
    named `tag`: any assignment target or a `setattr` call naming it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else None
            attr = func.attr if isinstance(func, ast.Attribute) else None
            set_tag = name == "setattr" and any(
                isinstance(a, ast.Constant) and a.value == "tag" for a in node.args
            )
            if "CacheLine" in (name, attr) or attr == "fill" or set_tag:
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "tag":
            if isinstance(node.ctx, ast.Store):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_sees_each_kind_of_fill():
    fills = [
        "ways[a] = CacheLine(a, state, payload)",
        "line = coherence.CacheLine(a, state, None)",
        "evicted = cache.fill(a, payload, state)",
        "line.tag = a",
        "line.tag += 64",
        "a, line.tag = 1, 2",
        "for line.tag in lines: pass",
        "setattr(line, 'tag', a)",
    ]
    assert fill_sites("\n".join(fills)) == [1, 2, 3, 4, 5, 6, 7, 8]
    reads = "ways.move_to_end(line.tag)\ndram.write_line(line.tag, line.payload)\nfill = 3"
    assert fill_sites(reads) == []


def test_no_module_but_the_fabric_fills_the_cache():
    sources = sorted(PACKAGE.glob("*.py"))
    assert FILL_MODULE in {path.name for path in sources}
    assert fill_sites((PACKAGE / FILL_MODULE).read_text())  # the scan sees the fabric's fills
    found = {path.name: fill_sites(path.read_text()) for path in sources}
    assert {name: lines for name, lines in found.items() if lines and name != FILL_MODULE} == {}
