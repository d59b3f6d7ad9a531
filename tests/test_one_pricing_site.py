"""Cycles are priced in one place, `coherence.Counters.total_cycles`.

No module of the package assigns to, or adds to, an attribute named
`total_cycles`, so no fast path can bring back a cycle charge of its own.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lightv_sim"


def cycle_writes(source):
    """Line numbers of the writes in `source` to an attribute named
    `total_cycles`: any assignment target (plain, augmented, annotated,
    unpacked, a loop's or a `with`'s) or a `setattr` call naming it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        stored = (
            isinstance(node, ast.Attribute)
            and node.attr == "total_cycles"
            and isinstance(node.ctx, ast.Store)
        )
        set_by_name = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and any(isinstance(a, ast.Constant) and a.value == "total_cycles" for a in node.args)
        )
        if stored or set_by_name:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_sees_each_kind_of_write():
    writes = [
        "c.total_cycles = 0",
        "c.total_cycles += hits * cost",
        "c.total_cycles: int = 0",
        "a, c.total_cycles = 1, 2",
        "for c.total_cycles in range(3): pass",
        "setattr(c, 'total_cycles', 0)",
    ]
    assert cycle_writes("\n".join(writes)) == [1, 2, 3, 4, 5, 6]
    assert cycle_writes("x = c.total_cycles\nstats.cycles += c.total_cycles") == []


def test_no_module_writes_total_cycles():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = {path.name: cycle_writes(path.read_text()) for path in sources}
    assert {name: lines for name, lines in found.items() if lines} == {}
