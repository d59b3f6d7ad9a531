"""Only `Dram._store` writes DRAM's stored lines: it is the one place that
makes a line, adds it to the frame index and checks it against the walk
memo.

The walk memo is exact because a write to a line a stored walk read drops
it (see `mmu.py`), and a whole-frame `read_bytes` is right because
`_frames` lists every stored line.  Both hold only while every write port
(`write_line`, `write_qword`, `write_bytes`) writes into what `_store`
returns: in `machine.py` no function but `Dram._store` stores into
`_lines` or `_frames`, calls a mutating method on either, or binds either
to a name; no other module names them at all.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lightv_sim"
STORE_MODULE = "machine.py"
STORE_NAMES = {"_lines", "_frames"}
MUTATORS = {
    "append", "extend", "insert", "remove", "setdefault", "update",
    "pop", "popitem", "clear", "__setitem__",
}


def _names_store(node):
    """Whether `node` is `<x>._lines` or `<x>._frames`, or a subscript of one."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in STORE_NAMES


def _is_write(node, parent):
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return _names_store(node.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in MUTATORS and _names_store(node.func.value)
    # An alias, `lines = self._lines`, would let a write not name the store.
    aliased = isinstance(parent, (ast.Assign, ast.NamedExpr)) and node is parent.value
    return aliased and isinstance(node, ast.Attribute) and node.attr in STORE_NAMES


def write_sites(source):
    """(function, line) of each write into `_lines` or `_frames` in
    `source`: a subscript store or delete (augmented and tuple targets
    included), a call of a mutating method, or an assignment of either to
    a name.  `function` is `Class.method`, or "<module>" outside any."""
    sites = []

    def visit(node, scope, parent=None):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        elif _is_write(node, parent):
            sites.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, node)

    visit(ast.parse(source), "<module>")
    return sorted(sites, key=lambda site: site[1])


def named_store(source):
    """Whether `source` names the attribute `_lines` or `_frames` at all."""
    return any(
        isinstance(node, ast.Attribute) and node.attr in STORE_NAMES
        for node in ast.walk(ast.parse(source))
    )


def test_the_scan_sees_each_kind_of_write():
    writes = [
        "self._lines[a] = bytearray(64)",
        "self._lines[a] += payload",
        "self._lines.setdefault(a, bytearray(64))",
        "self._frames[a >> 12].append(a)",
        "lines = self._lines",
        "a, self._lines[b] = 1, line",
        "del dram._lines[a]",
        "self._frames[f].extend(more)",
        "(lines := self._lines)",
    ]
    assert write_sites("\n".join(writes)) == [("<module>", n) for n in range(1, 10)]
    method = "class Dram:\n    def write_bytes(self, a):\n        self._lines[a][0:8] = data\n"
    assert write_sites(method) == [("Dram.write_bytes", 3)]
    reads = [
        "line = self._lines.get(a)",
        "line = self._lines[a]",
        "b''.join(map(self._lines.__getitem__, whole))",
        "stored = self._frames.get(a >> 12)",
        "for a in sorted(self._lines): pass",
        "line[0:8] = data",
        "frame[0:64] = self._lines[a]",
    ]
    assert write_sites("\n".join(reads)) == []
    assert named_store("x = m.dram._lines") and not named_store("first_lines = {}")


def test_only_dram_store_writes_a_stored_line():
    sites = write_sites((PACKAGE / STORE_MODULE).read_text())
    # `_store` makes a line (one subscript store) and indexes it (one append)
    assert [scope for scope, _ in sites] == ["Dram._store", "Dram._store"]


def test_no_other_module_names_the_line_store():
    sources = sorted(PACKAGE.glob("*.py"))
    assert STORE_MODULE in {path.name for path in sources}
    assert named_store((PACKAGE / STORE_MODULE).read_text())  # the scan sees DRAM's own
    others = [path for path in sources if path.name != STORE_MODULE]
    assert [path.name for path in others if named_store(path.read_text())] == []
