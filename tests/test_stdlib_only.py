"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lightv_sim"


def imported_top_levels(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {
        (path.name, name)
        for path in sources
        for name in imported_top_levels(path)
        if name not in sys.stdlib_module_names and name != "lightv_sim"
    }
    assert foreign == set()
