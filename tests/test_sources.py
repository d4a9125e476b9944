"""Checks on the source text of the package itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "autoind"

# Names a module imports only for others to import from it: the README's
# layout table documents ``satake.MAX_PARTS``, and tests/test_cli.py imports it.
REEXPORTS = {("satake", "MAX_PARTS")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name for name in imported - used if (path.stem, name) not in REEXPORTS}
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"
