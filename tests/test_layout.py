"""The layer layout L[z][y][x] of the prism is known to octahedron.py alone:
other modules fill and read prisms through its public functions."""

import ast
from pathlib import Path

import octarray

SOURCES = sorted(Path(octarray.__file__).parent.glob("*.py"))


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in SOURCES}


def test_no_module_imports_a_private_name_of_octahedron():
    private = [
        (name, alias.name)
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[-1] == "octahedron"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_prism_layers_is_referenced_only_in_octahedron():
    users = {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if "_prism_layers" in (getattr(node, "id", None), getattr(node, "attr", None),
                               getattr(node, "name", None))
    }
    assert users == {"octahedron.py"}
