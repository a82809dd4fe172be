"""Only octahedron.py fills the prism's layers L[z][y][x], in one fill per
direction: other modules fill prisms through its public functions, and the
layers it returns are indexed outside it in one place only,
cli.cmd_propagate (the ceiling L[-1]); condense and bijections read the
ceiling and a wall of a fill through its one reader, array_faces.  hives
reads shapes off condensed blocks and imports nothing from condense.  lr
only counts, in loops bounded by its step limit: it imports nothing from
the bijections, the verification suites or the value base, and no module
imports its private names.
Importing the CLI loads no introspection module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import octarray

SOURCES = sorted(Path(octarray.__file__).parent.glob("*.py"))


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in SOURCES}


def _imports_from(module):
    """(importing module, name) for every name imported from the module."""
    return [
        (name, alias.name)
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[-1] == module
        for alias in node.names
    ]


def test_no_module_imports_a_private_name_of_octahedron():
    assert [x for x in _imports_from("octahedron") if x[1].startswith("_")] == []


def test_no_module_imports_a_private_name_of_lr():
    assert [x for x in _imports_from("lr") if x[1].startswith("_")] == []


def test_lr_imports_nothing_from_bijections_checks_or_values():
    imported = {node.module.split(".")[-1] for node in ast.walk(_trees()["lr.py"])
                if isinstance(node, ast.ImportFrom) and node.module}
    assert "hives" in imported
    assert imported.isdisjoint({"bijections", "checks", "values"})


def test_lr_has_no_while_loop():
    """Every LR search loops over range(MAX_SEARCH_NODES + 1), so a new
    search cannot escape the step limit."""
    assert not any(isinstance(node, ast.While) for node in ast.walk(_trees()["lr.py"]))


def test_hives_imports_nothing_from_condense():
    """A pair's type is read off its condensed blocks, not condensed again."""
    assert [x for x in _imports_from("condense") if x[0] == "hives.py"] == []


def _modules_referencing(name):
    return {
        module
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if name in (getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "name", None))
    }


def test_prism_layers_is_referenced_only_in_octahedron():
    assert _modules_referencing("_prism_layers") == {"octahedron.py"}


def test_only_cli_takes_the_layers_of_a_fill_over_an_array():
    """Everyone else reads the faces of the fill through array_faces;
    cmd_propagate lists every layer."""
    assert _modules_referencing("array_layers") == {"octahedron.py", "cli.py"}


def test_only_the_two_fills_and_is_polarized_reference_or_step():
    """One octahedron rule, or_row, and one fill per direction in
    octahedron.py: _prism_layers forward, the tetrahedron included, and
    rsk_inverse backward; is_polarized checks the rule on any solid through
    its one-point case or_step."""
    def users(name):
        return {getattr(top, "name", "<module>")
                for top in _trees()["octahedron.py"].body
                for node in ast.walk(top)
                if name in (getattr(node, "id", None), getattr(node, "attr", None))}

    assert users("or_row") == {"or_step", "_prism_layers", "rsk_inverse"}
    assert users("or_step") == {"is_polarized"}


def test_importing_the_cli_loads_no_introspection_module():
    """The CLI pays for its imports on every call: dataclasses pulls in
    inspect, ast, dis and tokenize.  Compared with the modules loaded before
    the import, since a site hook may already have loaded typing."""
    code = ("import sys; before = set(sys.modules); import octarray.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(Path(octarray.__file__).parents[1]))
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "octarray.cli" in added
    banned = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}
    assert banned.isdisjoint(added)


def test_no_module_imports_dataclasses_inspect_or_typing():
    # the subprocess check above cannot see typing where a site hook loads it
    modules = set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules.add(node.module.split(".")[0])
    assert "fractions" in modules
    assert modules.isdisjoint({"dataclasses", "inspect", "typing"})


def test_prism_fill_normalizes_nothing():
    """Only propagate_prism_faces takes face values from outside and
    normalizes them; the recurrence and the fill over an array run on the
    program's own values."""
    functions = {node.name: node for node in ast.walk(_trees()["octahedron.py"])
                 if isinstance(node, ast.FunctionDef)}
    for name in ("_prism_layers", "array_layers"):
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(functions[name]) if isinstance(node, ast.Call)}
        assert "normalize" not in called, name
    assert "normalize" in {node.id for node in ast.walk(functions["propagate_prism_faces"])
                           if isinstance(node, ast.Name)}


# names imported only so that bench/tracing.py finds them in the module that
# makes the calls it counts
TRACED_ONLY = {("condense.py", "is_d_tight"), ("lr.py", "is_l_tight"),
               ("lr.py", "is_discrete_concave")}


def test_no_module_imports_a_name_it_never_uses():
    """Every imported name is read somewhere in its module, the package's
    re-exports in __init__.py and the tracer's targets aside."""
    unused = set()
    for name, tree in _trees().items():
        if name == "__init__.py":
            continue
        imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update((name, x) for x in imported - used)
    assert sorted(unused - TRACED_ONLY) == []
    assert TRACED_ONLY <= unused  # a target the module now calls needs no exception
