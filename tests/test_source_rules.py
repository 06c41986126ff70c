"""The package's "one place" rules, read from its source with ``ast``.

Each rule says where one thing may happen in ``src/fppvar``: a seed becomes
a generator only in ``edge_distributions._rng``, csgraph's Dijkstra
(``_solver()[1]``) runs only in ``fpp._solve``, ``scipy.sparse`` is
imported only inside ``fpp._solver``, on the first solve, and nothing reads
``GridSpec._adjacency``, which only the benchmark's set-up touches.
"""

import ast
from pathlib import Path

import fppvar

SRC = Path(fppvar.__file__).parent


def sites(match) -> set[str]:
    """'module.function' (or 'module' at top level) of every node of the
    package's source for which ``match`` holds."""
    found = set()

    def visit(node, scope):
        if match(node):
            found.add(".".join(scope))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), [path.stem])
    return found


def named(node, name: str) -> bool:
    """Whether ``node`` reads ``name`` as a bare name or an attribute."""
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name))


def dijkstra_pick(node) -> bool:
    """Whether ``node`` is ``_solver()[1]``, csgraph's dijkstra."""
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
            and named(node.value.func, "_solver")
            and isinstance(node.slice, ast.Constant) and node.slice.value == 1)


def sparse_import(node) -> bool:
    """Whether ``node`` imports scipy.sparse or anything from it."""
    if isinstance(node, ast.Import):
        return any(a.name.startswith("scipy.sparse") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("scipy.sparse") or (
            module == "scipy" and any(a.name == "sparse" for a in node.names))
    return False


def test_one_place_rules():
    assert sites(lambda node: named(node, "default_rng")) == {"edge_distributions._rng"}
    assert sites(dijkstra_pick) == {"fpp._solve"}
    assert sites(lambda node: named(node, "dijkstra")) == {"fpp._solver"}
    assert sites(sparse_import) == {"fpp._solver"}
    # Only the benchmark reads GridSpec._adjacency; the package never does.
    assert sites(lambda node: named(node, "_adjacency")) == set()
