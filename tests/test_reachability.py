"""Every public library function is reached from the library itself.

A public module-level function of src/isoconv that only tests call is code no
suite or command runs: it gets wired into a suite or CLI path, or deleted.
This scan finds such functions by name: a function counts as reached when
some Name or Attribute node of src/isoconv, outside its own def, carries its
name.  Imports alone do not count.
"""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "isoconv"

# name -> why it may stay without a caller in the library
ALLOWED = {
    "project_samples": "the reference side of the projection identity "
                       "P_F Z_p(mu) = Z_p(P_F mu) that criterion 1 checks",
}


def _unreached():
    trees = {path: ast.parse(path.read_text()) for path in sorted(_SRC.glob("*.py"))}
    defs = {node.name: (path, node) for path, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    reached = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name not in defs:
                continue
            home, fn = defs[name]
            if path != home or not fn.lineno <= node.lineno <= fn.end_lineno:
                reached.add(name)
    return sorted(set(defs) - reached)


def test_every_public_function_is_reached_from_the_library():
    assert [name for name in _unreached() if name not in ALLOWED] == []


def test_allowlist_names_only_unreached_functions():
    # an entry whose function gained a caller, or is gone, is stale
    assert sorted(ALLOWED) == _unreached()
