"""Every public library function is reached, and every record field read, from the library.

A public module-level function of src/isoconv that only tests call is code no
suite or command runs: it gets wired into a suite or CLI path, or deleted.
This scan finds such functions by name: a function counts as reached when
some Name or Attribute node of src/isoconv, outside its own def, carries its
name.  Imports alone do not count.

Records carry only what the library reads, so the same holds for the fields
of every dataclass of src/isoconv: a field counts as read when some attribute
load in src/isoconv (its own class's methods included) carries its name, or
some string constant is its name, as the CSV columns and the SUITES `reads`
strings are.  Passing a field to the constructor does not count.

A defaulted parameter that no call passes is a knob that only tests set, so
the same holds for the defaulted parameters of every module-level function of
src/isoconv: one counts as passed when some call in src/isoconv whose callee
(a Name or Attribute) carries the function's name passes it by position or by
keyword.  A call with *args or **kwargs counts as passing every parameter.
"""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "isoconv"

# name -> why it may stay without a caller in the library
ALLOWED = {}

# "Class.field" -> why it may stay without a reader in the library
ALLOWED_FIELDS = {}

# "module.function.parameter" -> why its default may stay the only value the
# library passes
ALLOWED_DEFAULTS = {
    "grassmann.volume_radius_lowdim.method": "the benchmark's tracer binds it to count "
                                             "the hull halfspaces",
    "grassmann.volume_radius_lowdim.n_directions": "the benchmark's tracer binds it to "
                                                   "count the hull halfspaces",
    "cli.main.argv": "the entry point: the console script passes nothing, tests pass argv",
}


def _trees():
    return {path: ast.parse(path.read_text()) for path in sorted(_SRC.glob("*.py"))}


def _unreached():
    trees = _trees()
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


def _is_dataclass(cls):
    targets = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(t, ast.Name) and t.id == "dataclass" for t in targets)


def _unread_fields():
    trees = _trees()
    fields = {(cls.name, stmt.target.id) for tree in trees.values() for cls in tree.body
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls) for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(f"{cls}.{field}" for cls, field in fields if field not in read)


def test_every_record_field_is_read_by_the_library():
    assert [key for key in _unread_fields() if key not in ALLOWED_FIELDS] == []


def test_field_allowlist_names_only_unread_fields():
    # an entry whose field gained a reader, or is gone, is stale
    assert sorted(ALLOWED_FIELDS) == _unread_fields()


def _unpassed_defaults():
    trees = _trees()
    params = {}  # (module, function, parameter) -> the function's positional names
    for path, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for name in defaulted:
                params[path.stem, fn.name, name] = positional
    passed = set()
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            name = getattr(callee, "id", None) or getattr(callee, "attr", None)
            spread = (any(isinstance(a, ast.Starred) for a in call.args)
                      or any(k.arg is None for k in call.keywords))
            keywords = {k.arg for k in call.keywords}
            for key, positional in params.items():
                if key[1] == name and (spread or key[2] in keywords
                                       or key[2] in positional[:len(call.args)]):
                    passed.add(key)
    return sorted(".".join(key) for key in set(params) - passed)


def test_every_defaulted_parameter_is_passed_by_the_library():
    assert [key for key in _unpassed_defaults() if key not in ALLOWED_DEFAULTS] == []


def test_default_allowlist_names_only_unpassed_parameters():
    # an entry whose parameter gained a caller that passes it, or is gone, is stale
    assert sorted(ALLOWED_DEFAULTS) == _unpassed_defaults()
