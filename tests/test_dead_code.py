"""Every top-level def and class in src/spochar is referenced in src/ outside
its own definition, so dead code and API that only the tests call do not
come back.  Imports and __all__ entries are not references; a call, a read
or an attribute access is."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spochar"

# Entry points of the library that no code in the package calls, each with
# the reason it stays.
ALLOWED = {
    "kernel_tensor_natural_report": "library entry point: the character-level report on ker (x) V, "
    "which no CLI command prints",
}


def _referenced(node):
    """Names read and attributes accessed anywhere inside node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _unreferenced():
    definitions = []  # (module path, top-level statement index, name)
    uses = {}  # (module path, top-level statement index) -> referenced names
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for index, stmt in enumerate(tree.body):
            uses[path, index] = _referenced(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path, index, stmt.name))
    return {
        f"{path.relative_to(SRC)}:{name}"
        for path, index, name in definitions
        if not any(name in names for key, names in uses.items() if key != (path, index))
    }


def test_every_top_level_definition_is_referenced():
    # equality, not inclusion: an allowlisted name that gains a caller or is
    # deleted must leave the list too
    assert {entry.split(":")[1] for entry in _unreferenced()} == set(ALLOWED)


# The enumerations of W, kept for the independent oracles of acceptance.py.
W_SUMS = ("weyl_group", "weyl_act", "alternating_terms", "antisymmetrize")


def test_w_is_enumerated_only_by_the_oracles():
    # no character formula sums over W: outside rootdata.py, which defines
    # them, only acceptance.py's oracles may reference the W-sums
    readers = {}
    for path in sorted(SRC.rglob("*.py")):
        names = _referenced(ast.parse(path.read_text(), filename=str(path)))
        for name in W_SUMS:
            if name in names:
                readers.setdefault(name, set()).add(str(path.relative_to(SRC)))
    assert set(readers) == set(W_SUMS)
    assert set().union(*readers.values()) <= {"rootdata.py", "acceptance.py"}, readers
