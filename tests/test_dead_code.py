"""Every top-level def and class in src/spochar is referenced in src/ outside
its own definition, and every method is read outside its own body, so dead
code and API that only the tests call do not come back.  Imports and __all__
entries are not references; a call, a read or an attribute access is."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spochar"

# Entry points of the library that no code in the package calls, each with
# the reason it stays.
ALLOWED = {}


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


# Methods that no code in the package reads, each with the reason it stays.
ALLOWED_METHODS = {}


def _unread_methods():
    """Class.method for every method defined in a class body in src whose
    name is read as an attribute nowhere in src outside its own body.
    Dunders are left out: the language calls them.

    The match is by name, so methods of one name shield each other: a
    method is not reported while another class's method of its name is
    read.  So a Weight.scale with no caller hid behind the reads of
    SuperElement.scale."""
    methods, reads = [], []  # (class name, def); attribute nodes
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads += [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                methods += [(cls.name, stmt) for stmt in cls.body
                            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (stmt.name.startswith("__") and stmt.name.endswith("__"))]
    out = set()
    for cls_name, fn in methods:
        own = {id(node) for node in ast.walk(fn)}
        if not any(node.attr == fn.name and id(node) not in own for node in reads):
            out.add(f"{cls_name}.{fn.name}")
    return out


def test_every_method_is_read_outside_its_own_body():
    assert _unread_methods() == set(ALLOWED_METHODS)


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


def _monomial_image_callers(node, scope=""):
    """The qualified name of the function or class around each call of
    .monomial_image under node ("" at module level)."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out += _monomial_image_callers(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr == "monomial_image"):
            out.append(scope)
        out += _monomial_image_callers(child, scope)
    return out


def test_each_operator_images_monomials_one_way():
    # every LinearOperator subclass defines one monomial_image, and only
    # MonomialImages.image calls it: every image goes through the one packed
    # path, and no second image path can stay beside it
    classes, callers = {}, []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        classes.update((node.name, node) for node in ast.walk(tree) if isinstance(node, ast.ClassDef))
        callers += [f"{path.relative_to(SRC)}:{name}" for name in _monomial_image_callers(tree)]
    subclasses = {"LinearOperator"}
    while True:
        more = {name for name, node in classes.items()
                if any(isinstance(b, ast.Name) and b.id in subclasses for b in node.bases)} - subclasses
        if not more:
            break
        subclasses |= more
    subclasses.discard("LinearOperator")
    assert subclasses >= {"Derivation", "Laplacian"}
    for name in subclasses:
        images = [stmt for stmt in classes[name].body
                  if isinstance(stmt, ast.FunctionDef) and stmt.name == "monomial_image"]
        assert len(images) == 1, name
    assert callers == ["superspace.py:MonomialImages.image"]
