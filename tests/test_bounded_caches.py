"""Every functools.lru_cache in src/spochar has an explicit finite maxsize,
so no process-wide table grows without bound (`functools.cache`, which is
unbounded, is refused too)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spochar"


def _cache_name(node, imported):
    """'lru_cache' or 'cache' when node names functools' decorator, by a
    name imported from functools or as an attribute of functools."""
    if isinstance(node, ast.Name):
        return imported.get(node.id)
    if (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
            and isinstance(node.value, ast.Name) and node.value.id == "functools"):
        return node.attr
    return None


def _maxsize(call, constants):
    """The maxsize of an lru_cache(...) call: an int literal or a module-level
    int constant; None when it is absent or anything else."""
    if call is None:
        return None
    given = [kw.value for kw in call.keywords if kw.arg == "maxsize"] or call.args[:1]
    node = given[0] if given else None
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return node.value if isinstance(node, ast.Constant) and type(node.value) is int else None


def unbounded(root):
    """(uses, [file:line of each use of lru_cache or cache without a positive
    int maxsize]) over the Python files under root."""
    uses, found = 0, []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        constants = {target.id: stmt.value.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                     and isinstance(stmt.value, ast.Constant) and type(stmt.value.value) is int
                     for target in stmt.targets if isinstance(target, ast.Name)}
        imported = {alias.asname or alias.name: alias.name for stmt in ast.walk(tree)
                    if isinstance(stmt, ast.ImportFrom) and stmt.module == "functools"
                    for alias in stmt.names if alias.name in ("lru_cache", "cache")}
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            name = _cache_name(node, imported)
            if name is None:
                continue
            uses += 1
            size = _maxsize(calls.get(id(node)), constants) if name == "lru_cache" else None
            if not (isinstance(size, int) and size > 0):
                found.append((str(path.relative_to(root)), node.lineno))
    return uses, [f"{name}:{line}" for name, line in sorted(found)]


def test_every_lru_cache_in_src_has_a_finite_maxsize():
    uses, found = unbounded(SRC)
    assert uses > 0  # the scan sees the tables it guards
    assert found == []


def test_the_scan_refuses_unbounded_and_implicit_sizes(tmp_path):
    (tmp_path / "ok.py").write_text(
        "import functools\nfrom functools import lru_cache\nSIZE = 64\n"
        "@lru_cache(maxsize=SIZE)\ndef a(x): return x\n"
        "@functools.lru_cache(32)\ndef b(x): return x\n"
    )
    (tmp_path / "bad.py").write_text(
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(x): return x\n"
        "@lru_cache\ndef b(x): return x\n"
        "@functools.cache\ndef c(x): return x\n"
        "@lru_cache(maxsize=UNKNOWN)\ndef d(x): return x\n"
        "@cache\ndef e(x): return x\n"
    )
    # names that are not functools' decorators are not counted
    (tmp_path / "other.py").write_text("cache = {}\nlru_cache = cache.get\nlru_cache(1)\n")
    assert unbounded(tmp_path) == (7, ["bad.py:3", "bad.py:5", "bad.py:7", "bad.py:9", "bad.py:11"])
