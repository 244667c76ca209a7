"""Every public function in the package has a caller outside its own body.

A name counts as used when it appears as a name, an attribute of a cbound
module (``braids.f``, ``api.braids.f``, ``cbound.braids.f``), an imported
name, or a string holding a name or a dotted path (the benchmark's tracer
lists functions that way) in ``src/``, ``bench/`` or the acceptance gate.
Unit tests alone do not keep a function alive, and neither does the test
configuration, which only reads fixtures for them: oracles and readers that
only tests need live in ``tests/oracles.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cbound"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py",
]


def _names(node, skip=None):
    """Names used under ``node``, leaving out the subtree ``skip``."""
    out = set()
    todo = [node]
    while todo:
        n = todo.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and getattr(n.value, "id", getattr(n.value, "attr", None)) in MODULES:
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and re.fullmatch(r"[\w.]+", n.value):
            out.update(n.value.split("."))
        todo.extend(ast.iter_child_nodes(n))
    return out


def test_every_public_function_has_a_caller():
    trees = {path: ast.parse(path.read_text()) for path in USERS}
    names = {path: _names(tree) for path, tree in trees.items()}
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        others = set().union(*(n for p, n in names.items() if p != path))
        for fn in trees[path].body:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                if fn.name not in others | _names(trees[path], skip=fn):
                    uncalled.append("%s.%s" % (path.stem, fn.name))
    assert uncalled == []


def test_an_attribute_counts_only_on_a_module():
    assert "reverse" not in _names(ast.parse("path.reverse()"))
    for use in ["braids.reverse(b)", "api.braids.reverse(b)", "cbound.braids.reverse(b)"]:
        assert "reverse" in _names(ast.parse(use)), use
