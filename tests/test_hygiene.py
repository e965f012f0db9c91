"""Source hygiene: every module of synthkit uses each name it imports, and
some module uses each private function and class it defines."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "synthkit"


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of each import, skipping __future__ features."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _used(tree: ast.Module) -> set:
    """Names read anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        for ann in annotations:
            for sub in ast.walk(ann):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= _used(ast.parse(sub.value, mode="eval"))
    return used


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    return sorted(
        (line, name) for name, line in _imported(tree).items() if name not in used
    )


def _references(node: ast.AST, skip: ast.AST) -> set:
    """Names and attributes read under node, outside the subtree skip."""
    out = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name):
            out.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            out.add(cur.attr)
        stack.extend(ast.iter_child_nodes(cur))
    return out


def unreferenced_private_defs(paths: list) -> list:
    """Module-level private functions and classes that no module reads,
    not counting the definition's own body."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    out = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if not any(node.name in _references(t, node) for t in trees.values()):
                out.append((path.name, node.lineno, node.name))
    return sorted(out)


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def test_scan_covers_the_package():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Iterable, Mapping\n"
        "def f(x: 'Mapping') -> int:\n"
        "    return len(x)\n"
    )
    assert unused_imports(module) == [(2, "os"), (3, "Iterable")]


def test_no_unreferenced_private_defs():
    assert unreferenced_private_defs(sorted(SRC.glob("*.py"))) == []


def test_scan_finds_an_unreferenced_private_def(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n"
        "    return 1\n"
        "def _dead():\n"
        "    return _used()\n"
        "def _recursive(n):\n"
        "    return n and _recursive(n - 1)\n"
        "class _Hidden:\n"
        "    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import _used\n"
        "from . import a\n"
        "VALUE = a._used()\n"
    )
    paths = sorted(tmp_path.glob("*.py"))
    assert unreferenced_private_defs(paths) == [
        ("a.py", 3, "_dead"),
        ("a.py", 5, "_recursive"),
        ("a.py", 7, "_Hidden"),
    ]


def _is_assertion_error(exc) -> bool:
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def inline_checks(path: Path) -> list:
    """(qualified name of the enclosing definition, line) of each
    `raise AssertionError` and each assert statement in a module."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Assert) or (
                isinstance(child, ast.Raise) and _is_assertion_error(child.exc)
            ):
                out.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return out


# The stabilization guards: each marks a bound that a theorem says is
# never reached, not a second route to an answer.
STABILIZATION_GUARDS = {
    ("ideals.py", "IdealHandle.local_dual_space"),
    ("ideals.py", "vanishing_order"),
}


def test_no_second_routes_by_assertion():
    found = sorted(
        (path.name, scope, line)
        for path in sorted(SRC.glob("*.py"))
        for scope, line in inline_checks(path)
    )
    assert [f for f in found if f[:2] not in STABILIZATION_GUARDS] == []


def test_scan_finds_inline_checks(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def solve(x):\n"
        "    if x:\n"
        "        raise AssertionError('recheck failed')\n"
        "    return x\n"
        "class Handle:\n"
        "    def method(self):\n"
        "        assert self\n"
        "        raise AssertionError\n"
        "def other():\n"
        "    raise ValueError('not a check')\n"
    )
    assert inline_checks(module) == [("solve", 3), ("Handle.method", 7), ("Handle.method", 8)]
