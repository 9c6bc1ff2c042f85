"""Every module of the package and of the tests uses each name it imports,
and every function, class and method the package defines is referenced.

A name counts as used when the module refers to it anywhere (as a name or
as the base of an attribute) or, in ``__init__.py``, lists it in
``__all__`` as a re-export.  Only ``from __future__`` imports and lines
marked ``# noqa`` (imports kept for their side effect) are exempt.

A definition counts as referenced when some module of the package or of the
tests names it (as a name, as an attribute, or in ``__all__``).  Dunders and
the CLI's ``@main.command`` functions, which only Python or Click call, are
exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "fockbox").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _imported(tree, lines):
    """(line, bound name) of each import outside the exemptions."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            yield node.lineno, alias.asname or alias.name.split(".")[0]


def _referenced(tree, reexports):
    """Every name the module refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif reexports and isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= set(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    text = path.read_text()
    tree = ast.parse(text)
    used = _referenced(tree, reexports=path.name == "__init__.py")
    unused = [f"{path.name}:{line} {name}" for line, name in _imported(tree, text.splitlines())
              if name not in used]
    assert unused == []


def _is_command(decorator):
    """Whether ``decorator`` is ``@main.command`` or ``@main.command(...)``."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return (isinstance(decorator, ast.Attribute) and decorator.attr == "command"
            and isinstance(decorator.value, ast.Name) and decorator.value.id == "main")


def _defined(tree):
    """(line, name) of each function, class and method outside the exemptions."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        if not any(_is_command(d) for d in node.decorator_list):
            yield node.lineno, node.name


def test_every_definition_is_used():
    trees = {path: ast.parse(path.read_text()) for path in MODULES}
    used = set()
    for tree in trees.values():
        used |= _referenced(tree, reexports=True)
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unused = [f"{path.name}:{line} {name}" for path, tree in trees.items()
              if path.parent.name == "fockbox" for line, name in _defined(tree)
              if name not in used]
    assert unused == []
