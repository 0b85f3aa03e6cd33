"""Every name a library module imports is used in that module.

No linter ships with the test dependencies, so this parses each module of
``conceptua`` (the package ``__init__`` re-exports by design and is left out)
and fails on an imported name that no expression of the module reads.  A
name read only inside a string annotation counts as read.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "conceptua"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, at any depth."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including those inside string annotations."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _read(ast.parse(node.value, mode="eval"))
    return read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items() if name not in read)
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from x import a, b\nimport c.d\ndef f(y: 'b') -> None:\n    return c\n")
    assert set(_imported(tree)) - _read(tree) == {"a"}
