"""Every name a library module imports is used in that module, every
private module-level name is read somewhere in the package, and every public
name is reached by something other than the tests.

No linter ships with the test dependencies, so this parses each module of
``conceptua`` (the package ``__init__`` re-exports by design and is left out)
and fails on an imported name that no expression of the module reads, or on
a function, class or assignment named with a leading underscore that no
module of the package reads, by name or as a module attribute.  A name read
only inside a string annotation counts as read.  A public name, one in a
module's ``__all__`` or any top-level function or class without a leading
underscore, must be read by the package or by ``bench/``, re-exported by the
package, or kept on ``TEST_REACHED`` with its reason.  Likewise every field of
a value class, a name in a ``_Record`` subclass's ``__match_args__``, must be
read as an attribute by the package or by ``bench/``, or be kept on
``FIELDS_UNREAD`` with its reason; an attribute of a name bound by an import,
such as ``os.open``, is not a field read.  A concept is held as its extent
and intent ints, so no module but ``clg``, which builds the ``FormalConcept``
view, reads ``.extent`` or ``.intent``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import conceptua
from conceptua.finrel import _Record

SRC = Path(__file__).resolve().parent.parent / "src" / "conceptua"
BENCH = SRC.parent.parent / "bench"
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
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
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


def _private(tree: ast.Module) -> dict[str, int]:
    """Line of every module-level function, class or assignment whose name has
    one leading underscore."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        names.update((name, node.lineno) for name in bound
                     if name.startswith("_") and not name.startswith("__"))
    return names


def _read_anywhere(trees) -> set[str]:
    """Names read in any of the trees, by name or as an attribute."""
    trees = list(trees)
    return _attributes_read(trees).union(*map(_read, trees))


def _attributes_read(trees) -> set[str]:
    """Names read as an attribute in any of the trees."""
    return {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_every_private_name_is_read_in_the_package():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    read = _read_anywhere(trees.values())
    unread = [f"{name}:{line} {private}" for name, tree in trees.items() if name != "__init__.py"
              for private, line in _private(tree).items() if private not in read]
    assert not unread, "private names no module reads: " + ", ".join(unread)


def test_the_check_sees_an_unread_private_name():
    tree = ast.parse("import m\n_a = 1\n_b, c = 2, 3\n_d: int = m._e\n__all__ = []\n"
                     "def _f():\n    return _a\nclass _C:\n    pass\nx: '_C' = None\n")
    other = ast.parse("import m\ny = m._d\n")
    assert set(_private(tree)) == {"_a", "_b", "_d", "_f", "_C"}
    assert set(_private(tree)) - _read_anywhere([tree, other]) == {"_b", "_f"}


# Public names that only the tests reach, each kept for what it states or checks.
TEST_REACHED = {
    "finset": "validating constructor: a carrier from its labels, as the tests write it",
    "concept_lattice_from_parts": "validating constructor: rejects a non-concept lattice",
}


def _bench_reads() -> set[str]:
    """Names ``bench/`` reads, by name, as an attribute, or as a dotted string
    (the tracer looks its targets up by name)."""
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(BENCH.glob("*.py"))]
    strings = {part for tree in trees for n in ast.walk(tree)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)
               for part in n.value.split(".")}
    return _read_anywhere(trees) | strings


def _public(path: Path) -> set[str]:
    """The module's ``__all__`` and every top-level function or class
    without a leading underscore."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    return defined | set(getattr(importlib.import_module(f"conceptua.{path.stem}"), "__all__", ()))


def test_every_public_name_is_reached_outside_the_tests():
    reached = _read_anywhere(ast.parse(p.read_text(), filename=str(p)) for p in MODULES)
    reached |= _bench_reads()
    reached |= {name for names in conceptua._EXPORTS.values() for name in names}
    public = {f"{path.stem}.{name}": name for path in MODULES for name in _public(path)}
    unreached = {dotted: name for dotted, name in public.items() if name not in reached}
    extra = sorted(dotted for dotted, name in unreached.items() if name not in TEST_REACHED)
    assert not extra, "public names only the tests reach: " + ", ".join(extra)
    assert sorted(unreached.values()) == sorted(TEST_REACHED), "stale TEST_REACHED entries"


# Fields that nothing in the package or ``bench/`` reads as an attribute,
# each kept for what it states.
FIELDS_UNREAD = {
    "SatisfactionReport.models_checked": "the size of the check, shown in the report's repr",
    "SatisfactionReport.sentences_checked": "the size of the check, shown in the report's repr",
    "EndorelationFlags.symmetric": "one of the classifier's five flags, the others all read",
    "PolarFactorization.original": "the factorized adjunction, kept beside its two factors",
    "ClosureInterior.closed_inclusion": "the closed sub-poset (its source) and its indices",
    "ClosureInterior.open_inclusion": "the open sub-poset (its source) and its indices",
}


def _field_reads(trees) -> set[str]:
    """Names read as an attribute in any of the trees, off anything but a name
    that an import of that tree binds: ``os.open`` reads no field."""
    read = set()
    for tree in trees:
        modules = set(_imported(tree))
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                 and not (isinstance(n.value, ast.Name) and n.value.id in modules)}
    return read


def _unread_fields(fields: dict[str, tuple[str, ...]], trees) -> set[str]:
    """``Class.field`` for each field of each class that no tree reads as an attribute."""
    read = _field_reads(trees)
    return {f"{cls}.{name}" for cls, names in fields.items() for name in names if name not in read}


def test_every_field_is_read_outside_the_tests():
    modules = [importlib.import_module(f"conceptua.{path.stem}") for path in MODULES]
    fields = {cls.__name__: cls.__match_args__ for m in modules for cls in vars(m).values()
              if isinstance(cls, type) and issubclass(cls, _Record) and cls.__module__ == m.__name__}
    trees = [ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))]
    unread = _unread_fields(fields, trees)
    extra = sorted(unread - set(FIELDS_UNREAD))
    assert not extra, "fields only the tests read: " + ", ".join(extra)
    assert sorted(unread) == sorted(FIELDS_UNREAD), "stale FIELDS_UNREAD entries"


def test_the_check_sees_an_unread_field():
    tree = ast.parse("def f(a, y):\n    a.z = y\n    return a.x\n")
    assert _unread_fields({"A": ("x", "y", "z"), "B": ()}, [tree]) == {"A.y", "A.z"}


def test_the_check_sees_past_a_module_attribute_of_the_same_name():
    tree = ast.parse("import os\nfrom m import k\ndef f(a):\n    return os.open, k.y, a.x\n")
    other = ast.parse("def g(os):\n    return os.y\n")
    assert _unread_fields({"A": ("open", "x", "y")}, [tree]) == {"A.open", "A.y"}
    assert _unread_fields({"A": ("open", "x", "y")}, [tree, other]) == {"A.open"}


def _subset_reads(tree: ast.Module) -> list[int]:
    """Lines that read ``.extent`` or ``.intent`` off anything."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                  and n.attr in ("extent", "intent"))


def test_only_clg_reads_a_concept_as_subsets():
    found = [f"{p.name}:{line}" for p in sorted(SRC.glob("*.py")) if p.name != "clg.py"
             for line in _subset_reads(ast.parse(p.read_text(), filename=str(p)))]
    assert not found, "concepts read as FormalConcept outside clg: " + ", ".join(found)


def test_the_check_sees_a_concept_read_as_subsets():
    tree = ast.parse("def f(c, lat):\n    b = c.extent.bits\n    c.intent = lat.extents\n"
                     "    return lat.extent_reflection, c.intent\n")
    assert _subset_reads(tree) == [2, 4]
