"""CLI start-up: one parser per process, each command imports only its layers,
and a re-import frees the previous generation of the library.

The parser tests compare a run of ``main`` on the shared parser with the
same run on a parser built afresh for every call.  The import tests run in
a child interpreter, since this process has already imported every layer
(and re-importing here would split class identity for the other tests).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conceptua import cli

ROOT = Path(__file__).resolve().parent.parent
PLANETS = str(ROOT / "tests" / "golden" / "planets.cxt")

# a valid call, a usage error, help, and the valid call again
SEQUENCE = [["lattice", PLANETS], ["lattice", "--format", "svg", PLANETS], ["--help"],
            ["lattice", PLANETS]]


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of ``main``, whether it returns or exits."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_a_sequence_of_calls(capsys, monkeypatch):
    cli.build_parser.cache_clear()
    shared = [_outcome(argv, capsys) for argv in SEQUENCE]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_outcome(argv, capsys) for argv in SEQUENCE]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 0]
    assert "invalid choice: 'svg'" in shared[1][2]
    assert shared[2][1].startswith("usage: conceptua")
    assert shared[0] == shared[3]


def test_shared_parser_formats_help_at_the_current_width(capsys, monkeypatch):
    helps = []
    for columns in ("50", "150"):
        monkeypatch.setenv("COLUMNS", columns)
        helps.append(_outcome(["lattice", "--help"], capsys))
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            assert _outcome(["lattice", "--help"], capsys) == helps[-1]
    assert helps[0] != helps[1]


def _child(code: str, *args: str) -> dict:
    """The JSON object a fresh interpreter prints last after running ``code``."""
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LATTICE_CHILD = """
import json, sys
import conceptua.cli

def heavy():
    return sorted(m for m in ("conceptua.institution", "conceptua.verify") if m in sys.modules)

after_import = heavy()
code = conceptua.cli.main(["lattice", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"after_import": after_import, "code": code, "after_main": heavy()}))
"""


def test_lattice_loads_neither_institution_nor_verify(tmp_path):
    got = _child(LATTICE_CHILD, PLANETS, str(tmp_path / "lattice.json"))
    assert got == {"after_import": [], "code": 0, "after_main": []}
    assert json.loads((tmp_path / "lattice.json").read_text())["concepts"]


MERGE_CHILD = """
import json, sys
import conceptua.cli

code = conceptua.cli.main(["merge", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "after_main": sorted(
    m for m in ("conceptua.clg", "conceptua.verify") if m in sys.modules)}))
"""


def test_merge_loads_neither_clg_nor_verify(tmp_path):
    span = str(ROOT / "tests" / "golden" / "span.json")
    got = _child(MERGE_CHILD, span, str(tmp_path / "merged.json"))
    assert got == {"code": 0, "after_main": []}
    assert json.loads((tmp_path / "merged.json").read_text())["models"]


PACKAGE_CHILD = """
import json, sys
import conceptua

loaded = sorted(m for m in sys.modules if m.startswith("conceptua."))
listed = dir(conceptua)
submodule = conceptua.institution.__name__
star = {}
exec("from conceptua import *", star)
names = conceptua.__all__
print(json.dumps({
    "loaded_by_import": loaded,
    "missing_from_dir": [n for n in names if n not in listed],
    "missing_from_star": [n for n in names if n not in star],
    "unresolved": [n for n in names if getattr(conceptua, n) is not star[n]],
    "not_the_home_object": [n for n in names if n != "__version__" and getattr(conceptua, n)
                            is not getattr(sys.modules["conceptua." + conceptua._HOME[n]], n)],
    "submodule": submodule,
    "unknown_name_raises": not hasattr(conceptua, "no_such_name"),
    "count": len(names),
}))
"""


def test_package_names_resolve_on_first_access():
    got = _child(PACKAGE_CHILD)
    assert got == {"loaded_by_import": [], "missing_from_dir": [], "missing_from_star": [],
                   "unresolved": [], "not_the_home_object": [],
                   "submodule": "conceptua.institution", "unknown_name_raises": True,
                   "count": 64}


REIMPORT_CHILD = """
import gc, importlib, json, pkgutil, sys, weakref

LAYERS = sorted(m.name for m in pkgutil.iter_modules(importlib.import_module("conceptua").__path__))

def generation():
    # import every layer, note its module and classes weakly, then drop the package
    refs = {}
    for layer in LAYERS:
        module = importlib.import_module("conceptua." + layer)
        refs[module.__name__] = weakref.ref(module)
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                refs[module.__name__ + "." + name] = weakref.ref(value)
    for name in [m for m in sys.modules if m == "conceptua" or m.startswith("conceptua.")]:
        del sys.modules[name]
    return refs

earlier = [generation(), generation()]
latest = generation()
gc.collect()
print(json.dumps({
    "layers": LAYERS,
    "survivors": sorted({name for refs in earlier for name, ref in refs.items() if ref() is not None}),
    "probed": [len(refs) for refs in earlier + [latest]],
}))
"""


def test_reimport_frees_every_earlier_generation():
    """Nothing process-wide (a ``typing`` alias cache, say) keeps an earlier
    import's modules or classes alive once the package leaves ``sys.modules``."""
    got = _child(REIMPORT_CHILD)
    assert got["layers"] == sorted(p.stem for p in (ROOT / "src" / "conceptua").glob("*.py")
                                   if p.name != "__init__.py")
    assert got["survivors"] == []
    assert len(set(got["probed"])) == 1 and got["probed"][0] > len(got["layers"])
