"""The CLI parses each call once, with its command's parser, and answers as
the two-level parse does.

``old_main`` is ``main`` before the dispatch: the top-level ``parse_args``,
then the same command.  Every argv of ``CORPUS`` must give both the same
exit code, stdout and stderr, byte for byte, and every valid argv the same
``Namespace``.  argparse words its messages differently between Python
versions, so the oracle runs on the same interpreter as ``main``.

``compare`` needs nothing from pytest, so with a stub ``pytest`` module it
runs the corpus under an interpreter that has no pytest.
"""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from conceptua import cli
from conceptua.errors import ConceptuaError, ParseError, SizeLimitError

from test_golden_cli import CASES

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ["lattice", "verify", "infomap", "merge", "institution"]

# (argv, COLUMNS or None); "@name" is a file in GOLDEN, "@tmp" a scratch output path
CORPUS = [(argv, None) for argv, _ in CASES.values()] + [
    (["lattice", "@planets.cxt", "extra"], None),
    (["lattice", "@planets.cxt", "--bogus"], None),
    (["lattice"], None),
    (["lattice", "--format", "svg", "@planets.cxt"], None),
    (["lattice", "--", "@planets.cxt"], None),
    (["lattice", "--out=@tmp", "@planets.cxt"], None),
    (["lattice", "@planets.cxt", "--form", "dot"], None),
    (["verify", "--cases", "x"], None),
    (["verify", "--suite", "nope"], None),
    (["institution", "--vars", "x"], None),
    (["infomap", "@info_a.cxt"], None),
    (["merge"], None),
    (["bogus"], None),
    ([], None),
    (["--help"], None),
    (["-h", "lattice"], None),
] + [([command, "--help"], columns) for columns in ("80", "150") for command in COMMANDS]


def old_main(argv=None) -> int:
    """``cli.main`` as it was before the dispatch: one top-level parse."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return cli.EXIT_PARSE
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return cli.EXIT_RESOURCE
    except ConceptuaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_FAILURE


def resolve(argv, tmp: Path) -> list[str]:
    argv = [a.replace("@tmp", str(tmp / "out")) for a in argv]
    return [str(GOLDEN / a[1:]) if a.startswith("@") else a for a in argv]


def outcome(run, argv):
    """(exit code, stdout, stderr, texts of ``--out=`` files) of ``run(argv)``,
    whether it returns or exits; verify's timings read ``T``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    words = sys.argv[1:] if argv is None else argv
    written = [Path(a[len("--out="):]).read_text() for a in words if a.startswith("--out=")]
    return code, re.sub(r", \d+\.\d+s\)", ", Ts)", out.getvalue()), err.getvalue(), written


def compare(argv, tmp: Path) -> list[str]:
    """How ``main`` and ``old_main`` differ on ``argv``: output, then namespace."""
    argv = resolve(argv, tmp)
    new, old = outcome(cli.main, argv), outcome(old_main, argv)
    if new != old:
        return [f"{argv}: main gave {new!r}, old_main {old!r}"]
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = cli.build_parser().parse_args(argv)
    except SystemExit:
        return []
    got = cli._parse_args(argv)
    return [] if got == expected else [f"{argv}: namespace {got} != {expected}"]


@pytest.mark.parametrize("argv, columns", CORPUS,
                         ids=[" ".join(argv) + (f" COLUMNS={c}" if c else "") for argv, c in CORPUS])
def test_dispatch_answers_as_the_top_level_parse(argv, columns, monkeypatch, tmp_path):
    if columns:
        monkeypatch.setenv("COLUMNS", columns)
    assert compare(argv, tmp_path) == []


def test_the_corpus_covers_every_command():
    assert sorted(cli.build_parser().commands) == sorted(COMMANDS)
    assert {argv[0] for argv, _ in CASES.values()} == set(COMMANDS)


@pytest.mark.parametrize("argv", [["lattice", "@planets.cxt", "--format", "dot"],
                                  ["lattice", "@planets.cxt", "extra"], ["-h", "lattice"]])
def test_console_script_path_reads_sys_argv(argv, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "argv", ["conceptua"] + resolve(argv, tmp_path))
    assert outcome(cli.main, None) == outcome(old_main, None)


def test_leftover_words_get_the_top_level_message(capsys):
    for argv, word in [(["lattice", "@planets.cxt", "extra"], "extra"),
                       (["institution", "--demo"], "--demo")]:
        with pytest.raises(SystemExit) as exc:
            cli.main(resolve(argv, GOLDEN))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: conceptua [-h]")
        assert err.splitlines()[-1] == f"conceptua: error: unrecognized arguments: {word}"

