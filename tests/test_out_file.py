"""``--out`` files against ``Path.write_text``, which the CLI used before.

``cli._write_file`` writes over the old bytes and trims the rest instead of
truncating first.  The earlier writer stays here as the oracle: both must
leave the same bytes, from a new file and over a longer or shorter old one.
An existing file must keep its inode and permission bits, and a device such
as ``/dev/null`` must still take the output.
"""

import os
import stat
from pathlib import Path

import pytest

import conceptua.cli as cli
from conceptua.cli import main

GOLDEN = Path(__file__).parent / "golden"
LATTICE_INPUTS = ["planets.cxt", "animals.csv", "shapes.json", "quoted.json"]
OUTPUTS = [["lattice", f"@{name}", "--format", fmt]
           for name in LATTICE_INPUTS for fmt in ("json", "dot")] + [["merge", "@span.json"]]
# What the --out file holds before the run: nothing, or a longer or shorter old file.
BEFORE = {"new": None, "longer": "x" * 20_000 + "\n", "shorter": "{}\n"}


def _run(argv, out: Path) -> int:
    return main([str(GOLDEN / a[1:]) if a.startswith("@") else a for a in argv]
                + ["--out", str(out)])


def _oracle(monkeypatch, argv, out: Path) -> int:
    with monkeypatch.context() as m:
        m.setattr(cli, "_write_file", lambda path, text: Path(path).write_text(text))
        return _run(argv, out)


@pytest.mark.parametrize("before", sorted(BEFORE))
@pytest.mark.parametrize("argv", OUTPUTS, ids=lambda argv: "-".join(a.lstrip("@-") for a in argv))
def test_out_bytes_equal_write_text(argv, before, tmp_path, monkeypatch, capsys):
    written, expected = tmp_path / "written", tmp_path / "expected"
    if BEFORE[before] is not None:
        for path in (written, expected):
            path.write_text(BEFORE[before])
    assert _run(argv, written) == _oracle(monkeypatch, argv, expected) == 0
    assert written.read_bytes() == expected.read_bytes()
    assert stat.S_IMODE(written.stat().st_mode) == stat.S_IMODE(expected.stat().st_mode)
    printed = capsys.readouterr().out.splitlines()
    assert printed[: len(printed) // 2] == printed[len(printed) // 2:]


def test_json_then_dot_to_one_path_leaves_the_dot_bytes(tmp_path, monkeypatch, capsys):
    written, expected = tmp_path / "written", tmp_path / "expected"
    for fmt in ("json", "dot"):
        argv = ["lattice", "@planets.cxt", "--format", fmt]
        assert _run(argv, written) == _oracle(monkeypatch, argv, expected) == 0
    dot = written.read_bytes()
    assert dot == expected.read_bytes()
    assert dot.decode() == "".join((GOLDEN / "lattice-cxt-dot.out").read_text()
                                   .splitlines(keepends=True)[:-1])


def test_existing_file_keeps_its_inode_and_mode(tmp_path, capsys):
    out = tmp_path / "lattice.json"
    out.write_text("x" * 10_000)
    out.chmod(0o640)
    before = out.stat()
    assert _run(["lattice", "@planets.cxt"], out) == 0
    after = out.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
    assert after.st_size == len(out.read_bytes()) < before.st_size


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_out_to_the_null_device_exits_0(capsys):
    assert main(["lattice", str(GOLDEN / "planets.cxt"), "--out", os.devnull]) == 0
    assert capsys.readouterr().out == "12 concepts\n"
