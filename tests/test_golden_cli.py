"""CLI outputs compared byte for byte with the files under tests/golden/.

Each case runs ``main`` on inputs from tests/golden/ and compares its exit
code and its stdout (with verify's timings replaced by ``T``) with
``<case>.out``.  After an intended change of output, rewrite the files with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review the diff.
"""

import re
import sys
from pathlib import Path

import pytest

from conceptua.cli import main

GOLDEN = Path(__file__).parent / "golden"

# case name -> (argv, exit code); arguments starting with @ name files in GOLDEN
CASES = {
    "lattice-cxt-json": (["lattice", "@planets.cxt"], 0),
    "lattice-cxt-dot": (["lattice", "@planets.cxt", "--format", "dot"], 0),
    "lattice-csv-json": (["lattice", "@animals.csv"], 0),
    "lattice-csv-dot": (["lattice", "@animals.csv", "--format", "dot"], 0),
    "lattice-json-json": (["lattice", "@shapes.json"], 0),
    "lattice-json-dot": (["lattice", "@shapes.json", "--format", "dot"], 0),
    "lattice-quoted-json": (["lattice", "@quoted.json"], 0),
    "lattice-quoted-dot": (["lattice", "@quoted.json", "--format", "dot"], 0),
    "infomap-valid": (["infomap", "@info_a.cxt", "@info_b.cxt", "@info_valid.json"], 0),
    "infomap-invalid": (["infomap", "@info_a.cxt", "@info_b.cxt", "@info_invalid.json"], 1),
    "merge-check-universal": (["merge", "@span.json", "--check-universal"], 0),
    "institution-vars-2": (["institution", "--vars", "2"], 0),
    "institution-vars-3": (["institution", "--vars", "3"], 0),
    "institution-vars-4-depth-2": (["institution", "--vars", "4", "--depth", "2"], 0),
    "verify-all-negative-control": (
        ["verify", "--suite", "all", "--cases", "5", "--negative-control"], 1),
    "verify-all-seed-0": (["verify", "--suite", "all", "--seed", "0", "--cases", "100"], 0),
    "verify-all-seed-1": (["verify", "--suite", "all", "--seed", "1", "--cases", "100"], 0),
    "verify-all-seed-2": (["verify", "--suite", "all", "--seed", "2", "--cases", "100"], 0),
    "verify-all-seed-3": (["verify", "--suite", "all", "--seed", "3", "--cases", "100"], 0),
    "verify-all-seed-4": (["verify", "--suite", "all", "--seed", "4", "--cases", "100"], 0),
}


def _run(argv, read_stdout) -> tuple[int, str]:
    code = main([str(GOLDEN / a[1:]) if a.startswith("@") else a for a in argv])
    return code, re.sub(r", \d+\.\d+s\)", ", Ts)", read_stdout())


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys):
    argv, expected_code = CASES[case]
    code, out = _run(argv, lambda: capsys.readouterr().out)
    assert code == expected_code
    assert out == (GOLDEN / f"{case}.out").read_text()


if __name__ == "__main__":
    import contextlib
    import io

    for case, (argv, _) in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, out = _run(argv, buf.getvalue)
        (GOLDEN / f"{case}.out").write_text(out)
        print(f"{case}: exit {code}, {len(out)} bytes", file=sys.stderr)
