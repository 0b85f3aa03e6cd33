"""Command-line interface: commands, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import conceptua.clg as clg
import conceptua.verify as verify
from conceptua.cli import main

CONTRA2 = "B\n\n2\n2\n\n1\n2\na\nb\n.X\nX.\n"
EMPTY_1X1 = "B\n\n1\n1\n\n1\nt\n.\n"


@pytest.fixture
def contra2(tmp_path):
    path = tmp_path / "contra2.cxt"
    path.write_text(CONTRA2)
    return path


def test_lattice_contranominal_2(contra2, tmp_path, capsys):
    out = tmp_path / "lat.json"
    code = main(["lattice", str(contra2), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "4 concepts"
    data = json.loads(out.read_text())
    assert len(data["concepts"]) == 4
    assert data["objects"] == ["1", "2"]


def test_lattice_empty_1x1_counts_both_bipoles(tmp_path, capsys):
    # the bipole definition gives two concepts for the empty 1x1 context
    path = tmp_path / "empty.cxt"
    path.write_text(EMPTY_1X1)
    code = main(["lattice", str(path), "--out", str(tmp_path / "o.json")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2 concepts"


def test_lattice_dot_output(contra2, tmp_path, capsys):
    out = tmp_path / "lat.dot"
    code = main(["lattice", str(contra2), "--format", "dot", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("digraph")


@pytest.mark.parametrize("out", ["missing/o.json", "."], ids=["missing-directory", "directory"])
def test_lattice_unwritable_out_exits_2(contra2, tmp_path, capsys, out):
    code = main(["lattice", str(contra2), "--out", str(tmp_path / out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"parse error: cannot write {tmp_path / out}: ")


@pytest.mark.parametrize("argv, path, reason", [
    (["lattice", "", "--informat", "cxt"], "", "[Errno 2] No such file or directory: ''"),
    (["lattice", "./nope.cxt"], "./nope.cxt",
     "[Errno 2] No such file or directory: './nope.cxt'"),
    (["lattice", "./dir.cxt"], "./dir.cxt", "[Errno 21] Is a directory: './dir.cxt'"),
    (["lattice", "bytes.cxt"], "bytes.cxt",
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (["infomap", "w.cxt", "w.cxt", "./nope.json"], "./nope.json",
     "[Errno 2] No such file or directory: './nope.json'"),
], ids=["empty", "missing", "directory", "undecodable", "infomap-mapping"])
def test_read_errors_name_the_path_as_typed(tmp_path, capsys, monkeypatch, argv, path, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir.cxt").mkdir()
    (tmp_path / "bytes.cxt").write_bytes(b"\xff\xfe")
    (tmp_path / "w.cxt").write_text(CONTRA2)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"parse error: cannot read {path}: {reason}\n")


def test_lattice_informat_override(tmp_path, capsys):
    path = tmp_path / "context.txt"  # extension gives no hint
    path.write_text(CONTRA2)
    code = main(["lattice", str(path), "--informat", "cxt", "--out", str(tmp_path / "o.json")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "4 concepts"


def test_lattice_malformed_cxt_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cxt"
    path.write_text("X\n\n1\n1\n\n1\nt\n.\n")
    code = main(["lattice", str(path)])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_lattice_size_limit_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CONCEPTUA_MAX_CARRIER", "1")
    path = tmp_path / "two.cxt"
    path.write_text(CONTRA2)
    code = main(["lattice", str(path)])
    assert code == 3
    assert "CONCEPTUA_MAX_CARRIER" in capsys.readouterr().err


def test_verify_default_passes_and_is_deterministic(capsys):
    code = main(["verify", "--suite", "clsn", "--seed", "3", "--cases", "15"])
    assert code == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "clsn", "--seed", "3", "--cases", "15"]) == 0
    second = capsys.readouterr().out

    def strip_times(text):
        import re

        return re.sub(r"\d+\.\d+s", "Ts", text)

    assert strip_times(first) == strip_times(second)
    assert "suite clsn: ok" in first


def test_verify_negative_control_exits_1(capsys):
    code = main(["verify", "--suite", "finrel", "--cases", "5", "--negative-control"])
    assert code == 1
    out = capsys.readouterr().out
    assert "witness" in out


def test_verify_all_suites_quick(capsys):
    assert main(["verify", "--suite", "all", "--seed", "1", "--cases", "8"]) == 0
    out = capsys.readouterr().out
    for name in ("finrel", "galois", "clsn", "clg", "institution"):
        assert f"suite {name}: ok" in out


def test_infomap_identity_valid(tmp_path, capsys):
    ctx = tmp_path / "w.cxt"
    ctx.write_text("B\n\n2\n2\n\n1\n2\na\nb\nXX\n.X\n")
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps({
        "inst_map": {"1": "1", "2": "2"},
        "typ_map": {"a": "a", "b": "b"},
    }))
    code = main(["infomap", str(ctx), str(ctx), str(mapping)])
    assert code == 0
    assert "infomorphism: valid" in capsys.readouterr().out


def test_infomap_invalid_exits_1_with_witness(tmp_path, capsys):
    ctx_a = tmp_path / "a.cxt"
    ctx_a.write_text("B\n\n2\n2\n\n1\n2\na\nb\nXX\n.X\n")
    ctx_b = tmp_path / "b.cxt"
    ctx_b.write_text("B\n\n2\n2\n\n1\n2\na\nb\n..\n..\n")
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps({
        "inst_map": {"1": "1", "2": "2"},
        "typ_map": {"a": "a", "b": "b"},
    }))
    code = main(["infomap", str(ctx_a), str(ctx_b), str(mapping)])
    assert code == 1
    assert "witness pair" in capsys.readouterr().out


def test_merge_span_file(tmp_path, capsys):
    span = tmp_path / "span.json"
    span.write_text(json.dumps({
        "base": ["q"],
        "left": {"signature": ["p", "q"], "models": [["q"], ["p", "q"]]},
        "right": {"signature": ["q", "r"], "models": [["q", "r"]]},
        "left_map": {"q": "q"},
        "right_map": {"q": "q"},
    }))
    out = tmp_path / "merged.json"
    code = main(["merge", str(span), "--out", str(out), "--check-universal"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "pushout signature: ['L.p', 'C.q', 'R.r']" in printed
    assert "universal property: ok" in printed
    data = json.loads(out.read_text())
    assert data["signature"] == ["L.p", "C.q", "R.r"]
    assert sorted(map(tuple, data["models"])) == [("C.q", "R.r"), ("L.p", "C.q", "R.r")]
    assert data["inconsistent"] is False


@pytest.mark.parametrize("out", ["missing/o.json", "."], ids=["missing-directory", "directory"])
def test_merge_unwritable_out_exits_2(tmp_path, capsys, out):
    span = Path(__file__).parent / "golden" / "span.json"
    code = main(["merge", str(span), "--out", str(tmp_path / out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"parse error: cannot write {tmp_path / out}: ")


def test_merge_inconsistent_warns_but_exits_0(tmp_path, capsys):
    span = tmp_path / "span.json"
    span.write_text(json.dumps({
        "base": ["q"],
        "left": {"signature": ["q"], "models": [["q"]]},
        "right": {"signature": ["q"], "models": [[]]},
        "left_map": {"q": "q"},
        "right_map": {"q": "q"},
    }))
    code = main(["merge", str(span)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "inconsistent" in printed


def test_merge_accepts_sentence_theories(tmp_path, capsys):
    span = tmp_path / "span.json"
    span.write_text(json.dumps({
        "base": ["q"],
        "left": {"signature": ["p", "q"], "sentence": "(var q)"},
        "right": {"signature": ["q", "r"], "sentence": "(and (var q) (var r))"},
        "left_map": {"q": "q"},
        "right_map": {"q": "q"},
    }))
    code = main(["merge", str(span)])
    assert code == 0
    data = json.loads(capsys.readouterr().out.split("pushout signature")[0])
    assert sorted(map(tuple, data["models"])) == [("C.q", "R.r"), ("L.p", "C.q", "R.r")]


def test_merge_bad_span_exits_2(tmp_path, capsys):
    span = tmp_path / "span.json"
    span.write_text("{}")
    assert main(["merge", str(span)]) == 2
    span.write_text(json.dumps({
        "base": [], "left": {"signature": ["p"]}, "right": {"signature": ["r"]},
        "left_map": {}, "right_map": {},
    }))
    assert main(["merge", str(span)]) == 2


def test_institution_demo(capsys):
    code = main(["institution", "--vars", "2", "--depth", "3", "--demo"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("all four styles pass") == 3


@pytest.mark.parametrize("name, text", [
    ("dup.cxt", "B\n\n2\n1\n\ng\ng\nm\nX\n.\n"),
    ("dup.csv", ",m\ng,1\ng,0\n"),
    ("dup.json", '{"source": ["g", "g"], "target": ["m"], "pairs": []}'),
    ("badpair.json", '{"source": ["g"], "target": ["m"], "pairs": [["x", 0]]}'),
])
def test_lattice_malformed_context_exits_2(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    code = main(["lattice", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("parse error:")


GOOD_SPAN = {
    "base": ["q"],
    "left": {"signature": ["p", "q"], "models": [["q"]]},
    "right": {"signature": ["q", "r"], "models": [["q", "r"]]},
    "left_map": {"q": "q"},
    "right_map": {"q": "q"},
}


@pytest.mark.parametrize("span, message", [
    ("base left right left_map right_map", "span JSON must be an object"),
    ({**GOOD_SPAN, "left": {"signature": "pq", "models": []}}, "left theory signature must be a list"),
    ({**GOOD_SPAN, "right": {"signature": ["q", "q"], "models": []}}, "repeats a variable"),
    ({**GOOD_SPAN, "left": {"signature": ["p", "q"], "models": "p"}}, "left theory models must be"),
    ({**GOOD_SPAN, "left": {"signature": ["p", "q"], "models": [["z"]]}}, "model variable 'z'"),
    ({**GOOD_SPAN, "right": {"signature": ["q"], "sentence": "(var z)"}}, "outside the signature"),
    ({**GOOD_SPAN, "left_map": {"q": "z"}}, "left_map sends 'q' to 'z'"),
    ({**GOOD_SPAN, "right_map": ["q"]}, "right_map must be an object"),
    ({**GOOD_SPAN, "left_map": {}}, "left_map has no entry for 'q'"),
    ({**GOOD_SPAN, "base": "q"}, "span base must be a list"),
])
def test_merge_malformed_theory_exits_2(tmp_path, capsys, span, message):
    path = tmp_path / "span.json"
    path.write_text(json.dumps(span))
    assert main(["merge", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and message in err


def test_merge_deeply_nested_sentence(tmp_path, capsys):
    span = {**GOOD_SPAN,
            "left": {"signature": ["p", "q"], "sentence": "(not " * 5000 + "(var q)" + ")" * 5000}}
    path = tmp_path / "span.json"
    path.write_text(json.dumps(span))
    assert main(["merge", str(path)]) == 0
    nested = capsys.readouterr().out
    path.write_text(json.dumps({**GOOD_SPAN, "left": {"signature": ["p", "q"], "sentence": "(var q)"}}))
    assert main(["merge", str(path)]) == 0
    assert capsys.readouterr().out == nested


@pytest.mark.parametrize("mapping, message", [
    ({"inst_map": {"1": "1"}, "typ_map": {"a": "a", "b": "b"}}, "inst_map has no entry for '2'"),
    ({"inst_map": ["1", "2"], "typ_map": {"a": "a", "b": "b"}}, "inst_map must be an object"),
    ({"inst_map": {"1": "1", "2": "2"}, "typ_map": {"a": "a", "b": "c"}}, "typ_map sends 'b' to 'c'"),
])
def test_infomap_malformed_mapping_exits_2(tmp_path, capsys, mapping, message):
    ctx = tmp_path / "w.cxt"
    ctx.write_text("B\n\n2\n2\n\n1\n2\na\nb\nXX\n.X\n")
    path = tmp_path / "map.json"
    path.write_text(json.dumps(mapping))
    assert main(["infomap", str(ctx), str(ctx), str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and message in err


def _random_cxt(rng, n_obj, n_att, density=0.3):
    lines = ["B", "", str(n_obj), str(n_att), ""]
    lines += [f"g{i}" for i in range(n_obj)] + [f"m{j}" for j in range(n_att)]
    lines += ["".join("X" if rng.random() < density else "." for _ in range(n_att))
              for _ in range(n_obj)]
    return "\n".join(lines) + "\n"


def test_infomap_identity_on_30x30_within_budget(tmp_path, capsys, time_budget):
    import random

    ctx = tmp_path / "c30.cxt"
    ctx.write_text(_random_cxt(random.Random(30), 30, 30))
    mapping = tmp_path / "map.json"
    mapping.write_text(json.dumps({
        "inst_map": {f"g{i}": f"g{i}" for i in range(30)},
        "typ_map": {f"m{j}": f"m{j}" for j in range(30)},
    }))
    with time_budget(10):
        code = main(["infomap", str(ctx), str(ctx), str(mapping)])
    assert code == 0
    assert "adjunction version: ok" in capsys.readouterr().out


def _disjoint_span(n_left, n_right):
    left = [f"p{i}" for i in range(n_left)]
    right = [f"r{i}" for i in range(n_right)]
    return {
        "base": [],
        "left": {"signature": left, "sentence": f"(var {left[0]})"},
        "right": {"signature": right, "sentence": f"(not (var {right[0]}))"},
        "left_map": {},
        "right_map": {},
    }


@pytest.mark.parametrize("n_left, n_right", [(2, 2), (4, 4)])
def test_merge_check_universal_on_disjoint_spans_within_budget(tmp_path, capsys, time_budget,
                                                               n_left, n_right):
    span = tmp_path / "span.json"
    span.write_text(json.dumps(_disjoint_span(n_left, n_right)))
    with time_budget(10):
        code = main(["merge", str(span), "--out", str(tmp_path / "m.json"), "--check-universal"])
    assert code == 0
    assert "pushout universal property: ok" in capsys.readouterr().out


def test_merge_check_universal_size_guard_exits_3(tmp_path, capsys, time_budget):
    span = tmp_path / "span.json"
    span.write_text(json.dumps(_disjoint_span(6, 6)))
    with time_budget(10):
        code = main(["merge", str(span), "--out", str(tmp_path / "m.json"), "--check-universal"])
    assert code == 3
    err = capsys.readouterr().err
    assert "535538 candidate cocones" in err  # 1 + 2^12 + 3^12
    assert "fixed bound" in err


ALL_PASS = "".join(
    f"{label}: class-rel=True class-adj=True conc-adj=True conc-rel=True -> all four styles pass\n"
    for label in ("identity", "inclusion", "collapse"))


@pytest.mark.parametrize("n_vars", [1, 2, 3])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_institution_demo_passes_below_the_caps(capsys, n_vars, depth):
    assert main(["institution", "--vars", str(n_vars), "--depth", str(depth)]) == 0
    assert capsys.readouterr().out == ALL_PASS


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_institution_depth_below_one_exits_2(capsys, depth):
    assert main(["institution", "--depth", depth]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: --depth must be at least 1")


@pytest.mark.parametrize("n_vars", ["0", "-1", "-3"])
def test_institution_vars_below_one_exits_2(capsys, n_vars):
    assert main(["institution", "--vars", n_vars]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: --vars must be at least 1")


def test_institution_vars_above_the_signature_cap_exits_3(capsys):
    assert main(["institution", "--vars", "6"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("size limit: --vars must be at most 5")


@pytest.mark.parametrize("cases", ["-1", "-3"])
def test_verify_negative_case_count_exits_2_before_running(capsys, monkeypatch, cases):
    def never(*args, **kwargs):
        raise AssertionError("a suite ran on a negative case count")

    monkeypatch.setattr(verify, "run_suite", never)
    assert main(["verify", "--suite", "finrel", "--cases", cases]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: --cases must be at least 0")


def test_verify_zero_cases_still_runs(capsys):
    assert main(["verify", "--suite", "galois", "--cases", "0"]) == 0
    assert capsys.readouterr().out.startswith("suite galois: ok")


def test_institution_four_variables_depth_four_exits_3_before_enumerating_concepts(
        capsys, time_budget):
    with time_budget(5):
        assert main(["institution", "--vars", "4", "--depth", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2^16 concepts x 14546 sentence types = 953286656" in captured.err
    assert "STYLE_MAX_WORK = 67108864" in captured.err


def test_institution_four_variables_depth_four_exits_3_quickly_in_a_child_process():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-m", "conceptua.cli", "institution", "--vars", "4",
                            "--depth", "4"], capture_output=True, text=True, env=env, timeout=60)
    seconds = time.perf_counter() - start
    assert child.returncode == 3
    assert child.stdout == ""
    assert child.stderr == (
        "size limit: style check at depth 4 would take up to 2^16 concepts x 14546 sentence "
        "types = 953286656 intent bits, above the fixed cap of STYLE_MAX_WORK = 67108864\n")
    assert seconds < 5  # 0.4 s measured on a 2-vCPU VM; the bound leaves room for a loaded one


def test_institution_four_variables_depth_three_passes_all_four_styles(capsys, time_budget):
    with time_budget(10):
        assert main(["institution", "--vars", "4", "--depth", "3"]) == 0
    assert capsys.readouterr().out == ALL_PASS


def test_institution_five_variables_depth_two_exits_3_before_enumerating_concepts(
        capsys, monkeypatch):
    def never(_classification):
        raise AssertionError("concepts were enumerated")

    monkeypatch.setattr(clg, "_concepts_lectic", never)
    assert main(["institution", "--vars", "5", "--depth", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2^32 concepts x 52 sentence types = 223338299392" in captured.err
    assert "STYLE_MAX_WORK = 67108864" in captured.err


def test_institution_five_variables_depth_four_exits_3_before_the_fourth_level(
        capsys, time_budget):
    with time_budget(5):
        assert main(["institution", "--vars", "5", "--depth", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "from 1562 representatives" in captured.err
    assert "SENTENCE_LEVEL_MAX = 1048576" in captured.err
