"""Context file formats: .cxt grammar, CSV dialect, JSON mirror."""

import pytest

from conceptua.errors import ParseError
from conceptua.clsn import Classification
from conceptua.io import (
    detect_format,
    read_csv,
    read_cxt,
    read_context,
    read_context_json,
    write_csv,
    write_cxt,
    write_context_json,
)

WORKED = Classification.of(["1", "2"], ["a", "b"], [("1", "a"), ("1", "b"), ("2", "b")])

CANONICAL_CXT = "B\n\n2\n2\n\n1\n2\na\nb\nXX\n.X\n"


def test_cxt_writer_emits_canonical_form():
    assert write_cxt(WORKED) == CANONICAL_CXT


def test_cxt_canonical_roundtrip_is_byte_identical():
    parsed = read_cxt(CANONICAL_CXT)
    assert parsed == WORKED
    assert write_cxt(parsed) == CANONICAL_CXT


def test_cxt_accepts_optional_name_line():
    named = "B\nsome context name\n\n2\n2\n\n1\n2\na\nb\nXX\n.X\n"
    assert read_cxt(named) == WORKED


def test_cxt_accepts_missing_trailing_newline():
    assert read_cxt(CANONICAL_CXT.rstrip("\n")) == WORKED


def test_cxt_rejects_bad_header():
    with pytest.raises(ParseError) as err:
        read_cxt("A\n\n1\n1\n\nx\ny\nX\n")
    assert err.value.line == 1


def test_cxt_rejects_missing_blank_line():
    with pytest.raises(ParseError):
        read_cxt("B\nname\n2\n2\n\n1\n2\na\nb\nXX\n.X\n")


def test_cxt_rejects_wrong_row_length():
    bad = "B\n\n2\n2\n\n1\n2\na\nb\nXXX\n.X\n"
    with pytest.raises(ParseError) as err:
        read_cxt(bad)
    assert err.value.line == 10


def test_cxt_rejects_bad_cell():
    bad = "B\n\n1\n1\n\n1\na\n?\n"
    with pytest.raises(ParseError):
        read_cxt(bad)


def test_cxt_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        read_cxt(CANONICAL_CXT + "extra\n")


def test_cxt_empty_incidence_one_by_one():
    text = "B\n\n1\n1\n\n1\nt\n.\n"
    a = read_cxt(text)
    assert a.incidence.count() == 0
    assert write_cxt(a) == text


def test_csv_roundtrip_and_aliases():
    text = write_csv(WORKED)
    assert text == ",a,b\n1,1,1\n2,0,1\n"
    assert read_csv(text) == WORKED
    aliased = ",a,b\n1,X,X\n2,.,X\n"
    assert read_csv(aliased) == WORKED


def test_csv_rejects_ragged_rows():
    with pytest.raises(ParseError):
        read_csv(",a,b\n1,1\n")


def test_json_roundtrip():
    text = write_context_json(WORKED)
    assert read_context_json(text) == WORKED


def test_json_rejects_missing_keys():
    with pytest.raises(ParseError):
        read_context_json('{"source": ["a"]}')
    with pytest.raises(ParseError):
        read_context_json("not json")


def test_detect_format():
    assert detect_format("x.cxt") == "cxt"
    assert detect_format("x.CSV") == "csv"
    assert detect_format("x.json") == "json"
    with pytest.raises(ParseError):
        detect_format("x.txt")


def test_read_context_dispatch():
    assert read_context(CANONICAL_CXT, "cxt") == WORKED
    with pytest.raises(ParseError):
        read_context(CANONICAL_CXT, "nope")


@pytest.mark.parametrize("text, line", [
    ("B\n\n2\n1\n\ng\ng\nm\nX\n.\n", 7),
    ("B\n\n1\n2\n\ng\nm\nm\nX.\n", 8),
], ids=["objects", "attributes"])
def test_cxt_rejects_duplicate_names_at_their_line(text, line):
    with pytest.raises(ParseError) as err:
        read_cxt(text)
    assert err.value.line == line
    assert "duplicate" in str(err.value)


def test_csv_rejects_duplicate_names():
    with pytest.raises(ParseError) as err:
        read_csv(",a,b\ng,1,0\ng,0,1\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        read_csv(",a,a\ng,1,0\n")
    assert err.value.line == 1


@pytest.mark.parametrize("data", [
    {"source": ["g", "g"], "target": ["m"], "pairs": []},
    {"source": ["g"], "target": ["m", "m"], "pairs": []},
    {"source": ["g"], "target": ["m"], "pairs": [["x", 0]]},
    {"source": ["g"], "target": ["m"], "pairs": [[0]]},
    {"source": ["g"], "target": ["m"], "pairs": [0]},
    {"source": ["g"], "target": ["m"], "pairs": [[True, 0]]},
    {"source": ["g"], "target": ["m"], "pairs": [[0, 1]]},
    {"source": ["g"], "target": ["m"], "pairs": {"0": 0}},
    {"source": "g", "target": ["m"], "pairs": []},
    {"source": [["g"]], "target": ["m"], "pairs": []},
])
def test_json_rejects_malformed_context(data):
    import json

    with pytest.raises(ParseError):
        read_context_json(json.dumps(data))


@pytest.mark.parametrize("fmt, text", [
    ("cxt", "B\n\n0\n1\n\n\n"),
    ("cxt", "B\n\n2\n3\n\ng\nh\na\nb\na,b\n...\n...\n"),
    ("csv", ",,m\ng,0,1\n"),
    ("json", '{"source": ["g"], "target": ["a", "a,b"], "pairs": []}'),
    ("json", '[' * 5000),
], ids=["empty-cxt", "comma-cxt", "empty-csv", "comma-json", "deep-json"])
def test_read_context_rejects_ambiguous_names_and_deep_json(fmt, text):
    # "{}" and "{a,b}" would each label two subsets of the power order
    with pytest.raises(ParseError):
        read_context(text, fmt)
