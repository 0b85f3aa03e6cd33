"""Context file formats: .cxt grammar, CSV dialect, JSON mirror."""

import random

import pytest

from conceptua.errors import ParseError
from conceptua.clsn import Classification
from conceptua.finrel import Relation
from conceptua.io import (
    _carrier,
    detect_format,
    read_csv,
    read_cxt,
    read_context,
    read_context_json,
)

WORKED = Classification.of(["1", "2"], ["a", "b"], [("1", "a"), ("1", "b"), ("2", "b")])

CANONICAL_CXT = "B\n\n2\n2\n\n1\n2\na\nb\nXX\n.X\n"


def test_cxt_canonical_roundtrip_is_byte_identical():
    assert read_cxt(CANONICAL_CXT) == WORKED


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
    assert a == Classification.of(["1"], ["t"], [])


def test_csv_roundtrip_and_aliases():
    assert read_csv(",a,b\n1,1,1\n2,0,1\n") == WORKED
    aliased = ",a,b\n1,X,X\n2,.,X\n"
    assert read_csv(aliased) == WORKED


def test_csv_rejects_ragged_rows():
    with pytest.raises(ParseError):
        read_csv(",a,b\n1,1\n")


def test_json_roundtrip():
    text = '{"source": ["1", "2"], "target": ["a", "b"], "pairs": [[0, 0], [0, 1], [1, 1]]}'
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


NOT_A_PAIR = "is not an [object index, attribute index] pair"
MALFORMED_JSON_CONTEXTS = [
    ({"source": ["g", "g"], "target": ["m"], "pairs": []}, "duplicate object name 'g'"),
    ({"source": ["g"], "target": ["m", "m"], "pairs": []}, "duplicate attribute name 'm'"),
    ({"source": ["g"], "target": ["m"], "pairs": [["x", 0]]}, f"pair ['x', 0] {NOT_A_PAIR}"),
    ({"source": ["g"], "target": ["m"], "pairs": [[0]]}, f"pair [0] {NOT_A_PAIR}"),
    ({"source": ["g"], "target": ["m"], "pairs": [0]}, f"pair 0 {NOT_A_PAIR}"),
    ({"source": ["g"], "target": ["m"], "pairs": [[True, 0]]}, f"pair [True, 0] {NOT_A_PAIR}"),
    ({"source": ["g"], "target": ["m"], "pairs": [[0, 1]]}, "pair [0, 1] lies outside the carriers"),
    ({"source": ["g"], "target": ["m"], "pairs": {"0": 0}}, "context JSON 'pairs' must be a list"),
    ({"source": "g", "target": ["m"], "pairs": []}, "context JSON 'source' must be a list of names"),
    ({"source": [["g"]], "target": ["m"], "pairs": []}, "context JSON 'source' must be a list of names"),
    ({"source": ["g"], "target": ["m"], "pairs": [[0, False]]}, f"pair [0, False] {NOT_A_PAIR}"),
    ({"source": ["g"], "target": ["m"], "pairs": [[0, 0.0]]}, f"pair [0, 0.0] {NOT_A_PAIR}"),
    ({"source": ["g"], "target": ["m"], "pairs": [[0, 0, 0]]}, f"pair [0, 0, 0] {NOT_A_PAIR}"),
    ({"source": ["g"], "target": ["m"], "pairs": [[-1, 0]]}, "pair [-1, 0] lies outside the carriers"),
]


@pytest.mark.parametrize("data, message", MALFORMED_JSON_CONTEXTS,
                         ids=[f"data{k}" for k in range(len(MALFORMED_JSON_CONTEXTS))])
def test_json_rejects_malformed_context(data, message):
    import json

    with pytest.raises(ParseError) as err:
        read_context_json(json.dumps(data))
    assert str(err.value) == message


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


# ------------------------------------------- row parsing against the cell loop


def cell_loop_read_cxt(text):
    """The earlier ``read_cxt``, which scans every row cell by cell."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    def get(i: int) -> str:
        if i >= len(lines):
            raise ParseError("unexpected end of file", line=i + 1)
        return lines[i]

    if get(0) != "B":
        raise ParseError('expected header "B"', line=1)
    idx = 1
    if get(idx) != "":
        idx += 1  # optional name line
    if get(idx) != "":
        raise ParseError("expected blank line after the header", line=idx + 1)
    idx += 1
    try:
        n_obj = int(get(idx))
        n_att = int(get(idx + 1))
    except ValueError:
        raise ParseError("expected object/attribute counts", line=idx + 1) from None
    if n_obj < 0 or n_att < 0:
        raise ParseError("negative carrier size", line=idx + 1)
    idx += 2
    if get(idx) != "":
        raise ParseError("expected blank line after the counts", line=idx + 1)
    idx += 1
    objects = [get(idx + i) for i in range(n_obj)]
    instances = _carrier(objects, "object", [idx + i + 1 for i in range(n_obj)])
    idx += n_obj
    attributes = [get(idx + i) for i in range(n_att)]
    types = _carrier(attributes, "attribute", [idx + i + 1 for i in range(n_att)])
    idx += n_att
    rows = []
    for i in range(n_obj):
        row = get(idx + i)
        if len(row) != n_att:
            raise ParseError(f"row has length {len(row)}, expected {n_att}", line=idx + i + 1)
        mask = 0
        for j, ch in enumerate(row):
            if ch == "X":
                mask |= 1 << j
            elif ch != ".":
                raise ParseError(f"unexpected cell {ch!r}", line=idx + i + 1)
        rows.append(mask)
    idx += n_obj
    if idx != len(lines):
        raise ParseError("trailing content after the incidence rows", line=idx + 1)
    return Classification(instances, types, Relation(instances, types, tuple(rows)))


def cell_loop_read_csv(text):
    """The earlier ``read_csv``, which scans every row cell by cell."""
    lines = [ln for ln in text.split("\n") if ln != ""]
    if not lines:
        raise ParseError("empty CSV", line=1)
    header = lines[0].split(",")
    attributes = header[1:]
    objects = []
    object_lines = []
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != len(attributes) + 1:
            raise ParseError(f"expected {len(attributes) + 1} cells, got {len(cells)}", line=lineno)
        objects.append(cells[0])
        object_lines.append(lineno)
        mask = 0
        for j, cell in enumerate(cells[1:]):
            if cell in ("1", "X"):
                mask |= 1 << j
            elif cell not in ("0", "."):
                raise ParseError(f"unexpected cell {cell!r}", line=lineno)
        rows.append(mask)
    instances = _carrier(objects, "object", object_lines)
    types = _carrier(attributes, "attribute", [1] * len(attributes))
    return Classification(instances, types, Relation(instances, types, tuple(rows)))


def parsed(read, text):
    """The classification read, or the ParseError's text and line."""
    try:
        return read(text)
    except ParseError as exc:
        return str(exc), exc.line


def seeded_rows(rng, n_att, cells, bad_cells):
    """Valid rows, with every third row given one bad cell at a random place."""
    rows = []
    for i in range(rng.randint(0, 6)):
        row = [rng.choice(cells) for _ in range(n_att)]
        if i % 3 == 2 and n_att:
            row[rng.randrange(n_att)] = rng.choice(bad_cells)
        rows.append(row)
    return rows


def test_cxt_rows_parse_as_the_cell_loop_did():
    rng = random.Random(1806)
    for _ in range(400):
        n_att = rng.randint(0, 9)
        rows = seeded_rows(rng, n_att, ".X", ["x", "1", "0", " ", "\r", "XX", "", ".X."])
        objects = [f"g{i}" for i in range(len(rows))]
        attributes = [f"m{j}" for j in range(n_att)]
        lines = ["B", "", str(len(rows)), str(n_att), ""] + objects + attributes
        text = "\n".join(lines + ["".join(row) for row in rows]) + "\n"
        assert parsed(read_cxt, text) == parsed(cell_loop_read_cxt, text)


def test_csv_rows_parse_as_the_cell_loop_did():
    rng = random.Random(1807)
    for _ in range(400):
        n_att = rng.randint(0, 9)
        rows = seeded_rows(rng, n_att, ["0", "1", ".", "X"],
                           ["x", "10", "", " 1", "1\r", "01", "X.", "2", "a,b"])
        header = ",".join([""] + [f"m{j}" for j in range(n_att)])
        text = "\n".join([header] + [",".join([f"g{i}"] + row) for i, row in enumerate(rows)])
        assert parsed(read_csv, text) == parsed(cell_loop_read_csv, text)
