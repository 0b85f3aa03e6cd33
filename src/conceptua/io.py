"""Context file formats: Burmeister .cxt, CSV, and JSON index pairs.

The .cxt grammar accepted is exactly:

    B
    [optional name line]
    <blank>
    |G|
    |M|
    <blank>
    |G| object-name lines
    |M| attribute-name lines
    |G| incidence rows of length |M| over {'.', 'X'}

with the trailing newline optional.
"""

import json

from .errors import ParseError
from .finrel import FinSet, Relation
from .clsn import Classification

__all__ = [
    "read_cxt",
    "read_csv",
    "load_json_object",
    "read_context_json",
    "read_context",
    "detect_format",
]


# A string as JSON text, by the C encoder behind json.dumps' default ensure_ascii.
_json_string = json.encoder.encode_basestring_ascii


def _json_list(items: list[str], pad: str) -> str:
    """A list of JSON-encoded items laid out as ``json.dumps(..., indent=2)`` lays
    out a list whose closing bracket sits at indent ``pad``.

    With ``_json_string`` (the C encoder of ``json.dumps``' strings) it writes
    the JSON of ``conceptua lattice`` and ``conceptua merge`` byte for byte
    as ``json.dumps(..., indent=2)``, whose indented layout is pure Python.
    """
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def _carrier(names: list, what: str, lines: list[int] | None = None) -> FinSet:
    """A carrier of parsed names; a repeated, empty or comma-holding name is a
    ParseError at its line, since subset labels such as ``{a,b}`` must name
    each subset once."""
    seen = set()
    for k, name in enumerate(names):
        line = None if lines is None else lines[k]
        if name in seen:
            raise ParseError(f"duplicate {what} name {name!r}", line=line)
        if name == "" or "," in name:
            raise ParseError(f"{what} name {name!r} is empty or holds a comma", line=line)
        seen.add(name)
    return FinSet(tuple(names))


# Rows are checked and converted at C speed; only a row that fails the
# check is scanned cell by cell, for the first bad cell.
_CSV_CELLS = frozenset(("0", "1", ".", "X"))
_DIGITS = str.maketrans(".X", "01")


def _row_mask(cells: str) -> int:
    """The bitmask whose bit j is set when ``cells[j]`` is "1" or "X"; every
    cell is one of "0", "1", "." and "X"."""
    return int(cells[::-1].translate(_DIGITS), 2) if cells else 0


def read_cxt(text: str) -> Classification:
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
        if row.strip(".X"):
            bad = next(ch for ch in row if ch not in ".X")
            raise ParseError(f"unexpected cell {bad!r}", line=idx + i + 1)
        rows.append(_row_mask(row))
    idx += n_obj
    if idx != len(lines):
        raise ParseError("trailing content after the incidence rows", line=idx + 1)
    return Classification(instances, types, Relation(instances, types, tuple(rows)))


def read_csv(text: str) -> Classification:
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
        del cells[0]
        if not _CSV_CELLS.issuperset(cells):
            bad = next(cell for cell in cells if cell not in _CSV_CELLS)
            raise ParseError(f"unexpected cell {bad!r}", line=lineno)
        rows.append(_row_mask("".join(cells)))
    instances = _carrier(objects, "object", object_lines)
    types = _carrier(attributes, "attribute", [1] * len(attributes))
    return Classification(instances, types, Relation(instances, types, tuple(rows)))


def load_json_object(text: str, what: str) -> dict:
    """Parse JSON text whose top level must be an object; anything else is a ParseError."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid {what} JSON: {exc}", line=exc.lineno) from exc
    except RecursionError:
        raise ParseError(f"{what} JSON nests too deeply") from None
    if not isinstance(data, dict):
        raise ParseError(f"{what} JSON must be an object")
    return data


def read_context_json(text: str) -> Classification:
    data = load_json_object(text, "context")
    if not {"source", "target", "pairs"} <= set(data):
        raise ParseError("context JSON needs 'source', 'target', and 'pairs' keys")
    for key in ("source", "target"):
        if not isinstance(data[key], list) or not all(isinstance(x, str) for x in data[key]):
            raise ParseError(f"context JSON {key!r} must be a list of names")
    if not isinstance(data["pairs"], list):
        raise ParseError("context JSON 'pairs' must be a list")
    instances = _carrier(data["source"], "object")
    types = _carrier(data["target"], "attribute")
    n_instances, n_types = instances.size, types.size
    rows = [0] * n_instances
    for pair in data["pairs"]:
        # ``type(...) is int``, not ``isinstance``: JSON true and false are not indices.
        if not (isinstance(pair, list) and len(pair) == 2
                and type(pair[0]) is int and type(pair[1]) is int):
            raise ParseError(f"pair {pair!r} is not an [object index, attribute index] pair")
        i, j = pair
        if not (0 <= i < n_instances and 0 <= j < n_types):
            raise ParseError(f"pair {pair!r} lies outside the carriers")
        rows[i] |= 1 << j
    return Classification(instances, types, Relation(instances, types, tuple(rows)))


_READERS = {"cxt": read_cxt, "csv": read_csv, "json": read_context_json}


def detect_format(path: str) -> str:
    lowered = path.lower()
    for ext in ("cxt", "csv", "json"):
        if lowered.endswith("." + ext):
            return ext
    raise ParseError(f"cannot infer context format from {path!r}; use .cxt, .csv, or .json")


def read_context(text: str, fmt: str) -> Classification:
    if fmt not in _READERS:
        raise ParseError(f"unknown context format {fmt!r}")
    return _READERS[fmt](text)
