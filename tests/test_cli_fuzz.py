"""Arbitrary span, mapping and context files: the CLI ends in an exit code, never a traceback."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from conceptua.cli import main

FUZZ = settings(max_examples=60, derandomize=True, database=None, deadline=None)

# Any text may stand where a label goes; NAMES are labels every reader accepts,
# drawn from a small pool so that maps, models and carriers often line up.
NAMES = (st.sampled_from(["p", "q", "r", "1", "2", "a", "b"])
         | st.from_regex(r"[a-z0-9.]{1,3}", fullmatch=True))
LABELS = NAMES | st.text(max_size=3)
SCALARS = (st.none() | st.booleans() | st.integers(-3, 5)
           | st.floats(allow_nan=False, allow_infinity=False) | LABELS)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(LABELS, inner, max_size=4),
    max_leaves=12,
)
# Carriers reach past the lowered carrier bound of 8 (see run_cli).
CARRIERS = st.lists(NAMES, max_size=10, unique=True)


def sentences(signature):
    """Sentence text over the signature, with an occasional unknown variable or stray token."""
    leaves = st.sampled_from(["top", "bottom", "(var z)", "(", *(f"(var {v})" for v in signature)])
    return st.recursive(leaves, lambda inner: st.builds(
        lambda op, args: f"({op} {' '.join(args)})",
        st.sampled_from(["not", "and", "or", "implies"]), st.lists(inner, min_size=1, max_size=2)),
        max_leaves=6)


@st.composite
def near_valid(draw, build):
    """A well-formed document from ``build``, sometimes with one field replaced or dropped."""
    doc = build(draw)
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            doc[key] = draw(JSON)
        else:
            del doc[key]
    return doc


def label_map(draw, source, target):
    return {x: draw(st.sampled_from(target)) for x in source} if target else {}


def theory(draw, signature):
    models = st.lists(st.lists(st.sampled_from(signature), max_size=3), max_size=4) \
        if signature else st.lists(st.just([]), max_size=2)
    return draw(st.sampled_from([{"signature": signature, "models": draw(models)},
                                 {"signature": signature, "sentence": draw(sentences(signature))}]))


def span(draw):
    base = draw(st.lists(NAMES, max_size=2, unique=True))
    left, right = draw(CARRIERS), draw(CARRIERS)
    return {"base": base, "left": theory(draw, left), "right": theory(draw, right),
            "left_map": label_map(draw, base, left), "right_map": label_map(draw, base, right)}


def context(draw):
    source, target = draw(CARRIERS), draw(CARRIERS)
    pairs = st.lists(st.tuples(st.integers(0, len(source) - 1), st.integers(0, len(target) - 1)),
                     max_size=12) if source and target else st.just([])
    return {"source": source, "target": target, "pairs": draw(pairs)}


@st.composite
def infomap_files(draw):
    """Two context documents and a mapping between their carriers, each possibly corrupted."""
    a, b = draw(near_valid(context)), draw(near_valid(context))

    def carrier(doc, key):
        value = doc.get(key)
        return value if isinstance(value, list) and all(isinstance(x, str) for x in value) else []

    mapping = draw(near_valid(lambda d: {
        "inst_map": label_map(d, carrier(b, "source"), carrier(a, "source")),
        "typ_map": label_map(d, carrier(a, "target"), carrier(b, "target"))}))
    return tuple(json.dumps(doc).encode() for doc in (a, b, mapping))


CXT_TEXT = st.builds(
    lambda objs, atts, rows: "\n".join(["B", "", str(len(objs)), str(len(atts)), ""] + objs + atts + rows),
    CARRIERS, CARRIERS, st.lists(st.text(alphabet=".X-", max_size=10), max_size=10),
)


def payloads(structured=st.nothing()):
    """File contents: a structured candidate, any JSON value, text, or raw bytes."""
    return st.one_of(
        structured.map(lambda v: json.dumps(v).encode()),
        JSON.map(lambda v: json.dumps(v).encode()),
        st.text(max_size=40).map(str.encode),
        st.binary(max_size=40),
    )


CONTEXTS = st.tuples(st.sampled_from(["cxt", "csv", "json"]),
                     payloads(near_valid(context)) | CXT_TEXT.map(str.encode))


def run_cli(files: dict[str, bytes], argv: list[str]) -> int:
    """Write the files to a fresh directory and run the CLI there with output captured.

    The carrier bound is lowered so a fuzzed context large enough to trip it
    takes the size-limit exit instead of materializing a power order.
    """
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"CONCEPTUA_MAX_CARRIER": "8"}), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for name, data in files.items():
            Path(tmp, name).write_bytes(data)
        return main([str(Path(tmp, arg)) if arg in files else arg for arg in argv])


@FUZZ
@given(span=payloads(near_valid(span)))
@example(span=b'"base left right left_map right_map"')
@example(span=b"[" * 5000)
@example(span=b"\xff\xfe")
def test_merge_never_raises(span):
    assert run_cli({"span.json": span}, ["merge", "span.json"]) in {0, 1, 2, 3}


UNRELATED_FILES = st.tuples(CONTEXTS, CONTEXTS, payloads())
RELATED_FILES = infomap_files().map(lambda docs: (("json", docs[0]), ("json", docs[1]), docs[2]))


@FUZZ
@given(files=UNRELATED_FILES | RELATED_FILES)
@example(files=(("cxt", b"B\n\n1\n1\n\ng\nm\nX\n"), ("cxt", b"B\n\n1\n1\n\ng\nm\nX\n"),
                b'{"inst_map": ["g"], "typ_map": {"m": "m"}}'))
def test_infomap_never_raises(files):
    (fmt_a, a), (fmt_b, b), mapping = files
    named = {f"a.{fmt_a}": a, f"b.{fmt_b}": b, "map.json": mapping}
    assert run_cli(named, ["infomap", *named]) in {0, 1, 2, 3}


@FUZZ
@given(context=CONTEXTS)
@example(context=("json", b'{"source": ' + b"[" * 5000 + b"}"))
def test_lattice_never_raises(context):
    fmt, data = context
    assert run_cli({f"ctx.{fmt}": data}, ["lattice", f"ctx.{fmt}"]) in {0, 1, 2, 3}
