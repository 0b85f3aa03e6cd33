"""The lattice writers against the code they replace.

``lattice_to_json`` writes its text directly; the earlier dict builder,
encoded by ``json.dumps(..., indent=2)`` as the CLI did, is copied in as the
oracle, and the two must agree byte for byte on every golden context, on
seeded contexts of 0-10 per side (empty sides included) and on names that
need JSON escapes. ``lattice_to_dot`` must write only well-formed DOT quoted
strings that unquote to the labels, and must write plain names as the
earlier unquoted writer did.
"""

import json
import random
import re
from pathlib import Path

from conceptua.clg import concept_lattice, lattice_to_dot, lattice_to_json
from conceptua.clsn import Classification
from conceptua.finrel import FinSet, Relation
from conceptua.io import detect_format, read_context, read_context_json
from conceptua.order import hasse_edges

GOLDEN = Path(__file__).parent / "golden"


# --------------------------------------------------------------- oracles


def oracle_lattice_dict(lat):
    """The earlier ``lattice_to_json``, which returned this dict for the CLI to encode."""
    return {
        "objects": list(lat.instances.elements),
        "attributes": list(lat.types.elements),
        "concepts": [
            {"extent": list(c.extent.indices()), "intent": list(c.intent.indices())}
            for c in lat.concepts
        ],
        "cover": [[i, j] for i, j in hasse_edges(lat.lattice)],
    }


def oracle_json(lat):
    return json.dumps(oracle_lattice_dict(lat), indent=2) + "\n"


def oracle_dot(lat, name="lattice"):
    """The earlier ``lattice_to_dot``, which wrote labels unquoted."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for k, c in enumerate(lat.concepts):
        lines.append(f'  n{k} [label="{c.label()}"];')
    for i, j in hasse_edges(lat.lattice):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- inputs


def golden_contexts():
    paths = [p for p in sorted(GOLDEN.iterdir())
             if p.suffix in (".cxt", ".csv")
             or p.suffix == ".json" and "pairs" in json.loads(p.read_text())]
    return [read_context(p.read_text(), detect_format(p.name)) for p in paths]


def carrier(prefix, n):
    return FinSet(tuple(f"{prefix}{i}" for i in range(n)))


def seeded_contexts(count, max_side, seed):
    """Random contexts of 0..max_side per side, led by 0x0, 0xn and nx0."""
    rng = random.Random(seed)
    shapes = [(0, 0), (0, max_side), (max_side, 0), (0, 1), (1, 0)]
    shapes += [(rng.randint(0, max_side), rng.randint(0, max_side))
               for _ in range(count - len(shapes))]
    out = []
    for n_inst, n_typ in shapes:
        inst, typ = carrier("g", n_inst), carrier("m", n_typ)
        density = rng.choice((0.2, 0.5, 0.8))
        rows = tuple(sum(1 << j for j in range(n_typ) if rng.random() < density)
                     for _ in range(n_inst))
        out.append(Classification(inst, typ, Relation(inst, typ, rows)))
    return out


SEEDED = seeded_contexts(520, 10, seed=1919)

# names that need escapes: quotes, backslashes, every control character,
# DEL, non-ASCII letters and a character outside the basic plane
ODD_NAMES = ['say "hi"', "back\\slash", '\\"', "\\", '"', "café", "smile \U0001F600",
             " line", "tab\there", "new\nline", "del\x7f", "nul\x00"]
ODD_NAMES += [f"ctl{chr(c)}" for c in range(32) if f"ctl{chr(c)}" not in ODD_NAMES]


def odd_contexts(count, seed):
    """JSON contexts, read by the CLI's reader, over seeded draws of ``ODD_NAMES``."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        source = rng.sample(ODD_NAMES, rng.randint(0, 6))
        target = rng.sample(ODD_NAMES, rng.randint(0, 6))
        pairs = [[i, j] for i in range(len(source)) for j in range(len(target))
                 if rng.random() < 0.4]
        out.append(read_context_json(json.dumps(
            {"source": source, "target": target, "pairs": pairs})))
    return out


ODD = odd_contexts(120, seed=2020)


# ------------------------------------------------------------------ JSON


def test_json_writer_matches_dict_oracle_on_golden_contexts():
    contexts = golden_contexts()
    assert len(contexts) >= 6
    for a in contexts:
        lat = concept_lattice(a)
        assert lattice_to_json(lat) == oracle_json(lat)


def test_json_writer_matches_dict_oracle_on_seeded_contexts():
    shapes = {(a.instances.size, a.types.size) for a in SEEDED}
    assert {(0, 0), (0, 10), (10, 0)} <= shapes and len(SEEDED) >= 500
    for a in SEEDED:
        lat = concept_lattice(a)
        assert lattice_to_json(lat) == oracle_json(lat)


def test_json_writer_matches_dict_oracle_on_names_needing_escapes():
    used = set()
    for a in ODD:
        lat = concept_lattice(a)
        text = lattice_to_json(lat)
        assert text == oracle_json(lat)
        assert json.loads(text) == oracle_lattice_dict(lat)
        used.update(a.instances.elements + a.types.elements)
    assert used == set(ODD_NAMES)


# ------------------------------------------------------------------- DOT

LATTICE_LABEL = re.compile(r'^\s*n\d+ \[label="((?:[^"\\]|\\.)*)"\];$')


def unquote(text):
    return re.sub(r"\\(.)", r"\1", text)


def test_dot_writer_quotes_every_label():
    names = [n for n in ODD_NAMES if "\n" not in n]
    rng = random.Random(2121)
    checked = 0
    for _ in range(60):
        source = rng.sample(names, rng.randint(1, 5))
        target = rng.sample(names, rng.randint(1, 5))
        pairs = [[i, j] for i in range(len(source)) for j in range(len(target))
                 if rng.random() < 0.4]
        lat = concept_lattice(read_context_json(json.dumps(
            {"source": source, "target": target, "pairs": pairs})))
        label_lines = [line for line in lattice_to_dot(lat).split("\n") if "[label=" in line]
        assert len(label_lines) == lat.size
        for line, c in zip(label_lines, lat.concepts):
            match = LATTICE_LABEL.match(line)
            assert match, line
            assert unquote(match.group(1)) == c.label()
            checked += '"' in c.label() or "\\" in c.label()
    assert checked > 50


def test_dot_writer_matches_unquoted_oracle_on_plain_names():
    for a in golden_contexts() + SEEDED[:200]:
        lat = concept_lattice(a)
        if not any('"' in x or "\\" in x for x in a.instances.elements + a.types.elements):
            assert lattice_to_dot(lat) == oracle_dot(lat)

