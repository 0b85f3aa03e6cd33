"""Concepts held as two int tuples, and the tuple of ``FormalConcept`` values
built only when it is read.

A classification keeps its concepts as ``_concept_bits``, the extents and
the intents in lectic order, and a concept lattice holds them as its
``extents`` and ``intents``; ``clg._formal_concepts``, the function of the
cached ``Classification.concepts`` and ``ConceptLattice.concepts``, builds
the public tuple from them.  Its runs are counted through the ``func`` of
those two cached attributes, the seams every public tuple goes through,
with no module patched: ``conceptua lattice``, in JSON and DOT, to
``--out`` and to stdout, ``conceptua institution --vars 3``,
``concept_morphism_of``, ``ConceptMorphism.check``,
``lattice_roundtrip_iso`` and ``conceptua verify --suite clg`` must not run
it.

The code these paths replace, which read ``FormalConcept`` values, is
copied in as the oracle: ``_concepts_lectic``, ``lattice_to_json``,
``lattice_to_dot`` and ``concept_transport`` (with its recipes and its
witness texts) as they were, and ``concept_square_failures``.  They are
compared with the int readers on seeded contexts, 0 x n, n x 0, empty and
full incidences, labels that need escaping and contranominal-12, and on
seeded map pairs, most of them no infomorphism.
"""

import random

import pytest

from conceptua import clg
from conceptua.cli import main
from conceptua.clg import (
    ConceptLattice,
    ConceptMorphism,
    FormalConcept,
    _REVERSED_BYTES,
    _too_many_concepts,
    concept_lattice,
    concept_morphism_of,
    concept_square_failures,
    concept_transport,
    concepts_of,
    lattice_roundtrip_iso,
    lattice_to_dot,
    lattice_to_json,
)
from conceptua.clsn import Classification, Infomorphism, enumerate_infomorphisms
from conceptua.errors import CarrierMismatchError
from conceptua.finrel import FinFunction, FinSet, Relation, Subset, _bits, image_bits, \
    preimage_rows
from conceptua.galois import Adjunction
from conceptua.institution import Signature, classification_of_signature
from conceptua.io import _json_list, _json_string, read_context
from conceptua.order import _monotone, carrier_bound, hasse_edges


# ------------------------------------------------------------------ oracles


def oracle_text(s: Subset) -> str:
    """``Subset.__str__`` as it was."""
    return "{" + ",".join(s.labels()) + "}"


def oracle_concepts_lectic(a):
    """The earlier ``_concepts_lectic``: the concepts as ``FormalConcept``
    values, built inline through the slot descriptors."""
    inst, typ = a.instances, a.types
    rows, cols = a.incidence.rows, a.incidence.columns
    bound = carrier_bound()
    limit = 1 << min(bound, 64)
    by_rows = inst.size <= typ.size
    if by_rows:
        lines, other, full, full_small = rows, cols, typ.full_mask, inst.full_mask
    else:
        lines, other, full, full_small = cols, rows, inst.full_mask, typ.full_mask
    closed = {full}
    for line in lines:
        closed |= {line & c for c in closed}
        if len(closed) > limit:
            raise _too_many_concepts(bound, limit)
    n_small = len(lines)
    pairs = []
    for c in closed:
        if c.bit_count() < n_small:
            derived = full_small
            bits = c
            while bits:
                low = bits & -bits
                derived &= other[low.bit_length() - 1]
                bits ^= low
        else:
            derived = 0
            bit = 1
            for line in lines:
                if line & c == c:
                    derived |= bit
                bit <<= 1
        pairs.append((derived, c) if by_rows else (c, derived))
    width = (inst.size + 7) // 8
    pairs.sort(key=lambda pair: pair[0].to_bytes(width, "little").translate(_REVERSED_BYTES))
    new = object.__new__
    set_carrier, set_bits = Subset.carrier.__set__, Subset.bits.__set__
    set_extent, set_intent = FormalConcept.extent.__set__, FormalConcept.intent.__set__
    out = []
    for e, t in pairs:
        extent, intent, concept = new(Subset), new(Subset), new(FormalConcept)
        set_carrier(extent, inst)
        set_bits(extent, e)
        set_carrier(intent, typ)
        set_bits(intent, t)
        set_extent(concept, extent)
        set_intent(concept, intent)
        out.append(concept)
    return tuple(out)


def oracle_lattice_to_json(lat):
    """The earlier ``lattice_to_json``, reading ``lat.concepts``."""
    concepts = [
        '{\n      "extent": '
        + _json_list([str(k) for k in _bits(c.extent.bits)], "      ")
        + ',\n      "intent": '
        + _json_list([str(k) for k in _bits(c.intent.bits)], "      ")
        + "\n    }"
        for c in lat.concepts
    ]
    cover = [f"[\n      {i},\n      {j}\n    ]" for i, j in hasse_edges(lat.lattice)]
    return ('{\n  "objects": '
            + _json_list([_json_string(x) for x in lat.instances.elements], "  ")
            + ',\n  "attributes": '
            + _json_list([_json_string(x) for x in lat.types.elements], "  ")
            + ',\n  "concepts": ' + _json_list(concepts, "  ")
            + ',\n  "cover": ' + _json_list(cover, "  ")
            + "\n}\n")


def oracle_lattice_to_dot(lat):
    """The earlier ``lattice_to_dot``, labelling each node by ``FormalConcept.label``."""
    def quote(text):
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph lattice {", "  rankdir=BT;"]
    for k, c in enumerate(lat.concepts):
        lines.append(f"  n{k} [label={quote(oracle_text(c.extent) + '|' + oracle_text(c.intent))}];")
    for i, j in hasse_edges(lat.lattice):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def oracle_right_recipes(f, source_concepts):
    b = f.target
    pre = preimage_rows(f.inst_map, [c.extent.bits for c in source_concepts])
    return zip(pre, (b.extent_of(image_bits(f.typ_map, c.intent.bits)) for c in source_concepts))


def oracle_first_disagreement(f, source_concepts, target_concepts):
    a = f.source
    pulled = preimage_rows(f.typ_map, [c.intent.bits for c in target_concepts])
    for c, intent in zip(target_concepts, pulled):
        if a.extent_of(intent) != a.extent_of(a.intent_of(image_bits(f.inst_map, c.extent.bits))):
            return ("concept transport formulas disagree at target concept with extent "
                    + oracle_text(c.extent))
    for c, (pre, derived) in zip(source_concepts, oracle_right_recipes(f, source_concepts)):
        if pre != derived:
            return ("concept transport formulas disagree at source concept with extent "
                    + oracle_text(c.extent))
    return None


def oracle_concept_transport(f, source_concepts, target_concepts):
    """The earlier ``concept_transport``, reading the concepts' subsets."""
    a, b = f.source, f.target
    target_cols = b.incidence.columns
    if preimage_rows(f.inst_map, a.incidence.columns) != [target_cols[t] for t in f.typ_map.table]:
        raise CarrierMismatchError(oracle_first_disagreement(f, source_concepts, target_concepts))
    by_intent = {c.intent.bits: k for k, c in enumerate(source_concepts)}
    by_extent = {c.extent.bits: k for k, c in enumerate(target_concepts)}
    pulled = preimage_rows(f.typ_map, [c.intent.bits for c in target_concepts])
    pre = preimage_rows(f.inst_map, [c.extent.bits for c in source_concepts])
    return tuple(by_intent[i] for i in pulled), tuple(by_extent[e] for e in pre)


def oracle_square_failures(inst_map, typ_map, source_concepts, target_concepts, left, right):
    """The earlier ``concept_square_failures``."""
    failures = []
    extents = preimage_rows(inst_map, [c.extent.bits for c in source_concepts])
    for k, extent in enumerate(extents):
        if target_concepts[right[k]].extent.bits != extent:
            failures.append(f"extent preservation fails at concept c{k}")
            break
    intents = preimage_rows(typ_map, [c.intent.bits for c in target_concepts])
    for k, intent in enumerate(intents):
        if source_concepts[left[k]].intent.bits != intent:
            failures.append(f"intent preservation fails at concept c{k}")
            break
    return failures


# ----------------------------------------------------------------- contexts


def context(rows, n_typ, inst_prefix="g", typ_prefix="m"):
    inst = FinSet(tuple(f"{inst_prefix}{i}" for i in range(len(rows))))
    typ = FinSet(tuple(f"{typ_prefix}{j}" for j in range(n_typ)))
    return Classification(inst, typ, Relation(inst, typ, tuple(rows)))


def random_rows(rng, n_inst, n_typ, density):
    return [sum(1 << j for j in range(n_typ) if rng.random() < density) for _ in range(n_inst)]


def seeded_contexts():
    """Fresh classifications: nothing enumerated or built on them yet."""
    rng = random.Random(3901)
    out = [context([], 0), context([], 4), context([0] * 4, 0)]
    for n_inst, n_typ in [(3, 4), (5, 2), (6, 6)]:
        out.append(context([0] * n_inst, n_typ))
        out.append(context([(1 << n_typ) - 1] * n_inst, n_typ))
    for n_inst, n_typ in [(1, 1), (3, 5), (5, 3), (6, 6), (9, 4), (4, 9), (12, 10),
                          (40, 14), (14, 40)]:
        for density in (0.25, 0.5):
            out.append(context(random_rows(rng, n_inst, n_typ, density), n_typ))
    out.append(context(random_rows(rng, 4, 3, 0.5), 3, 'q"', "b\\"))
    out.append(context([0xFFF & ~(1 << i) for i in range(12)], 12))
    return out


def cxt_text(a):
    names = list(a.instances.elements) + list(a.types.elements)
    rows = ["".join("X" if row >> j & 1 else "." for j in range(a.types.size))
            for row in a.incidence.rows]
    return "\n".join(["B", "", str(a.instances.size), str(a.types.size), ""] + names + rows) + "\n"


# --------------------------------------------------------- the counting seam


@pytest.fixture
def builds(monkeypatch):
    """The classifications and lattices whose public concept tuple is built,
    in order."""
    calls = []
    for cls in (Classification, ConceptLattice):
        descriptor = vars(cls)["concepts"]
        monkeypatch.setattr(descriptor, "func",
                            lambda x, func=descriptor.func: calls.append(x) or func(x))
    return calls


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_lattice_cli_builds_no_formal_concept(builds, tmp_path, capsys, fmt, to_file):
    a = context(random_rows(random.Random(3902), 40, 14, 0.3), 14)
    path = tmp_path / "ctx.cxt"
    path.write_text(cxt_text(a))
    out = tmp_path / f"lattice.{fmt}"
    assert main(["lattice", str(path), "--format", fmt] + (["--out", str(out)] if to_file else [])) == 0
    stdout = capsys.readouterr().out
    assert builds == []
    count = f"{len(concepts_of(a))} concepts\n"
    assert len(builds) == 1, "the seam counts a build"
    payload = out.read_text() if to_file else stdout[:-len(count)]
    assert stdout.endswith(count)
    writer = oracle_lattice_to_json if fmt == "json" else oracle_lattice_to_dot
    assert payload == writer(concept_lattice(read_context(cxt_text(a), "cxt")))


def test_institution_style_check_builds_no_formal_concept(builds, capsys):
    classification_of_signature.cache_clear()
    assert main(["institution", "--vars", "3"]) == 0
    assert capsys.readouterr().out.count("all four styles pass") == 3
    assert builds == []
    a = classification_of_signature(Signature.of("p", "q", "r"), 3)
    assert "_concept_bits" in vars(a) and "concepts" not in vars(a)
    concepts_of(a)
    assert builds == [a], "the seam counts a build"


def test_concept_morphisms_and_the_roundtrip_build_no_formal_concept(builds):
    """On valid infomorphisms between fresh contexts, and on each morphism with
    its right table shifted, so that ``check`` fails."""
    rng = random.Random(3904)
    failing = morphisms = 0
    for _ in range(40):
        n_a, m_a = rng.randint(1, 4), rng.randint(1, 4)
        rows_a = random_rows(rng, n_a, m_a, 0.5)
        infos = enumerate_infomorphisms(context(rows_a, m_a), context(rows_a, m_a, "h", "n"))
        for f in infos[:3]:
            h = concept_morphism_of(f)
            assert h.check() == []
            right = [(k + 1) % h.target.size for k in h.connection.right.func.table]
            src, tgt = h.target.lattice, h.source.lattice
            conn = Adjunction(src, tgt, h.connection.left, _monotone(tgt, src, right))
            failing += bool(ConceptMorphism(h.source, h.target, conn, h.inst_map,
                                            h.typ_map).check())
            lattice_roundtrip_iso(h.source)
            lattice_roundtrip_iso(h.target)
            morphisms += 1
    assert morphisms > 40 and failing > 20
    assert builds == []
    h.source.concepts
    assert builds == [h.source], "the seam counts a build"


def test_verify_clg_suite_builds_no_formal_concept(builds, capsys):
    assert main(["verify", "--suite", "clg", "--seed", "0", "--cases", "100"]) == 0
    assert "clg" in capsys.readouterr().out
    assert builds == []


# ------------------------------------------------------- against the oracles


def test_enumeration_matches_the_earlier_concepts():
    for a in seeded_contexts():
        expected = oracle_concepts_lectic(a)
        assert clg._concepts_lectic(a) == (tuple(c.extent.bits for c in expected),
                                           tuple(c.intent.bits for c in expected))
        assert "concepts" not in vars(a)
        got = concepts_of(a)
        assert got == expected
        assert all(c.extent.carrier is a.instances and c.intent.carrier is a.types for c in got)


def test_writers_match_the_earlier_writers_without_building_concepts(builds):
    for a in seeded_contexts():
        lat = concept_lattice(a)
        text_json, text_dot = lattice_to_json(lat), lattice_to_dot(lat)
        assert builds == []
        assert text_json == oracle_lattice_to_json(lat)
        assert text_dot == oracle_lattice_to_dot(lat)
        assert lat.concepts == oracle_concepts_lectic(a)
        builds.clear()


def random_map_pairs(rng, count):
    """Map pairs between seeded contexts of up to 4 x 4, each half the time
    forced to agree with the source on the types it reaches: some are
    infomorphisms, most are not."""
    for _ in range(count):
        n_a, m_a, m_b = rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 4)
        a = context(random_rows(rng, n_a, m_a, 0.5), m_a)
        n_b = rng.randint(0, 4) if n_a else 0
        inst_map = tuple(rng.randrange(n_a) for _ in range(n_b))
        typ_map = tuple(rng.randrange(m_b) for _ in range(a.types.size))
        rows = random_rows(rng, n_b, m_b, 0.5)
        if rng.random() < 0.5:
            for x, fx in enumerate(inst_map):
                for y, ty in enumerate(typ_map):
                    bit = a.incidence.rows[fx] >> y & 1
                    rows[x] = rows[x] & ~(1 << ty) | bit << ty
        b = context(rows, m_b, "h", "n")
        yield Infomorphism(a, b, FinFunction(b.instances, a.instances, inst_map),
                           FinFunction(a.types, b.types, typ_map))


def outcome(transport, *args):
    try:
        return "return", transport(*args)
    except CarrierMismatchError as exc:
        return "raise", str(exc)


def test_transport_matches_the_earlier_transport_on_seeded_map_pairs():
    counts = {"return": 0, "raise": 0}
    rng = random.Random(3903)
    pairs = list(random_map_pairs(rng, 600))
    for a in seeded_contexts()[10:14]:
        pairs += enumerate_infomorphisms(a, a)[:8]
    for f in pairs:
        ca, cb = concepts_of(f.source), concepts_of(f.target)
        expected = outcome(oracle_concept_transport, f, ca, cb)
        assert outcome(concept_transport, f) == expected
        counts[expected[0]] += 1
        if expected[0] == "return":
            la, lb = concept_lattice(f.source), concept_lattice(f.target)
            left, right = expected[1]
            shifted = [(k + 1) % len(ca) for k in left], [(k + 1) % len(cb) for k in right]
            for tables in (expected[1], shifted):
                assert concept_square_failures(f.inst_map, f.typ_map, la, lb, *tables) == \
                    oracle_square_failures(f.inst_map, f.typ_map, ca, cb, *tables)
    assert counts["return"] > 100 and counts["raise"] > 200
