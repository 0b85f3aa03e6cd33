"""Image, preimage, the infomorphism checks and concept transport against their definitions.

The oracles here work on Python sets of indices, straight from the
definitions, and use no finrel helper.
"""

import itertools
import random

import pytest

from conceptua.clg import concept_lattice, concept_square_failures, concept_transport, concepts_of
from conceptua.clsn import Classification, Infomorphism, check_infomorphism, enumerate_infomorphisms
from conceptua.errors import CarrierMismatchError
from conceptua.finrel import FinFunction, FinSet, Relation, Subset, image_bits, images, preimage_bits


def carrier(prefix, n):
    return FinSet(tuple(f"{prefix}{i}" for i in range(n)))


def as_set(bits):
    return {i for i in range(bits.bit_length()) if bits >> i & 1}


def as_bits(indices):
    return sum(1 << i for i in set(indices))


def random_context(rng, max_side=3):
    inst, typ = carrier("g", rng.randint(1, max_side)), carrier("m", rng.randint(1, max_side))
    rows = tuple(rng.randrange(1 << typ.size) for _ in range(inst.size))
    return Classification(inst, typ, Relation(inst, typ, rows))


def incident(c, x, y):
    return bool(c.incidence.rows[x] >> y & 1)


def intent(c, xs):
    return {y for y in range(c.types.size) if all(incident(c, x, y) for x in xs)}


def extent(c, ys):
    return {x for x in range(c.instances.size) if all(incident(c, x, y) for y in ys)}


def subsets(n):
    return (set(s) for k in range(n + 1) for s in itertools.combinations(range(n), k))


def infomorphisms_valid_and_corrupted(seed, count):
    """Every infomorphism of seeded context pairs up to 3x3, plus random map pairs."""
    rng = random.Random(seed)
    for _ in range(count):
        a, b = random_context(rng), random_context(rng)
        yield from enumerate_infomorphisms(a, b)
        for _ in range(8):
            inst = FinFunction(b.instances, a.instances,
                               tuple(rng.randrange(a.instances.size) for _ in range(b.instances.size)))
            typ = FinFunction(a.types, b.types,
                              tuple(rng.randrange(b.types.size) for _ in range(a.types.size)))
            yield Infomorphism(a, b, inst, typ)


# ------------------------------------------------------------ image triple


@pytest.mark.parametrize("n, m", [(n, m) for n in range(4) for m in range(4) if not (n and not m)])
def test_image_triple_matches_bit_helpers_and_definitions(n, m):
    A, B = carrier("x", n), carrier("y", m)
    for table in itertools.product(range(m), repeat=n):
        f = FinFunction(A, B, table)
        ex, inv, un = images(f)
        for xs in subsets(n):
            X = Subset(A, as_bits(xs))
            assert ex(X).bits == image_bits(f, X.bits) == as_bits(table[x] for x in xs)
            assert un(X).bits == as_bits(
                y for y in range(m) if all(x in xs for x in range(n) if table[x] == y))
        for ys in subsets(m):
            Y = Subset(B, as_bits(ys))
            assert inv(Y).bits == preimage_bits(f, Y.bits) == as_bits(
                x for x in range(n) if table[x] in ys)


def test_image_triple_rejects_foreign_subsets():
    f = FinFunction(carrier("x", 2), carrier("y", 2), (0, 0))
    ex, inv, un = images(f)
    with pytest.raises(CarrierMismatchError):
        ex(Subset(carrier("y", 2), 1))
    with pytest.raises(CarrierMismatchError):
        inv(Subset(carrier("x", 2), 1))
    with pytest.raises(CarrierMismatchError):
        un(Subset(carrier("y", 2), 1))


# ------------------------------------------------------------ infomorphism checks


def oracle_versions(f):
    a, b = f.source, f.target
    inst, typ = f.inst_map.table, f.typ_map.table
    relation = all(incident(a, inst[x], y) == incident(b, x, typ[y])
                   for x in range(b.instances.size) for y in range(a.types.size))
    morphism = all(
        {x for x in range(b.instances.size) if inst[x] in extent(a, {y})} == extent(b, {typ[y]})
        for y in range(a.types.size)
    ) and all(
        {y for y in range(a.types.size) if typ[y] in intent(b, {x})} == intent(a, {inst[x]})
        for x in range(b.instances.size)
    )
    adjunction = all(
        intent(a, {inst[x] for x in xs}) == {y for y in range(a.types.size) if typ[y] in intent(b, xs)}
        for xs in subsets(b.instances.size)
    ) and all(
        {x for x in range(b.instances.size) if inst[x] in extent(a, ys)} == extent(b, {typ[y] for y in ys})
        for ys in subsets(a.types.size)
    )
    return relation, morphism, adjunction


def test_check_infomorphism_versions_match_definitions():
    verdicts = set()
    for f in infomorphisms_valid_and_corrupted(seed=5, count=40):
        rep = check_infomorphism(f)
        expected = oracle_versions(f)
        assert (rep.relation_version, rep.morphism_version, rep.adjunction_version) == expected
        assert (rep.witness is None) == expected[0]
        verdicts.add(expected)
    assert {(True, True, True), (False, False, False)} <= verdicts


# ------------------------------------------------------------ concept transport


def test_concept_transport_matches_closure_and_preimage():
    raised = tabled = 0
    for f in infomorphisms_valid_and_corrupted(seed=9, count=40):
        a, b = f.source, f.target
        inst, typ = f.inst_map.table, f.typ_map.table
        ca, cb = concepts_of(a), concepts_of(b)
        exts_a = [as_set(c.extent.bits) for c in ca]
        exts_b = [as_set(c.extent.bits) for c in cb]
        left_recipes = [
            (extent(a, {y for y in range(a.types.size) if typ[y] in as_set(c.intent.bits)}),
             extent(a, intent(a, {inst[x] for x in as_set(c.extent.bits)})))
            for c in cb
        ]
        right_recipes = [
            ({x for x in range(b.instances.size) if inst[x] in as_set(c.extent.bits)},
             extent(b, {typ[y] for y in as_set(c.intent.bits)}))
            for c in ca
        ]
        if any(p != q for p, q in left_recipes + right_recipes):
            with pytest.raises(CarrierMismatchError):
                concept_transport(f)
            raised += 1
            continue
        left, right = concept_transport(f)
        assert left == tuple(exts_a.index(p) for p, _ in left_recipes)
        assert right == tuple(exts_b.index(p) for p, _ in right_recipes)
        if f.is_valid():
            assert concept_square_failures(f.inst_map, f.typ_map, concept_lattice(a),
                                           concept_lattice(b), left, right) == []
        tabled += 1
    assert raised and tabled


def test_concept_square_failures_names_each_broken_square():
    a = Classification.of(["1", "2"], ["a", "b"], [("1", "a"), ("1", "b"), ("2", "b")])
    f = Infomorphism(a, a, FinFunction.identity(a.instances), FinFunction.identity(a.types))
    lat = concept_lattice(a)
    ident = tuple(range(lat.size))
    assert concept_square_failures(f.inst_map, f.typ_map, lat, lat, ident, ident) == []
    shifted = ident[1:] + ident[:1]
    assert concept_square_failures(f.inst_map, f.typ_map, lat, lat, shifted, shifted) == [
        "extent preservation fails at concept c0", "intent preservation fails at concept c0"]
