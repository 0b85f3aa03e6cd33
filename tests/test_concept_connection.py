"""The concept connection of a map pair is decided by ``concept_transport``.

Its two recipes agree exactly when the pair is an infomorphism, and the
tables it returns pass every check that once followed it: the adjointness
check over every pair of concepts, the concept squares, ``MonotoneMap``
and ``check_adjunction``.  This runs over every map pair between any two
2x2 contexts, and over seeded pairs between contexts up to 4x4, most of
them invalid.  The transport that scanned both recipes at every concept
is copied in as the oracle: the transport that decides validity first and
looks its tables up must return the same
tables, or raise the same message, on every map pair between contexts up to
2x2, on 3x2 and 2x3 contexts and on the seeded pairs.
``ConceptMorphism.check`` runs beside its earlier loops over the lattice
order, copied in, on perturbed connections.
"""

import itertools
import random

from conceptua.clg import (
    ConceptMorphism,
    concept_lattice,
    concept_morphism_of,
    concept_square_failures,
    concept_transport,
    concepts_of,
)
from conceptua.clsn import Classification, Infomorphism, enumerate_infomorphisms
from conceptua.errors import CarrierMismatchError
from conceptua.finrel import FinFunction, FinSet, Relation, image_bits, preimage_rows
from conceptua.galois import Adjunction, check_adjunction
from conceptua.order import MonotoneMap, _monotone
from conceptua.verify import random_classification


def pairwise_adjointness_failures(source_concepts, target_concepts, left, right):
    """left(k) <= k2 iff k <= right(k2), over every (target k, source k2) pair."""
    return [
        (k, k2)
        for k, cb in enumerate(target_concepts) for k2, ca in enumerate(source_concepts)
        if (source_concepts[left[k]].extent.bits & ~ca.extent.bits == 0)
        != (cb.extent.bits & ~target_concepts[right[k2]].extent.bits == 0)
    ]


def transport_or_none(f):
    try:
        return concept_transport(f)
    except CarrierMismatchError:
        return None


def assert_connection_checks_pass(f, left, right):
    ca, cb = concepts_of(f.source), concepts_of(f.target)
    assert pairwise_adjointness_failures(ca, cb, left, right) == []
    la, lb = concept_lattice(f.source), concept_lattice(f.target)
    assert concept_square_failures(f.inst_map, f.typ_map, la, lb, left, right) == []
    lower = MonotoneMap(lb.lattice, la.lattice, FinFunction(lb.lattice.carrier, la.lattice.carrier, left))
    upper = MonotoneMap(la.lattice, lb.lattice, FinFunction(la.lattice.carrier, lb.lattice.carrier, right))
    check_adjunction(lower, upper)


def map_pairs(a, b):
    for inst in itertools.product(range(a.instances.size), repeat=b.instances.size):
        for typ in itertools.product(range(b.types.size), repeat=a.types.size):
            yield Infomorphism(a, b, FinFunction(b.instances, a.instances, inst),
                               FinFunction(a.types, b.types, typ))


def test_transport_returns_iff_valid_on_every_2x2_map_pair():
    inst, typ = FinSet(("i0", "i1")), FinSet(("t0", "t1"))
    contexts = [Classification(inst, typ, Relation(inst, typ, rows))
                for rows in itertools.product(range(4), repeat=2)]
    returned = rejected = 0
    for a, b in itertools.product(contexts, contexts):
        for f in map_pairs(a, b):
            tables = transport_or_none(f)
            assert (tables is not None) == f.is_valid()
            if tables is None:
                rejected += 1
            else:
                assert_connection_checks_pass(f, *tables)
                returned += 1
    assert returned + rejected == 16 * 16 * 16
    assert returned > 200 and rejected > 2000


def oracle_right_recipes(f, source_concepts):
    b = f.target
    pre = preimage_rows(f.inst_map, [c.extent.bits for c in source_concepts])
    return zip(pre, (b.extent_of(image_bits(f.typ_map, c.intent.bits)) for c in source_concepts))


def oracle_concept_transport(f, source_concepts, target_concepts):
    """The earlier ``concept_transport``: both recipes of both tables at every concept."""
    a = f.source
    pos_a = {c.extent.bits: k for k, c in enumerate(source_concepts)}
    pos_b = {c.extent.bits: k for k, c in enumerate(target_concepts)}
    pulled = preimage_rows(f.typ_map, [c.intent.bits for c in target_concepts])
    left = []
    for c, intent in zip(target_concepts, pulled):
        ext = a.extent_of(intent)
        if ext != a.extent_of(a.intent_of(image_bits(f.inst_map, c.extent.bits))):
            raise CarrierMismatchError(
                f"concept transport formulas disagree at target concept with extent {c.extent}")
        left.append(pos_a[ext])
    right = []
    for c, (pre, derived) in zip(source_concepts, oracle_right_recipes(f, source_concepts)):
        if pre != derived:
            raise CarrierMismatchError(
                f"concept transport formulas disagree at source concept with extent {c.extent}")
        right.append(pos_b[pre])
    return tuple(left), tuple(right)


def outcome(transport, *args):
    """("return", tables) or ("raise", message)."""
    try:
        return "return", transport(*args)
    except CarrierMismatchError as exc:
        return "raise", str(exc)


def assert_transport_matches_oracle(pairs):
    """The same outcome on every pair; returns the counts of returns and raises."""
    counts = {"return": 0, "raise": 0}
    for f in pairs:
        got = outcome(concept_transport, f)
        assert got == outcome(oracle_concept_transport, f, concepts_of(f.source),
                              concepts_of(f.target))
        counts[got[0]] += 1
    return counts


def contexts_of_shape(n_inst, n_typ):
    inst = FinSet(tuple(f"i{k}" for k in range(n_inst)))
    typ = FinSet(tuple(f"t{k}" for k in range(n_typ)))
    return [Classification(inst, typ, Relation(inst, typ, rows))
            for rows in itertools.product(range(1 << n_typ), repeat=n_inst)]


def test_transport_matches_oracle_on_every_map_pair_up_to_2x2():
    contexts = [c for shape in itertools.product(range(3), repeat=2)
                for c in contexts_of_shape(*shape)]
    assert len(contexts) == 31
    counts = assert_transport_matches_oracle(
        f for a, b in itertools.product(contexts, contexts) for f in map_pairs(a, b))
    assert counts == {"return": 1005, "raise": 5276}


def test_transport_matches_oracle_on_3x2_and_2x3_contexts():
    """Every map pair between 8 seeded contexts of each shape, both ways."""
    rng = random.Random(16)
    contexts = rng.sample(contexts_of_shape(3, 2), 8) + rng.sample(contexts_of_shape(2, 3), 8)
    counts = assert_transport_matches_oracle(
        f for a, b in itertools.product(contexts, contexts) for f in map_pairs(a, b))
    assert counts == {"return": 821, "raise": 22283}


def random_map_pair(rng, a, b):
    return Infomorphism(
        a, b,
        FinFunction(b.instances, a.instances,
                    tuple(rng.randrange(a.instances.size) for _ in range(b.instances.size))),
        FinFunction(a.types, b.types,
                    tuple(rng.randrange(b.types.size) for _ in range(a.types.size))))


def seeded_map_pairs(seed, count):
    """Random map pairs between contexts up to 4x4, every third one valid when
    the two contexts have an infomorphism at all."""
    rng = random.Random(seed)
    for n in range(count):
        a, b = random_classification(rng, 4), random_classification(rng, 4)
        if n % 3 == 0 and (infos := enumerate_infomorphisms(a, b, max_results=2000)):
            yield rng.choice(infos)
        else:
            yield random_map_pair(rng, a, b)


def test_transport_returns_iff_valid_on_seeded_4x4_map_pairs():
    returned = rejected = 0
    for f in seeded_map_pairs(seed=14, count=600):
        tables = transport_or_none(f)
        assert (tables is not None) == f.is_valid()
        if tables is None:
            rejected += 1
        else:
            assert_connection_checks_pass(f, *tables)
            returned += 1
    assert returned > 100 and rejected > 100


def test_transport_matches_oracle_on_seeded_4x4_map_pairs():
    for seed in (14, 15):
        counts = assert_transport_matches_oracle(seeded_map_pairs(seed, count=600))
        assert counts["return"] > 100 and counts["raise"] > 100


def earlier_check_loops(h):
    """The loops of the earlier ``ConceptMorphism.check`` over the lattice order."""
    failures = []
    l1, l2 = h.source, h.target
    conn = h.connection
    for x in range(l2.instances.size):
        for c in range(l1.size):
            if l1.instance_of(h.inst_map.table[x], c) != l2.instance_of(x, conn.right.func.table[c]):
                failures.append(f"extensional condition fails at instance "
                                f"{l2.instances.elements[x]}, concept c{c}")
                break
    for c in range(l2.size):
        for y in range(l1.types.size):
            if l1.of_type(conn.left.func.table[c], y) != l2.of_type(c, h.typ_map.table[y]):
                failures.append(f"intensional condition fails at concept c{c}, type "
                                f"{l1.types.elements[y]}")
                break
    return failures


def failure_kinds(failures):
    kinds = {"extensional": "extent", "extent": "extent",
             "intensional": "intent", "intent": "intent"}
    return {kinds[failure.split()[0]] for failure in failures}


def perturbed(h, rng):
    """``h`` with one entry of one of its two tables moved, packaged unchecked."""
    left, right = list(h.connection.left.func.table), list(h.connection.right.func.table)
    table, size = rng.choice([(left, h.source.size), (right, h.target.size)])
    table[rng.randrange(len(table))] = rng.randrange(size)
    src, tgt = h.target.lattice, h.source.lattice
    conn = Adjunction(src, tgt, _monotone(src, tgt, left), _monotone(tgt, src, right))
    return ConceptMorphism(h.source, h.target, conn, h.inst_map, h.typ_map)


def test_check_flags_the_failure_kinds_of_the_earlier_loops_on_perturbed_connections():
    rng = random.Random(1997)
    kinds_seen = set()
    checked = 0
    for f in seeded_map_pairs(seed=15, count=600):
        if not f.is_valid():
            continue
        h = concept_morphism_of(f)
        assert h.check() == earlier_check_loops(h) == []
        for _ in range(4):
            h2 = perturbed(h, rng)
            got = failure_kinds(h2.check())
            assert got == failure_kinds(earlier_check_loops(h2))
            kinds_seen.add(frozenset(got))
            checked += 1
    assert checked > 200
    assert {frozenset(), frozenset({"extent"}), frozenset({"intent"})} <= kinds_seen
