"""Classifications, derivation adjunctions, infomorphisms, exponent contexts."""

import itertools
import random

import pytest

from conceptua.errors import CarrierMismatchError
from conceptua.finrel import (
    FinFunction,
    FinSet,
    Relation,
    Subset,
    compose,
    finset,
    transpose,
)
from conceptua.galois import check_adjunction
from conceptua.clsn import (
    Classification,
    Infomorphism,
    bounds_adjunction,
    check_infomorphism,
    compose_infomorphisms,
    derivation,
    derivation_equals_bounds,
    enumerate_infomorphisms,
    exponent,
    identity_infomorphism,
    involution_classification,
    multiply,
    order_as_classification,
)
from conceptua.order import Preorder, up_segment
from conceptua.verify import random_classification

WORKED = Classification.of(["1", "2"], ["a", "b"], [("1", "a"), ("1", "b"), ("2", "b")])


def all_functions(source, target):
    for table in itertools.product(range(target.size), repeat=source.size):
        yield FinFunction(source, target, table)


# --------------------------------------------------------------- derivation


def test_derivation_of_empty_incidence():
    a = Classification.of(["1", "2"], ["x"], [])
    d = derivation(a)
    # nonempty instance sets derive to no types; the empty set derives to all
    assert d.left.func.table[0b01] == 0  # in the reversed type power
    assert d.left.func.table[0] == 1  # full type set


def test_derivation_worked_values():
    d = derivation(WORKED)
    inst, typ = WORKED.instances, WORKED.types
    # derive_forward({2}) = {b}; derive_reverse({b}) = {1,2}
    assert d.left.func.table[0b10] == 0b10  # {2} -> {b}
    assert d.right.func.table[0b10] == 0b11  # {b} -> {1,2}


def test_derivation_is_checked_adjunction_on_random_contexts():
    rng = random.Random(1)
    for _ in range(100):
        a = random_classification(rng, 6)
        d = derivation(a)
        assert check_adjunction(d.left, d.right) is not None


def test_derivation_galois_laws_on_500_random_contexts():
    from conceptua.finrel import derive_forward, derive_reverse

    rng = random.Random(14)
    for _ in range(500):
        a = random_classification(rng, 6)
        x = Subset(a.instances, rng.randrange(1 << a.instances.size))
        y = Subset(a.types, rng.randrange(1 << a.types.size))
        assert y.issubset(derive_forward(a.incidence, x)) == \
            x.issubset(derive_reverse(a.incidence, y))


# ------------------------------------------------------------ infomorphisms


def test_identity_infomorphism_valid():
    rng = random.Random(2)
    for _ in range(20):
        a = random_classification(rng, 4)
        rep = check_infomorphism(identity_infomorphism(a))
        assert rep.valid and rep.versions_agree


def test_one_point_infomorphism():
    a = Classification.of(["i"], ["t"], [("i", "t")])
    f = Infomorphism(a, a, FinFunction.identity(a.instances), FinFunction.identity(a.types))
    assert check_infomorphism(f).valid


def test_three_versions_agree_exhaustively_on_2x2():
    i2, t2 = finset("i0", "i1"), finset("t0", "t1")
    rels = [Relation(i2, t2, rows) for rows in itertools.product(range(4), repeat=2)]
    rng = random.Random(3)
    for _ in range(8):
        a = Classification(i2, t2, rng.choice(rels))
        b = Classification(i2, t2, rng.choice(rels))
        for im in all_functions(i2, i2):
            for tm in all_functions(t2, t2):
                rep = check_infomorphism(Infomorphism(a, b, im, tm))
                assert rep.versions_agree


def test_infomorphism_carrier_checks():
    a = Classification.of(["i"], ["t"], [])
    b = Classification.of(["j", "k"], ["u"], [])
    with pytest.raises(CarrierMismatchError):
        Infomorphism(a, b, FinFunction.identity(a.instances), FinFunction.identity(a.types))


def test_composition_preserves_fundamental_condition():
    rng = random.Random(4)
    done = 0
    while done < 10:
        a = random_classification(rng, 2)
        b = random_classification(rng, 2)
        c = random_classification(rng, 2)
        fs = enumerate_infomorphisms(a, b)
        gs = enumerate_infomorphisms(b, c)
        if not fs or not gs:
            continue
        f, g = rng.choice(fs), rng.choice(gs)
        fg = compose_infomorphisms(f, g)
        assert fg.is_valid()
        # contravariant instance side, covariant type side
        x = rng.randrange(c.instances.size)
        assert fg.inst_map.table[x] == f.inst_map.table[g.inst_map.table[x]]
        done += 1


def test_extended_fundamental_identities_as_relation_equalities():
    rng = random.Random(5)
    done = 0
    while done < 15:
        a = random_classification(rng, 3)
        b = random_classification(rng, 3)
        infos = enumerate_infomorphisms(a, b)
        if not infos:
            continue
        f = rng.choice(infos)
        assert compose(f.inst_map.as_relation(), a.incidence) == \
            compose(b.incidence, transpose(f.typ_map.as_relation()))
        assert compose(transpose(a.incidence), transpose(f.inst_map.as_relation())) == \
            compose(f.typ_map.as_relation(), transpose(b.incidence))
        done += 1


# --------------------------------------------------- orders as classifications


def test_order_as_classification_discrete():
    p = Preorder.discrete(finset("x", "y"))
    a = order_as_classification(p)
    assert a.incidence == Relation.identity(p.carrier)


def test_order_as_classification_chain_derivation_is_up_segment():
    p = Preorder.chain("0", "1")
    d = derivation(order_as_classification(p))
    # derive_forward({a}) = up-segment of a
    for i, lab in enumerate(p.carrier.elements):
        assert d.left.func.table[1 << i] == up_segment(p, lab).bits


def test_derivation_equals_bounds_on_random_preorders():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 6)
        carrier = FinSet(tuple(f"e{i}" for i in range(n)))
        pairs = [(carrier.elements[rng.randrange(n)], carrier.elements[rng.randrange(n)])
                 for _ in range(rng.randint(0, 2 * n))]
        p = Preorder.from_pairs(carrier, pairs)
        assert derivation_equals_bounds(p)
        assert bounds_adjunction(p) is not None


# ------------------------------------------------------------------ exponent


def brute_force_infomorphisms(a, b):
    found = []
    for im in all_functions(b.instances, a.instances):
        for tm in all_functions(a.types, b.types):
            ok = all(
                a.incidence.holds_idx(im.table[x], y) == b.incidence.holds_idx(x, tm.table[y])
                for x in range(b.instances.size)
                for y in range(a.types.size)
            )
            if ok:
                found.append((im.table, tm.table))
    return found


def test_exponent_into_terminal_context_matches_brute_force():
    terminal_ctx = Classification.of(["*"], ["T"], [("*", "T")])
    rng = random.Random(7)
    for _ in range(10):
        a = random_classification(rng, 3)
        infos = enumerate_infomorphisms(a, terminal_ctx)
        assert sorted((f.inst_map.table, f.typ_map.table) for f in infos) == \
            sorted(brute_force_infomorphisms(a, terminal_ctx))


def test_enumerate_matches_brute_force_on_small_contexts():
    rng = random.Random(8)
    for _ in range(15):
        a = random_classification(rng, 2)
        b = random_classification(rng, 2)
        infos = enumerate_infomorphisms(a, b)
        assert sorted((f.inst_map.table, f.typ_map.table) for f in infos) == \
            sorted(brute_force_infomorphisms(a, b))


def test_exponent_contains_identity():
    expo = exponent(WORKED, WORKED)
    assert "(0,1;0,1)" in expo.instances.elements


def test_exponent_incidence_formulas_agree():
    rng = random.Random(9)
    for _ in range(10):
        a = random_classification(rng, 2)
        b = random_classification(rng, 3)
        expo = exponent(a, b)
        infos = enumerate_infomorphisms(a, b)
        n_t = a.types.size
        for k, f in enumerate(infos):
            for x in range(b.instances.size):
                for y in range(n_t):
                    via_a = a.incidence.holds_idx(f.inst_map.table[x], y)
                    via_b = b.incidence.holds_idx(x, f.typ_map.table[y])
                    assert via_a == via_b
                    assert expo.incidence.holds_idx(k, x * n_t + y) == via_a


def test_exponent_type_carrier_is_product():
    expo = exponent(WORKED, WORKED)
    assert expo.types.elements == ("(1,a)", "(1,b)", "(2,a)", "(2,b)")


def test_multiply_has_instance_pairs():
    prod = multiply(WORKED, WORKED)
    # instances of A (x) B are pairs of a B-instance with an A-instance
    assert prod.instances.elements == ("(1,1)", "(1,2)", "(2,1)", "(2,2)")
    # incidence against the defining formula: ((x, a), f) holds iff a' in A
    # relates to the transported instance; spot-check through the involution
    trans = involution_classification(WORKED)
    infos = enumerate_infomorphisms(trans, WORKED)
    for k, f in enumerate(infos):
        for xi in range(WORKED.instances.size):
            for yi in range(trans.types.size):
                expected = trans.incidence.holds_idx(f.inst_map.table[xi], yi)
                assert prod.incidence.holds_idx(xi * trans.types.size + yi, k) == expected


def test_involution_classification_is_involutive():
    rng = random.Random(10)
    for _ in range(10):
        a = random_classification(rng, 4)
        assert involution_classification(involution_classification(a)) == a
