"""Orders and maps built without re-validation agree with the validating constructors."""

import random

import pytest

import conceptua.order as order
from conceptua.clg import concept_lattice, validate_concept_lattice
from conceptua.clsn import Classification, derivation
from conceptua.errors import SizeLimitError
from conceptua.finrel import FinSet, Relation
from conceptua.galois import check_adjunction, closure_interior, downset_coreflection, \
    enumerate_adjunctions, polar_factorize, recompose, upset_reflection
from conceptua.institution import Signature, theory_fiber
from conceptua.order import MonotoneMap, Poset, all_monotone_maps, opposite, power_order


def carrier(prefix, n):
    return FinSet(tuple(f"{prefix}{i}" for i in range(n)))


def random_context(rng, n_inst, n_typ):
    inst, typ = carrier("g", n_inst), carrier("m", n_typ)
    rows = tuple(rng.getrandbits(n_typ) if n_typ else 0 for _ in range(n_inst))
    return Classification(inst, typ, Relation(inst, typ, rows))


def rebuilt_order(p):
    return type(p)(p.carrier, p.leq)


def rebuilt_map(f):
    return MonotoneMap(rebuilt_order(f.source), rebuilt_order(f.target), f.func)


@pytest.mark.parametrize("n", range(7))
def test_power_order_matches_brute_force_inclusion(n):
    po = power_order(carrier("e", n))
    size = 1 << n
    brute = tuple(
        sum(1 << j for j in range(size) if i & ~j == 0) for i in range(size)
    )
    assert po.leq.rows == brute
    assert Poset(po.carrier, po.leq) == po


@pytest.mark.parametrize("n", range(7))
def test_power_order_opposite_is_the_transpose(n):
    reverse = power_order(carrier("e", n), reverse=True)
    assert reverse == opposite(power_order(carrier("e", n)))
    assert Poset(reverse.carrier, reverse.leq) == reverse


def test_opposite_keeps_the_order_class():
    p = order.Preorder.from_pairs(carrier("e", 3), [("e0", "e1"), ("e1", "e0")])
    assert type(opposite(p)) is order.Preorder
    assert type(opposite(power_order(carrier("e", 2)))) is Poset


def test_concept_lattice_and_derivation_pass_the_public_constructors():
    rng = random.Random(2024)
    for _ in range(40):
        a = random_context(rng, rng.randint(0, 6), rng.randint(0, 6))
        lat = concept_lattice(a)
        assert rebuilt_order(lat.lattice) == lat.lattice
        for adj in (lat.extent_reflection, lat.intent_coreflection):
            for p in (adj.source, adj.target):
                assert rebuilt_order(p) == p
            for f in (adj.left, adj.right):
                assert rebuilt_map(f) == f
        assert validate_concept_lattice(lat) == []

        deriv = derivation(a)
        for p in (deriv.source, deriv.target):
            assert rebuilt_order(p) == p
        for f in (deriv.left, deriv.right):
            assert rebuilt_map(f) == f


def test_concept_lattice_classifies_no_power_order(monkeypatch):
    sizes = []
    real = order.classify_endorelation

    def counting(r):
        sizes.append(r.source.size)
        return real(r)

    monkeypatch.setattr(order, "classify_endorelation", counting)
    rng = random.Random(7)
    lat = concept_lattice(random_context(rng, 6, 10))
    assert lat.size > 0
    assert not [s for s in sizes if s in (1 << 6, 1 << 10)]


def test_public_poset_classifies_once(monkeypatch):
    calls = []
    real = order.classify_endorelation

    def counting(r):
        calls.append(r)
        return real(r)

    monkeypatch.setattr(order, "classify_endorelation", counting)
    p = Poset(carrier("e", 3), Relation.identity(carrier("e", 3)))
    assert len(calls) == 1
    assert p.is_poset()
    assert len(calls) == 1


def test_public_poset_still_rejects_each_axiom():
    c = carrier("e", 2)
    with pytest.raises(ValueError, match="not reflexive"):
        Poset(c, Relation(c, c, (0b01, 0b00)))
    c3 = carrier("e", 3)
    with pytest.raises(ValueError, match="not transitive"):
        Poset(c3, Relation(c3, c3, (0b011, 0b110, 0b100)))
    with pytest.raises(ValueError, match="not antisymmetric"):
        Poset(c, Relation(c, c, (0b11, 0b11)))
    assert not order.Preorder(c, Relation(c, c, (0b11, 0b11))).is_poset()


@pytest.mark.parametrize("build", [
    lambda a: power_order(a.instances),
    lambda a: derivation(a),
    lambda a: concept_lattice(a).extent_reflection,
])
def test_size_guard_names_size_elements_and_override(build, monkeypatch):
    a = random_context(random.Random(3), 5, 2)
    monkeypatch.setenv("CONCEPTUA_MAX_CARRIER", "4")
    with pytest.raises(SizeLimitError) as err:
        build(a)
    message = str(err.value)
    assert "5 elements" in message
    assert "2^5 = 32" in message
    assert "CONCEPTUA_MAX_CARRIER" in message


def seeded_adjunctions(count, seed):
    rng = random.Random(seed)
    return [derivation(random_context(rng, rng.randint(0, 4), rng.randint(0, 4)))
            for _ in range(count)]


def test_composites_pass_the_public_constructor():
    for g in seeded_adjunctions(30, 11):
        for f in (g.left.then(g.right), g.right.then(g.left),
                  g.left.then(g.right).then(g.left)):
            assert rebuilt_map(f) == f
        composed = recompose(polar_factorize(g))
        for f in (composed.left, composed.right):
            assert rebuilt_map(f) == f
        assert check_adjunction(composed.left, composed.right) is not None


def test_fixed_point_subposets_pass_the_public_constructors():
    for g in seeded_adjunctions(30, 12):
        ci = closure_interior(g)
        for sub, incl in ((ci.closed, ci.closed_inclusion), (ci.open, ci.open_inclusion)):
            assert rebuilt_order(sub) == sub
            assert rebuilt_map(incl) == incl
        pf = polar_factorize(g)
        axis = pf.axis
        for m in range(axis.size):
            for adj in (upset_reflection(axis, m), downset_coreflection(axis, m)):
                for p in (adj.source, adj.target):
                    assert rebuilt_order(p) == p
                for f in (adj.left, adj.right):
                    assert rebuilt_map(f) == f


def test_fixed_point_subposet_of_a_preorder_is_still_classified():
    c = carrier("e", 2)
    p = order.Preorder(c, Relation(c, c, (0b11, 0b11)))
    with pytest.raises(ValueError, match="not antisymmetric"):
        upset_reflection(p, 0)


def test_polar_factorization_passes_the_public_constructors():
    for g in seeded_adjunctions(40, 13):
        pf = polar_factorize(g)
        assert rebuilt_order(pf.axis) == pf.axis
        for adj in (pf.extent_reflection, pf.intent_coreflection):
            for f in (adj.left, adj.right):
                assert rebuilt_map(f) == f
            assert check_adjunction(rebuilt_map(adj.left), rebuilt_map(adj.right)) is not None
        assert recompose(pf).left.func.table == g.left.func.table


def test_theory_fibers_pass_the_public_constructor():
    for n in range(4):
        fib = theory_fiber(Signature.of(*"pqr"[:n]))
        assert rebuilt_order(fib.poset) == fib.poset
        assert type(fib.poset) is Poset


def test_enumerated_maps_pass_the_public_constructor():
    rng = random.Random(14)
    orders = [order.Preorder.from_pairs(carrier("e", n), [
        (f"e{rng.randrange(n)}", f"e{rng.randrange(n)}") for _ in range(n)]) for n in range(4)]
    orders.append(order.Preorder.chain("a", "b", "c"))
    for p in orders:
        for q in orders:
            for f in all_monotone_maps(p, q):
                assert rebuilt_map(f) == f
            for adj in enumerate_adjunctions(p, q):
                assert check_adjunction(rebuilt_map(adj.left), rebuilt_map(adj.right)) is not None
