"""Polar factorization read off the adjunction's tables, against the
closure/interior code it replaces.

The oracle is the earlier ``polar_factorize``, copied in: it built the
closure, the interior and both fixed-point sub-posets with
``closure_interior``, took the axis order from the closed sub-poset and the
four maps from the closure's table.  Both give the same axis (carrier and
rows), the same bipoles, and the same orders and table for each of the four
maps, on the derivations of seeded contexts up to 5 x 5, on every adjunction
between posets of up to 3 elements (each also as a plain ``Preorder``), and
on the identity adjunctions of power orders; a boundary that is not a poset
raises the same error.
"""

import itertools
import random

import pytest

from conceptua.clsn import derivation
from conceptua.finrel import FinSet, Relation, _trusted
from conceptua.galois import (
    Adjunction,
    PolarFactorization,
    closure_interior,
    enumerate_adjunctions,
    identity_adjunction,
    polar_factorize,
)
from conceptua.order import Poset, Preorder, _monotone, power_order
from conceptua.verify import random_classification

# ------------------------------------------------------------------ the oracle


def oracle_polar_factorize(g):
    ci = closure_interior(g)
    bipoles = tuple((a, g.left_idx(a)) for a in ci.closed_inclusion.func.table)
    src_el, tgt_el = g.source.carrier.elements, g.target.carrier.elements
    labels = tuple(f"({src_el[a]},{tgt_el[b]})" for a, b in bipoles)
    axis_carrier = FinSet(labels)
    axis = _trusted(Poset, axis_carrier, Relation(axis_carrier, axis_carrier,
                                                           ci.closed_inclusion.source.leq.rows))

    pos_of_closed = {a: k for k, (a, _) in enumerate(bipoles)}
    embed_src = _monotone(g.source, axis,
                          (pos_of_closed[c] for c in ci.closure.func.table))
    project_src = _monotone(axis, g.source, (a for a, _ in bipoles))
    project_tgt = _monotone(axis, g.target, (b for _, b in bipoles))
    embed_tgt = _monotone(g.target, axis, (pos_of_closed[a] for a in g.right.func.table))

    extent_reflection = Adjunction(g.source, axis, embed_src, project_src)
    intent_coreflection = Adjunction(axis, g.target, project_tgt, embed_tgt)
    return PolarFactorization(g, axis, extent_reflection, intent_coreflection, bipoles)


# ------------------------------------------------------------------ comparison


def order_key(p):
    return type(p), p.carrier.elements, p.leq.rows


def map_key(f):
    return order_key(f.source), order_key(f.target), f.func.table


def factorization_key(pf):
    adjunctions = (pf.extent_reflection, pf.intent_coreflection)
    return (order_key(pf.axis), pf.bipoles,
            [(order_key(h.source), order_key(h.target), map_key(h.left), map_key(h.right))
             for h in adjunctions])


def assert_matches_oracle(g):
    pf = polar_factorize(g)
    assert pf.original is g
    assert factorization_key(pf) == factorization_key(oracle_polar_factorize(g))


# ------------------------------------------------------------------ inputs


def labelled_orders(n):
    """Every poset on n labelled elements, once as a ``Poset`` and once as an
    antisymmetric ``Preorder``."""
    carrier = FinSet(tuple(f"p{i}" for i in range(n)))
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    for chosen in itertools.product((0, 1), repeat=len(off_diagonal)):
        rows = [1 << i for i in range(n)]
        for (i, j), on in zip(off_diagonal, chosen):
            rows[i] |= on << j
        leq = Relation(carrier, carrier, tuple(rows))
        try:
            yield Poset(carrier, leq)
        except ValueError:
            continue
        yield Preorder(carrier, leq)


SMALL_ORDERS = [p for n in range(4) for p in labelled_orders(n)]


def test_small_orders_cover_the_labelled_posets():
    # 1, 1, 3 and 19 labelled posets on 0-3 elements, each in both classes
    assert len(SMALL_ORDERS) == 2 * (1 + 1 + 3 + 19)


@pytest.mark.parametrize("seed", range(3))
def test_derivations_of_seeded_contexts_match_the_oracle(seed):
    rng = random.Random(seed)
    for _ in range(100):
        assert_matches_oracle(derivation(random_classification(rng, 5)))


@pytest.mark.parametrize("n", range(4))
def test_every_adjunction_between_small_posets_matches_the_oracle(n):
    count = 0
    for p in (q for q in SMALL_ORDERS if q.size == n):
        for q in SMALL_ORDERS:
            for g in enumerate_adjunctions(p, q):
                assert_matches_oracle(g)
                count += 1
    assert count > 0


@pytest.mark.parametrize("n", range(4))
def test_identity_adjunctions_of_power_orders_match_the_oracle(n):
    carrier = FinSet(tuple(f"x{i}" for i in range(n)))
    for reverse in (False, True):
        assert_matches_oracle(identity_adjunction(power_order(carrier, reverse)))


PAIR = FinSet(("a", "b"))
LOOP = Preorder(PAIR, Relation(PAIR, PAIR, (0b11, 0b11)))
POINT = Poset.chain("p")


@pytest.mark.parametrize("g", [identity_adjunction(LOOP), next(enumerate_adjunctions(POINT, LOOP)),
                               next(enumerate_adjunctions(LOOP, POINT))],
                         ids=["both", "target", "source"])
def test_a_boundary_that_is_not_a_poset_raises_the_same_error(g):
    with pytest.raises(ValueError) as expected:
        oracle_polar_factorize(g)
    with pytest.raises(ValueError) as actual:
        polar_factorize(g)
    assert str(actual.value) == str(expected.value) == "closure/interior require poset boundaries"
