"""Carrier checks test identity before labels, and still reject other carriers.

Every check that compares carriers first asks whether they are the same
object.  Carriers that are equal but distinct objects must still be
accepted through the label comparison, with the same result, and carriers
with other labels must still raise ``CarrierMismatchError`` with the same
message.
"""

import itertools

import pytest

from conceptua.errors import CarrierMismatchError
from conceptua.finrel import (
    FinFunction,
    FinSet,
    Relation,
    Subset,
    compose,
    residuate_left,
    residuate_right,
)
from conceptua.order import MonotoneMap, Poset, same_order


def twins(*labels):
    """Two carriers with the same labels that are distinct objects."""
    one, two = FinSet(tuple(labels)), FinSet(tuple(labels))
    assert one is not two
    return one, two


A, A_TWIN = twins("a0", "a1", "a2")
OTHER = FinSet(("z0", "z1", "z2"))  # same size, other labels
SHUFFLED = FinSet(("a1", "a0", "a2"))  # same labels, other order
S = FinSet(("s0", "s1"))
T = FinSet(("t0", "t1"))


def chain_on(carrier):
    n = carrier.size
    return Poset(carrier, Relation(carrier, carrier, tuple(((1 << n) - 1) >> i << i
                                                            for i in range(n))))


# name -> (operation on the two carriers a check compares, its mismatch message)
OPERATIONS = {
    "Subset.union": (lambda x, y: Subset(x, 0b101).union(Subset(y, 0b011)),
                     "subsets over different carriers"),
    "Subset.issubset": (lambda x, y: Subset(x, 0b001).issubset(Subset(y, 0b011)),
                        "subsets over different carriers"),
    "Relation.union": (lambda x, y: Relation(x, T, (1, 2, 0)).union(Relation(y, T, (2, 2, 1))),
                       "relations over different carriers"),
    "Relation.union (target)": (
        lambda x, y: Relation(S, x, (1, 6)).union(Relation(S, y, (2, 1))),
        "relations over different carriers"),
    "Relation.__le__": (lambda x, y: Relation(x, T, (1, 2, 0)) <= Relation(y, T, (3, 2, 1)),
                        "relations over different carriers"),
    "Relation.__le__ (target)": (lambda x, y: Relation(S, x, (1, 6)) <= Relation(S, y, (3, 7)),
                                 "relations over different carriers"),
    "compose": (lambda x, y: compose(Relation(S, x, (5, 2)), Relation(y, T, (1, 2, 3))),
                "compose: target of first relation differs from source of second"),
    "residuate_left": (
        lambda x, y: residuate_left(Relation(x, S, (1, 3, 0)), Relation(y, T, (2, 3, 1))),
        "residuate_left: relations must share their source"),
    "residuate_right": (
        lambda x, y: residuate_right(Relation(S, x, (5, 2)), Relation(T, y, (7, 1))),
        "residuate_right: relations must share their target"),
    "FinFunction.then": (
        lambda x, y: FinFunction(S, x, (2, 0)).then(FinFunction(y, T, (1, 0, 1))),
        "composing functions with mismatched carriers"),
    "MonotoneMap.then": (
        lambda x, y: MonotoneMap(chain_on(S), chain_on(x), FinFunction(S, x, (0, 2))).then(
            MonotoneMap(chain_on(y), chain_on(T), FinFunction(y, T, (0, 1, 1)))),
        "composing monotone maps with mismatched orders"),
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_equal_but_distinct_carriers_are_accepted(name):
    operation, _ = OPERATIONS[name]
    assert operation(A, A_TWIN) == operation(A, A)
    assert operation(A_TWIN, A) == operation(A_TWIN, A_TWIN)


@pytest.mark.parametrize("other", [OTHER, SHUFFLED], ids=["labels", "order"])
@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_other_carriers_still_raise_the_same_error(name, other):
    operation, message = OPERATIONS[name]
    for x, y in ((A, other), (other, A)):
        with pytest.raises(CarrierMismatchError) as info:
            operation(x, y)
        assert str(info.value) == message


def test_finset_equality_and_hash_agree_between_twins():
    for labels in ((), ("a",), ("a", "b", "c")):
        one, two = twins(*labels)
        assert one == two and not one != two
        assert hash(one) == hash(two) == hash((labels,))
        assert len({one, two}) == 1
    assert A != OTHER and A != SHUFFLED
    assert A != A.elements and A.__eq__(A.elements) is NotImplemented
    assert Subset(A, 3) == Subset(A_TWIN, 3) and hash(Subset(A, 3)) == hash(Subset(A_TWIN, 3))


def test_same_order_compares_twins_by_labels():
    assert same_order(chain_on(A), chain_on(A_TWIN))
    assert not same_order(chain_on(A), chain_on(OTHER))
    assert not same_order(chain_on(A), Poset.discrete(A))


def test_inclusion_matches_the_row_by_row_definition_on_every_2x2_pair():
    relations = [Relation(S, T, rows) for rows in itertools.product(range(4), repeat=2)]
    for r, s in itertools.product(relations, repeat=2):
        assert (r <= s) == all(a & ~b == 0 for a, b in zip(r.rows, s.rows))
