"""Relational calculus: composition, transpose, residuation, images, derivation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptua.errors import CarrierMismatchError, UnknownElementError
from conceptua.finrel import (
    FinFunction,
    FinSet,
    Relation,
    Subset,
    compose,
    derive_forward,
    derive_reverse,
    finset,
    image_factorize,
    images,
    residuate_left,
    residuate_right,
    transpose,
)

A2 = finset("a0", "a1")
B2 = finset("b0", "b1")
C2 = finset("c0", "c1")


def all_relations(source, target):
    for rows in itertools.product(range(1 << target.size), repeat=source.size):
        yield Relation(source, target, rows)


def all_functions(source, target):
    for table in itertools.product(range(target.size), repeat=source.size):
        yield FinFunction(source, target, table)


def compose_oracle(r, s):
    """Direct exists-definition, independent of the row-OR implementation."""
    pairs = [
        (a, c)
        for a in r.source.elements
        for c in s.target.elements
        if any(r.holds(a, b) and s.holds(b, c) for b in r.target.elements)
    ]
    return Relation.of(r.source, s.target, pairs)


# --------------------------------------------------------------- carriers


def test_finset_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        FinSet(("x", "x"))


def test_subset_labels_and_membership():
    s = Subset.of(A2, ["a1"])
    assert s.labels() == ("a1",)
    assert s.contains("a1") and not s.contains("a0")
    with pytest.raises(UnknownElementError):
        s.contains("zz")


# ------------------------------------------------------------ composition


def test_compose_singleton_chain():
    r = Relation.of(finset("1"), finset("a"), [("1", "a")])
    s = Relation.of(finset("a"), finset("x"), [("a", "x")])
    assert compose(r, s).pairs() == (("1", "x"),)


def test_compose_unit_laws():
    for r in all_relations(A2, B2):
        assert compose(Relation.identity(A2), r) == r
        assert compose(r, Relation.identity(B2)) == r


def test_compose_matches_exists_definition_exhaustively():
    for r in all_relations(A2, B2):
        for s in all_relations(B2, C2):
            assert compose(r, s) == compose_oracle(r, s)


def test_compose_associative_on_two_element_carriers():
    rels_ab = list(all_relations(A2, B2))[:6]
    rels_bc = list(all_relations(B2, C2))[:6]
    rels_ca = list(all_relations(C2, A2))[:6]
    for r in rels_ab:
        for s in rels_bc:
            for t in rels_ca:
                assert compose(compose(r, s), t) == compose(r, compose(s, t))


def test_compose_carrier_mismatch():
    r = Relation.empty(A2, B2)
    with pytest.raises(CarrierMismatchError):
        compose(r, Relation.empty(A2, B2))


# -------------------------------------------------------------- transpose


def test_transpose_single_pair_and_identity():
    r = Relation.of(finset("1"), finset("a"), [("1", "a")])
    assert transpose(r).pairs() == (("a", "1"),)
    assert transpose(Relation.identity(A2)) == Relation.identity(A2)


def test_transpose_involution_and_antihomomorphism():
    for r in all_relations(A2, B2):
        assert transpose(transpose(r)) == r
    for r in all_relations(A2, B2):
        for s in all_relations(B2, C2):
            assert transpose(compose(r, s)) == compose(transpose(s), transpose(r))


# ------------------------------------------------------------- residuation


def test_residuate_left_full_and_empty():
    full = Relation.full(A2, B2)
    empty_ac = Relation.empty(A2, C2)
    assert residuate_left(full, empty_ac) == Relation.empty(B2, C2)
    assert residuate_left(Relation.empty(A2, B2), empty_ac) == Relation.full(B2, C2)


def test_residuate_left_adjointness_exhaustive():
    for r in all_relations(A2, B2):
        for s in all_relations(B2, C2):
            rs = compose(r, s)
            for t in all_relations(A2, C2):
                assert (rs <= t) == (s <= residuate_left(r, t))


def test_residuate_right_adjointness_exhaustive():
    for r in all_relations(A2, B2):
        for s in all_relations(B2, C2):
            rs = compose(r, s)
            for t in all_relations(A2, C2):
                assert (rs <= t) == (r <= residuate_right(s, t))


def test_residuate_right_identity_unit():
    for t in all_relations(A2, C2):
        assert residuate_right(Relation.identity(C2), t) == t
        assert residuate_left(Relation.identity(A2), t) == t


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_transpose_duality_on_random_3x3(data):
    x3 = finset("x0", "x1", "x2")
    y3 = finset("y0", "y1", "y2")
    z3 = finset("z0", "z1", "z2")
    r = Relation(x3, y3, tuple(data.draw(st.integers(0, 7)) for _ in range(3)))
    t = Relation(x3, z3, tuple(data.draw(st.integers(0, 7)) for _ in range(3)))
    assert transpose(residuate_left(r, t)) == residuate_right(transpose(r), transpose(t))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_residuation_adjointness_randomized_up_to_5(data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 5))
    A = FinSet(tuple(f"a{i}" for i in range(n)))
    B = FinSet(tuple(f"b{i}" for i in range(m)))
    C = FinSet(tuple(f"c{i}" for i in range(k)))
    r = Relation(A, B, tuple(data.draw(st.integers(0, (1 << m) - 1)) for _ in range(n)))
    s = Relation(B, C, tuple(data.draw(st.integers(0, (1 << k) - 1)) for _ in range(m)))
    t = Relation(A, C, tuple(data.draw(st.integers(0, (1 << k) - 1)) for _ in range(n)))
    assert (compose(r, s) <= t) == (s <= residuate_left(r, t))
    assert (compose(r, s) <= t) == (r <= residuate_right(s, t))


def test_residuation_preserves_composition_and_associativity():
    import random

    rng = random.Random(5)
    for _ in range(80):
        sizes = [rng.randint(1, 4) for _ in range(4)]
        A, B, C, D = (FinSet(tuple(f"{p}{i}" for i in range(n)))
                      for p, n in zip("abcd", sizes))
        r1 = Relation(A, B, tuple(rng.randrange(1 << sizes[1]) for _ in range(sizes[0])))
        r2 = Relation(B, C, tuple(rng.randrange(1 << sizes[2]) for _ in range(sizes[1])))
        t = Relation(A, C, tuple(rng.randrange(1 << sizes[2]) for _ in range(sizes[0])))
        assert residuate_left(compose(r1, r2), t) == residuate_left(r2, residuate_left(r1, t))
        s1 = Relation(B, C, tuple(rng.randrange(1 << sizes[2]) for _ in range(sizes[1])))
        assert residuate_right(compose(r1, s1), t) == \
            residuate_right(r1, residuate_right(s1, t))
        tt = Relation(A, B, tuple(rng.randrange(1 << sizes[1]) for _ in range(sizes[0])))
        rr = Relation(A, C, tuple(rng.randrange(1 << sizes[2]) for _ in range(sizes[0])))
        ss = Relation(D, B, tuple(rng.randrange(1 << sizes[1]) for _ in range(sizes[3])))
        assert residuate_right(ss, residuate_left(rr, tt)) == \
            residuate_left(rr, residuate_right(ss, tt))


def test_function_relation_interaction():
    import random

    rng = random.Random(6)
    for _ in range(40):
        n, m, k = (rng.randint(1, 4) for _ in range(3))
        A = FinSet(tuple(f"a{i}" for i in range(n)))
        B = FinSet(tuple(f"b{i}" for i in range(m)))
        C = FinSet(tuple(f"c{i}" for i in range(k)))
        f = FinFunction(A, B, tuple(rng.randrange(m) for _ in range(n)))
        r = Relation(B, C, tuple(rng.randrange(1 << k) for _ in range(m)))
        assert residuate_left(transpose(f.as_relation()), r) == compose(f.as_relation(), r)
        s = Relation(C, B, tuple(rng.randrange(1 << m) for _ in range(k)))
        assert residuate_right(f.as_relation(), s) == compose(s, transpose(f.as_relation()))


# ------------------------------------------------------------------ images


def test_images_identity_function():
    ex, inv, un = images(FinFunction.identity(A2))
    for bits in range(4):
        x = Subset(A2, bits)
        assert ex(x) == x and inv(x) == x and un(x) == x


def test_images_constant_function():
    src = finset("x", "y", "z")
    tgt = finset("p", "q")
    const = FinFunction(src, tgt, (0, 0, 0))
    ex, _, _ = images(const)
    assert ex(Subset.of(src, ["y"])) == Subset.of(tgt, ["p"])
    assert ex(Subset.empty(src)) == Subset.empty(tgt)


def test_image_adjoint_triple_exhaustive_up_to_3():
    for n in range(4):
        for m in range(4):
            if n > 0 and m == 0:
                continue
            src = FinSet(tuple(f"x{i}" for i in range(n)))
            tgt = FinSet(tuple(f"y{i}" for i in range(m)))
            for f in all_functions(src, tgt):
                ex, inv, un = images(f)
                for xb in range(1 << n):
                    x = Subset(src, xb)
                    for yb in range(1 << m):
                        y = Subset(tgt, yb)
                        assert (ex(x) <= y) == (x <= inv(y))
                        assert (inv(y) <= x) == (y <= un(x))


def test_images_carrier_mismatch():
    ex, _, _ = images(FinFunction.identity(A2))
    with pytest.raises(CarrierMismatchError):
        ex(Subset.empty(B2))


# -------------------------------------------------------------- derivation


def test_derive_empty_set_convention():
    r = Relation.empty(A2, B2)
    assert derive_forward(r, Subset.empty(A2)) == Subset.full(B2)
    assert derive_reverse(r, Subset.empty(B2)) == Subset.full(A2)


def test_derive_worked_context():
    inst = finset("1", "2")
    typ = finset("a", "b")
    r = Relation.of(inst, typ, [("1", "a"), ("1", "b"), ("2", "b")])
    assert derive_forward(r, Subset.of(inst, ["1", "2"])) == Subset.of(typ, ["b"])
    assert derive_forward(r, Subset.of(inst, ["1"])) == Subset.of(typ, ["a", "b"])
    assert derive_reverse(r, Subset.of(typ, ["b"])) == Subset.of(inst, ["1", "2"])


def test_derivation_galois_unit_on_random_relations():
    import random

    rng = random.Random(7)
    for _ in range(500):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        src = FinSet(tuple(f"x{i}" for i in range(n)))
        tgt = FinSet(tuple(f"y{i}" for i in range(m)))
        r = Relation(src, tgt, tuple(rng.randrange(1 << m) for _ in range(n)))
        x = Subset(src, rng.randrange(1 << n))
        fwd = derive_forward(r, x)
        assert x <= derive_reverse(r, fwd)
        assert derive_forward(r, derive_reverse(r, fwd)) == fwd
        y = Subset(tgt, rng.randrange(1 << m))
        assert derive_reverse(r, y) == derive_forward(transpose(r), y)


# ------------------------------------------------------------ factorization


def test_image_factorize_injective_is_relabelled_bijection():
    f = FinFunction(A2, finset("u", "v", "w"), (2, 0))
    epi, mono = image_factorize(f)
    assert epi.is_injective() and epi.is_surjective()
    assert mono.is_injective()
    assert epi.target.elements == ("w", "u")


def test_image_factorize_constant_has_point_image():
    f = FinFunction(finset("x", "y", "z"), finset("p", "q"), (1, 1, 1))
    epi, mono = image_factorize(f)
    assert epi.target.size == 1
    assert epi.then(mono) == f


def test_image_factorize_recomposes_exhaustively_up_to_4():
    for n in range(5):
        for m in range(1, 5):
            src = FinSet(tuple(f"x{i}" for i in range(n)))
            tgt = FinSet(tuple(f"y{i}" for i in range(m)))
            for f in all_functions(src, tgt):
                epi, mono = image_factorize(f)
                assert epi.then(mono) == f
                assert epi.is_surjective() and mono.is_injective()

