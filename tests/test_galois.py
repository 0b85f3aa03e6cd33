"""Adjunctions, closure/interior, polar factorization, diagonalization, and the
factorization laws of ``verify``'s galois suite, on healthy and on injected faults."""

import random

import pytest

from conceptua.errors import AdjunctionError
from conceptua.finrel import FinFunction, FinSet, finset
from conceptua import verify
from conceptua.galois import (
    _polar_maps,
    check_adjunction,
    closure_interior,
    compose_adjunctions,
    diagonalize,
    downset_coreflection,
    enumerate_adjunctions,
    identity_adjunction,
    involution,
    is_coreflection,
    is_reflection,
    polar_factorize,
    recompose,
    same_adjunction,
    upset_reflection,
)
from conceptua.order import (
    MonotoneMap,
    Preorder,
    power_order,
    quotient,
)
from conceptua.clsn import Classification, derivation, order_as_classification
from conceptua.verify import (
    LawReport,
    _closed_under_composition,
    _diagonal_count,
    _equivalence_laws,
    _lattice_transfer_failures,
    _squares_from_infomorphisms,
    corrupted_factorization_witness,
    galois_suite,
    random_classification,
)

from oracles import find_order_isomorphism

WORKED = Classification.of(["1", "2"], ["a", "b"], [("1", "a"), ("1", "b"), ("2", "b")])


def rng_adjunction(rng, max_side=4):
    return derivation(random_classification(rng, max_side))


# --------------------------------------------------------- check_adjunction


def test_identity_adjunction_is_valid():
    p = Preorder.chain("0", "1", "2")
    g = identity_adjunction(p)
    assert check_adjunction(g.left, g.right) is not None


def test_bounds_adjunction_is_valid():
    rng = random.Random(0)
    for _ in range(20):
        q, _ = quotient(Preorder.from_pairs(
            FinSet(tuple(f"e{i}" for i in range(rng.randint(1, 5)))), []))
        adj = derivation(order_as_classification(q))
        assert check_adjunction(adj.left, adj.right) is not None


def test_constant_to_bottom_pair_is_invalid_with_witness():
    two = Preorder.chain("0", "1")
    const = MonotoneMap(two, two, FinFunction(two.carrier, two.carrier, (0, 0)))
    with pytest.raises(AdjunctionError) as err:
        check_adjunction(const, const)
    assert "fails" in str(err.value)


# -------------------------------------------------------------- composition


def test_compose_with_identity():
    rng = random.Random(1)
    g = rng_adjunction(rng)
    left_id = identity_adjunction(g.source)
    right_id = identity_adjunction(g.target)
    assert same_adjunction(compose_adjunctions(left_id, g), g)
    assert same_adjunction(compose_adjunctions(g, right_id), g)


def test_compose_associative_on_random_triples():
    rng = random.Random(2)
    for _ in range(20):
        a = random_classification(rng, 3)
        pf = polar_factorize(derivation(a))
        f, g = pf.extent_reflection, pf.intent_coreflection
        h = upset_reflection(g.target, rng.randrange(g.target.size))
        lhs = compose_adjunctions(compose_adjunctions(f, g), h)
        rhs = compose_adjunctions(f, compose_adjunctions(g, h))
        assert same_adjunction(lhs, rhs)


def test_involution_reverses_composition():
    rng = random.Random(3)
    for _ in range(10):
        a = random_classification(rng, 3)
        pf = polar_factorize(derivation(a))
        f, g = pf.extent_reflection, pf.intent_coreflection
        lhs = involution(compose_adjunctions(f, g))
        rhs = compose_adjunctions(involution(g), involution(f))
        assert same_adjunction(lhs, rhs)


# --------------------------------------------------------- closure/interior


def test_closure_interior_of_identity():
    p = power_order(finset("a", "b"))
    ci = closure_interior(identity_adjunction(p))
    assert ci.closure.func.table == tuple(range(p.size))
    assert ci.closed_inclusion.func.table == tuple(range(p.size))
    assert ci.open_inclusion.func.table == tuple(range(p.size))


def test_closed_sets_of_two_antichain_plus_top():
    # bounds adjunction of {a, b} < top: the closed subsets are the cut extents
    p = Preorder.from_pairs(finset("a", "b", "top"), [("a", "top"), ("b", "top")])
    adj = derivation(order_as_classification(p))
    ci = closure_interior(adj)
    closed_bits = set(ci.closed_inclusion.func.table)  # power indices are subset bitmasks
    assert closed_bits == {0b000, 0b001, 0b010, 0b111}


def test_closure_idempotent_on_many_context_adjunctions():
    rng = random.Random(4)
    for _ in range(500):
        g = rng_adjunction(rng, 4)
        ci = closure_interior(g)
        assert ci.closure.then(ci.closure).func.table == ci.closure.func.table
        assert ci.interior.then(ci.interior).func.table == ci.interior.func.table


# --------------------------------------------------- reflection predicates


def test_identity_is_reflection_and_coreflection():
    p = Preorder.chain("0", "1")
    g = identity_adjunction(p)
    assert is_reflection(g)
    assert is_coreflection(g)


def test_extent_part_is_reflection():
    rng = random.Random(5)
    for _ in range(30):
        pf = polar_factorize(rng_adjunction(rng, 4))
        assert is_reflection(pf.extent_reflection)
        assert is_coreflection(pf.intent_coreflection)


def test_bounds_adjunction_generally_neither():
    p = Preorder.chain("0", "1")
    adj = derivation(order_as_classification(p))
    assert not is_reflection(adj)
    assert not is_coreflection(adj)


# ------------------------------------------------------- polar factorization


def test_polar_factorize_identity_gives_same_poset():
    p = power_order(finset("u", "v"))
    pf = polar_factorize(identity_adjunction(p))
    assert pf.axis.size == p.size
    assert find_order_isomorphism(pf.axis, p) is not None


def test_polar_factorize_worked_context_has_two_bipoles():
    pf = polar_factorize(derivation(WORKED))
    assert len(pf.bipoles) == 2
    assert same_adjunction(recompose(pf), derivation(WORKED))


def test_polar_roundtrip_on_500_random_cases():
    rng = random.Random(6)
    for _ in range(500):
        g = rng_adjunction(rng, 4)
        pf = polar_factorize(g)
        assert same_adjunction(recompose(pf), g)


def test_polar_of_bounds_adjunction_of_complete_lattice_recovers_it():
    lattice = power_order(finset("a", "b"))
    adj = derivation(order_as_classification(lattice))
    pf = polar_factorize(adj)
    assert find_order_isomorphism(pf.axis, lattice) is not None


# ------------------------------------------------------------ diagonalize


def test_diagonalize_square_of_single_factorization_is_identity():
    rng = random.Random(7)
    pf = polar_factorize(rng_adjunction(rng, 3))
    d = diagonalize(pf.extent_reflection, pf.intent_coreflection,
                    pf.extent_reflection, pf.intent_coreflection)
    assert d.left.func.table == tuple(range(pf.axis.size))
    assert d.right.func.table == tuple(range(pf.axis.size))


def test_diagonalize_rejects_bad_squares():
    rng = random.Random(8)
    pf = polar_factorize(rng_adjunction(rng, 3))
    with pytest.raises(AdjunctionError):
        diagonalize(pf.intent_coreflection, pf.extent_reflection,
                    pf.intent_coreflection, pf.extent_reflection)


def test_diagonal_uniqueness_by_exhaustive_search():
    rng = random.Random(9)
    squares = 0
    while squares < 8:
        g = rng_adjunction(rng, 2)
        pf = polar_factorize(g)
        if pf.axis.size > 4:
            continue
        pf2 = polar_factorize(recompose(pf))
        count = sum(
            1 for d in enumerate_adjunctions(pf.axis, pf2.axis)
            if same_adjunction(compose_adjunctions(pf.extent_reflection, d),
                               pf2.extent_reflection)
            and same_adjunction(compose_adjunctions(d, pf2.intent_coreflection),
                                pf.intent_coreflection)
        )
        assert count == 1
        squares += 1


def test_diagonalize_on_infomorphism_squares():
    rng = random.Random(10)
    for g1, g2, a_adj, b_adj in _squares_from_infomorphisms(rng, 6):
        pf1, pf2 = polar_factorize(g1), polar_factorize(g2)
        d = diagonalize(pf1.extent_reflection,
                        compose_adjunctions(pf1.intent_coreflection, b_adj),
                        compose_adjunctions(a_adj, pf2.extent_reflection),
                        pf2.intent_coreflection)
        assert same_adjunction(
            compose_adjunctions(pf1.extent_reflection, d),
            compose_adjunctions(a_adj, pf2.extent_reflection))


# ------------------------------------------------ factorization equivalence


def test_factorization_functorial_on_composable_squares():
    # composable commuting squares: the diagonal of the composite square is
    # the composite of the diagonals
    from conceptua.clsn import compose_infomorphisms, enumerate_infomorphisms
    from conceptua.clg import derivation_square
    from conceptua.verify import random_classification as rc

    rng = random.Random(20)

    def diag(square):
        g1, g2, a_adj, b_adj = square
        pf1, pf2 = polar_factorize(g1), polar_factorize(g2)
        return diagonalize(pf1.extent_reflection,
                           compose_adjunctions(pf1.intent_coreflection, b_adj),
                           compose_adjunctions(a_adj, pf2.extent_reflection),
                           pf2.intent_coreflection)

    done = 0
    while done < 10:
        a = rc(rng, 2)
        b = rc(rng, 2)
        c = rc(rng, 2)
        fs = enumerate_infomorphisms(a, b)
        gs = enumerate_infomorphisms(b, c)
        if not fs or not gs:
            continue
        f, g = rng.choice(fs), rng.choice(gs)
        d_f = diag(derivation_square(f))   # axis(B) <=> axis(A)
        d_g = diag(derivation_square(g))   # axis(C) <=> axis(B)
        d_fg = diag(derivation_square(compose_infomorphisms(f, g)))
        assert same_adjunction(d_fg, compose_adjunctions(d_g, d_f))
        done += 1


def test_factorization_equivalence_identity_and_random_cases():
    rng = random.Random(11)
    cases = [identity_adjunction(power_order(finset("a")))]
    cases += [rng_adjunction(rng, 3) for _ in range(40)]
    squares = _squares_from_infomorphisms(rng, 4)
    report = LawReport("galois")
    _equivalence_laws(report, cases, squares)
    assert report.ok, report.failures
    assert report.cases == len(cases) + len(squares) == 45


def test_a_case_without_poset_boundaries_is_reported_and_counted():
    cycle = Preorder.from_pairs(finset("a", "b"), [("a", "b"), ("b", "a")])
    report = LawReport("galois")
    _equivalence_laws(report, [identity_adjunction(cycle)], ())
    assert report.failures == ["case 0: closure/interior require poset boundaries"]
    assert report.cases == 1


def test_a_square_that_does_not_commute_is_reported_and_counted():
    g = derivation(WORKED)
    # a o g = g o b fails: a is the identity, b an endo-adjunction that moves g
    b = next(b for b in enumerate_adjunctions(g.target, g.target)
             if not same_adjunction(compose_adjunctions(g, b), g))
    report = LawReport("galois")
    _equivalence_laws(report, (), [(g, g, identity_adjunction(g.source), b)])
    assert report.failures == ["square 0: square does not commute"]
    assert report.cases == 1


def test_a_case_that_does_not_recompose_is_reported_and_not_counted(monkeypatch):
    chain = power_order(finset("a"))
    ident = identity_adjunction(chain)
    other = next(h for h in enumerate_adjunctions(chain, chain) if not same_adjunction(h, ident))
    monkeypatch.setattr(verify, "recompose", lambda pf: other)
    report = LawReport("galois")
    _equivalence_laws(report, [ident, ident], ())
    assert report.failures == ["case 0: factor-then-compose is not the identity",
                               "case 1: factor-then-compose is not the identity"]
    assert report.cases == 0


# Checks of the pseudo-epi/mono probes (two per small adjunction), the
# involution law (three) and the bimodule embeddings (eight), on top of the
# parametrized count of the suite's other laws.
PROBE_AND_DUALITY_CHECKS = {5: 27, 6: 27, 7: 27, 8: 27, 9: 25}


@pytest.mark.parametrize("seed, checks", [(5, 948), (6, 944), (7, 916), (8, 912), (9, 929)])
def test_galois_suite_check_counts_are_pinned(seed, checks):
    report = galois_suite(seed, 100)
    assert report.ok, report.failures
    assert report.cases == checks + PROBE_AND_DUALITY_CHECKS[seed]


def test_diagonal_count_is_one_between_factorizations_and_none_above_the_cap():
    rng = random.Random(12)
    counted = 0
    for g in [rng_adjunction(rng, 3) for _ in range(20)]:
        pf = polar_factorize(g)
        pf2 = polar_factorize(recompose(pf))
        count = _diagonal_count(pf.extent_reflection, pf.intent_coreflection,
                                pf2.extent_reflection, pf2.intent_coreflection)
        assert count == (1 if pf.axis.size <= 4 else None)
        counted += count is not None
    assert counted > 5
    big = polar_factorize(identity_adjunction(power_order(finset("a", "b", "c"))))
    assert _diagonal_count(big.extent_reflection, big.intent_coreflection,
                           big.extent_reflection, big.intent_coreflection) is None


def test_corrupted_factorization_fails_recomposition():
    witness = corrupted_factorization_witness()
    assert witness is not None and "differs" in witness


# -------------------------------------------------- factorization system


def test_polar_factorization_system_laws():
    rng = random.Random(12)
    ident = identity_adjunction(power_order(finset("a", "b")))
    assert is_reflection(ident) and is_coreflection(ident)
    g = rng_adjunction(rng, 3)
    pf = polar_factorize(g)
    assert is_reflection(pf.extent_reflection) and is_coreflection(pf.intent_coreflection)
    assert same_adjunction(recompose(pf), g)
    mid = pf.axis.size // 2
    assert _closed_under_composition(
        [(pf.extent_reflection, upset_reflection(pf.axis, mid))]) == []
    assert _closed_under_composition(
        [(downset_coreflection(pf.axis, mid), pf.intent_coreflection)]) == []


def test_upset_reflection_and_downset_coreflection():
    p = power_order(finset("a", "b"))
    refl = upset_reflection(p, 1)  # up-set of {a}
    assert is_reflection(refl)
    corefl = downset_coreflection(p, 1)
    assert is_coreflection(corefl)


def test_polar_maps_return_the_fixed_point_maps_only_when_handed_them():
    """``_polar_maps`` needs an adjunction whose closure it reads: given the
    closed inclusion's sub-poset as axis it returns that inclusion, and given
    the up-set reflection (x -> x v m) or the down-set coreflection (x -> x ^ m)
    it returns that adjunction itself.  No other adjunction has that closure
    to offer, and ``polar_factorize`` keeps the order but relabels the axis by
    bipoles, while the fixed-point sub-posets keep their boundary's labels."""
    rng = random.Random(21)
    for _ in range(30):
        g = rng_adjunction(rng)
        incl = closure_interior(g).closed_inclusion
        assert _polar_maps(g, incl.source, incl.func.table)[0].right == incl
        axis = polar_factorize(g).axis
        for m in range(axis.size):
            up, down = upset_reflection(axis, m), downset_coreflection(axis, m)
            assert _polar_maps(up, up.target, up.right.func.table)[0] == up
            assert _polar_maps(down, down.source, range(down.source.size))[1] == down
            relabelled = polar_factorize(up).axis
            assert relabelled.leq.rows == up.target.leq.rows
            assert relabelled.carrier != up.target.carrier


# ----------------------------------------------------- lattice transfer


def test_reflection_lattice_transfer_on_contexts_up_to_5x5():
    rng = random.Random(13)
    for _ in range(8):
        a = random_classification(rng, 4)
        pf = polar_factorize(derivation(a))
        assert _lattice_transfer_failures(pf.extent_reflection) == []
    # a full 5x5 case: all 1024 subsets of its 10-element axis
    a5 = random_classification(random.Random(99), 5)
    pf5 = polar_factorize(derivation(a5))
    assert pf5.axis.size == 10
    assert _lattice_transfer_failures(pf5.extent_reflection) == []


def test_lattice_transfer_rejects_a_non_reflection():
    g = derivation(WORKED)
    assert not is_reflection(g)
    assert _lattice_transfer_failures(g) == ["not a reflection"]


# ----------------------------------------------------------- triple laws


def test_left_right_left_identities():
    rng = random.Random(14)
    for _ in range(50):
        g = rng_adjunction(rng, 4)
        assert g.left.then(g.right).then(g.left).func.table == g.left.func.table
        assert g.right.then(g.left).then(g.right).func.table == g.right.func.table
