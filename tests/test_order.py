"""Preorders, posets, quotients, limits, power lattices, segments, bimodules."""

import itertools
import random

import pytest

from conceptua.errors import CarrierMismatchError, SizeLimitError, UnknownElementError
from conceptua.finrel import FinFunction, FinSet, Relation, Subset, finset, transpose
from conceptua.order import (
    MonotoneMap,
    Poset,
    Preorder,
    all_monotone_maps,
    bimodule_of_map,
    bounds,
    classify_endorelation,
    down_segment,
    equalizer,
    find_order_isomorphism,
    hasse_edges,
    is_complete_lattice,
    is_pseudo_epimorphism,
    is_pseudo_monomorphism,
    opposite,
    pointwise_le,
    poset_join,
    poset_meet,
    power_order,
    preorder_from_json,
    preorder_to_dot,
    preorder_to_json,
    product,
    quotient,
    same_order,
    terminal,
    up_segment,
)


def rng_preorder(rng, max_size=6):
    n = rng.randint(1, max_size)
    carrier = FinSet(tuple(f"e{i}" for i in range(n)))
    pairs = [
        (carrier.elements[rng.randrange(n)], carrier.elements[rng.randrange(n)])
        for _ in range(rng.randint(0, 2 * n))
    ]
    return Preorder.from_pairs(carrier, pairs)


# ----------------------------------------------------------- endorelations


def test_classify_identity_has_all_flags():
    flags = classify_endorelation(Relation.identity(finset("x", "y")))
    assert (flags.reflexive, flags.transitive, flags.symmetric, flags.antisymmetric) == \
        (True, True, True, True)


def test_classify_strict_successor_on_chain():
    c = finset("0", "1", "2")
    succ = Relation.of(c, c, [("0", "1"), ("1", "2")])
    flags = classify_endorelation(succ)
    assert flags.antisymmetric
    assert not flags.reflexive
    assert not flags.transitive
    assert not flags.symmetric


def test_classify_full_relation_on_two_elements():
    c = finset("x", "y")
    flags = classify_endorelation(Relation.full(c, c))
    assert flags.reflexive and flags.transitive and flags.symmetric
    assert not flags.antisymmetric


def test_classify_rejects_non_endorelation():
    with pytest.raises(CarrierMismatchError):
        classify_endorelation(Relation.empty(finset("x"), finset("y")))


# ---------------------------------------------------------------- quotient


def test_quotient_total_collapse():
    c = finset("a", "b")
    p = Preorder.from_pairs(c, [("a", "b"), ("b", "a")])
    q, canon = quotient(p)
    assert q.size == 1
    assert canon.func.table == (0, 0)
    assert q.carrier.elements == ("{a}",)


def test_quotient_discrete_is_itself_up_to_labels():
    p = Preorder.discrete(finset("x", "y", "z"))
    q, canon = quotient(p)
    assert q.size == 3
    assert canon.func.table == (0, 1, 2)
    assert q.leq == Relation.identity(q.carrier)


def test_quotient_idempotent_on_random_preorders():
    rng = random.Random(11)
    for _ in range(100):
        p = rng_preorder(rng, 6)
        q, canon = quotient(p)
        assert q.is_poset()
        assert canon.func.is_surjective()
        q2, _ = quotient(q)
        assert q2.size == q.size
        for i in range(p.size):
            for j in range(p.size):
                # canon both preserves and reflects the order
                assert p.le_idx(i, j) == q.le_idx(canon.func.table[i], canon.func.table[j])


# ------------------------------------------------------------ finite limits


def test_product_of_chains_is_diamond():
    two = Preorder.chain("0", "1")
    prod = product(two, two)
    # componentwise-order oracle, written out by hand
    expected = set()
    for a1, b1 in itertools.product("01", repeat=2):
        for a2, b2 in itertools.product("01", repeat=2):
            if a1 <= a2 and b1 <= b2:
                expected.add((f"({a1},{b1})", f"({a2},{b2})"))
    got = {(prod.order.carrier.elements[i], prod.order.carrier.elements[j])
           for i in range(4) for j in range(4) if prod.order.le_idx(i, j)}
    assert got == expected
    assert len(hasse_edges(prod.order)) == 4  # diamond has four covers


def test_product_with_terminal_is_isomorphic():
    p = Preorder.chain("0", "1", "2")
    prod = product(p, terminal())
    assert find_order_isomorphism(prod.order, p) is not None


def test_equalizer_of_identical_maps_is_whole_source():
    p = Preorder.chain("0", "1")
    f = MonotoneMap.identity(p)
    sub, incl = equalizer(f, f)
    assert sub.size == p.size
    assert incl.func.table == (0, 1)


def test_equalizer_universal_property_exhaustive_small():
    # equalizer of two maps out of the diamond into the 2-chain
    two = Preorder.chain("0", "1")
    prod = product(two, two)
    f = prod.proj0
    g = prod.proj1
    sub, incl = equalizer(f, g)
    assert sub.carrier.elements == ("(0,0)", "(1,1)")
    for c in [terminal(), two, Preorder.discrete(finset("d0", "d1"))]:
        for h in all_monotone_maps(c, prod.order):
            if h.then(f).func.table != h.then(g).func.table:
                continue
            mediators = [
                k for k in all_monotone_maps(c, sub)
                if k.then(incl).func.table == h.func.table
            ]
            assert len(mediators) == 1


def test_equalizer_requires_parallel_pair():
    p = Preorder.chain("0", "1")
    q = Preorder.chain("x", "y")
    with pytest.raises(CarrierMismatchError):
        equalizer(MonotoneMap.identity(p), MonotoneMap.identity(q))


def test_product_universal_property_exhaustive_small():
    two = Preorder.chain("0", "1")
    prod = product(two, two)
    for c in [terminal(), two, Preorder.discrete(finset("d0", "d1"))]:
        for f1 in all_monotone_maps(c, two):
            for f2 in all_monotone_maps(c, two):
                mediators = [
                    h for h in all_monotone_maps(c, prod.order)
                    if h.then(prod.proj0).func.table == f1.func.table
                    and h.then(prod.proj1).func.table == f2.func.table
                ]
                assert len(mediators) == 1


# ------------------------------------------------------------ power order


def test_power_order_of_empty_carrier():
    po = power_order(finset())
    assert po.size == 1
    assert is_complete_lattice(po)


def test_power_order_two_is_boolean_four():
    ab = finset("a", "b")
    po = power_order(ab)
    assert po.size == 4
    assert po.carrier.elements == ("{}", "{a}", "{b}", "{a,b}")
    for x in range(4):
        s = Subset(ab, x)
        assert s.implies(s) == Subset.full(ab)  # X => X is the full set
        assert s.complement() == s.implies(Subset.empty(ab))


def test_power_order_heyting_residuation_exhaustive():
    for n in range(4):
        carrier = FinSet(tuple(f"h{i}" for i in range(n)))
        subsets = [Subset(carrier, bits) for bits in range(1 << n)]
        for x in subsets:
            for y in subsets:
                imp = x.implies(y)
                for z in subsets:
                    assert (z.intersection(x) <= y) == (z <= imp)


def test_power_order_respects_size_bound():
    big = FinSet(tuple(f"v{i}" for i in range(25)))
    with pytest.raises(SizeLimitError):
        power_order(big)


def test_power_order_env_override(monkeypatch):
    monkeypatch.setenv("CONCEPTUA_MAX_CARRIER", "1")
    with pytest.raises(SizeLimitError):
        power_order(finset("a", "b"))
    monkeypatch.setenv("CONCEPTUA_MAX_CARRIER", "2")
    assert power_order(finset("a", "b")).size == 4


# ---------------------------------------------------------------- segments


def test_up_segment_top_of_chain():
    p = Preorder.chain("0", "1", "2")
    assert up_segment(p, "2") == Subset.of(p.carrier, ["2"])
    assert down_segment(p, "2") == Subset.full(p.carrier)


def test_segments_on_discrete_order():
    p = Preorder.discrete(finset("a", "b"))
    assert up_segment(p, "a") == Subset.of(p.carrier, ["a"])
    with pytest.raises(UnknownElementError):
        up_segment(p, "zz")


def test_down_segment_characterizes_order():
    rng = random.Random(3)
    for _ in range(60):
        p = rng_preorder(rng)
        for a in p.carrier.elements:
            for b in p.carrier.elements:
                assert p.le(a, b) == down_segment(p, a).issubset(down_segment(p, b))


# ------------------------------------------------------------------ bounds


def test_bounds_of_empty_set_is_everything():
    p = Preorder.chain("0", "1", "2")
    upper, lower = bounds(p, Subset.empty(p.carrier))
    assert upper == Subset.full(p.carrier)
    assert lower == Subset.full(p.carrier)


def test_bounds_of_singleton_is_up_segment():
    p = Preorder.chain("0", "1", "2")
    upper, _ = bounds(p, Subset.of(p.carrier, ["1"]))
    assert upper == up_segment(p, "1")


def all_posets(n):
    carrier = FinSet(tuple(f"e{i}" for i in range(n)))
    strict = [(i, j) for i in range(n) for j in range(n) if i != j]
    for picks in itertools.product((False, True), repeat=len(strict)):
        rows = [1 << i for i in range(n)]
        for (i, j), on in zip(strict, picks):
            if on:
                rows[i] |= 1 << j
        rel = Relation(carrier, carrier, tuple(rows))
        flags = classify_endorelation(rel)
        if flags.transitive and flags.antisymmetric:
            yield Poset(carrier, rel)


def test_bounds_galois_laws_exhaustive_on_posets_up_to_4():
    for n in range(5):
        for p in all_posets(n):
            for xb in range(1 << n):
                for yb in range(1 << n):
                    x, y = Subset(p.carrier, xb), Subset(p.carrier, yb)
                    upper_x, _ = bounds(p, x)
                    _, lower_y = bounds(p, y)
                    assert y.issubset(upper_x) == x.issubset(lower_y)


# --------------------------------------------------------------- bimodules


def test_bimodule_of_identity_is_order():
    p = Preorder.chain("0", "1")
    bm = bimodule_of_map(MonotoneMap.identity(p), "forward")
    assert bm.rel == p.leq


def test_forward_bimodule_fiber_formula():
    rng = random.Random(4)
    for _ in range(40):
        p = rng_preorder(rng, 5)
        q = rng_preorder(rng, 5)
        maps = list(itertools.islice(all_monotone_maps(p, q), 10))
        for f in maps:
            bm = bimodule_of_map(f, "forward")
            for i in range(p.size):
                assert bm.rel.rows[i] == up_segment(q, q.carrier.elements[f.func.table[i]]).bits
            rev = bimodule_of_map(f, "reverse")
            for b in range(q.size):
                for a in range(p.size):
                    assert rev.rel.holds_idx(b, a) == q.le_idx(b, f.func.table[a])


def test_reverse_bimodule_is_transpose_for_discrete_orders():
    # over discrete orders the two bimodules of a map are each other's transpose
    p = Preorder.discrete(finset("a", "b", "c"))
    q = Preorder.discrete(finset("x", "y"))
    f = MonotoneMap(p, q, FinFunction(p.carrier, q.carrier, (0, 1, 0)))
    fwd = bimodule_of_map(f, "forward")
    rev = bimodule_of_map(f, "reverse")
    assert rev.rel == transpose(fwd.rel)


def test_bimodule_embeddings_recover_maps_between_lattices():
    from conceptua.order import bimodule_01_embedding, bimodule_10_embedding

    rng = random.Random(17)
    lattice = power_order(finset("a", "b"))
    for _ in range(30):
        base = rng.randrange(4)
        # join/meet against a fixed base are always monotone lattice maps
        op = rng.choice([lambda i: i | base, lambda i: i & base, lambda i: base])
        f = MonotoneMap(lattice, lattice, FinFunction(
            lattice.carrier, lattice.carrier, tuple(op(i) for i in range(4))))
        fwd = bimodule_of_map(f, "forward")
        assert bimodule_01_embedding(fwd).func.table == f.func.table
        rev = bimodule_of_map(f, "reverse")
        assert bimodule_10_embedding(rev).func.table == f.func.table


def test_bimodule_embedding_requires_lattice_structure():
    from conceptua.order import bimodule_01_embedding

    anti = Preorder.discrete(finset("x", "y"))
    full = Relation.full(anti.carrier, anti.carrier)
    from conceptua.order import OrderBimodule

    bm = OrderBimodule(anti, anti, full)
    with pytest.raises(ValueError):
        bimodule_01_embedding(bm)  # two-element rows have no meet in an antichain


def test_bimodule_closure_invariants_enforced():
    p = Preorder.chain("0", "1")
    bad = Relation.of(p.carrier, p.carrier, [("1", "0")])
    from conceptua.order import OrderBimodule

    with pytest.raises(ValueError):
        OrderBimodule(p, p, bad)


# ------------------------------------------------- isomorphism and export


def test_find_order_isomorphism_positive_and_negative():
    chain = Preorder.chain("a", "b", "c")
    renamed = Preorder.chain("x", "y", "z")
    iso = find_order_isomorphism(chain, renamed)
    assert iso is not None and iso.table == (0, 1, 2)
    antichain = Preorder.discrete(finset("x", "y", "z"))
    assert find_order_isomorphism(chain, antichain) is None


def test_preorder_json_roundtrip_and_dot():
    p = Preorder.chain("lo", "hi")
    q = preorder_from_json(preorder_to_json(p))
    assert same_order(p, q)
    dot = preorder_to_dot(p)
    assert '"lo" -> "hi";' in dot
    assert dot.count("->") == 1  # reflexive-transitive reduction only


def test_hasse_edges_of_diamond():
    two = Preorder.chain("0", "1")
    prod = product(two, two)
    edges = {(prod.order.carrier.elements[i], prod.order.carrier.elements[j])
             for i, j in hasse_edges(prod.order)}
    assert edges == {
        ("(0,0)", "(0,1)"),
        ("(0,0)", "(1,0)"),
        ("(0,1)", "(1,1)"),
        ("(1,0)", "(1,1)"),
    }


# ------------------------------------------------------- lattice predicates


def test_join_meet_search_on_power_lattice():
    p = power_order(finset("a", "b"))
    full = Subset.full(p.carrier)
    assert poset_join(p, full) == 3
    assert poset_meet(p, full) == 0
    assert poset_join(p, Subset.empty(p.carrier)) == 0  # bottom
    assert poset_meet(p, Subset.empty(p.carrier)) == 3  # top
    assert is_complete_lattice(p)
    assert not is_complete_lattice(Preorder.discrete(finset("x", "y")))


def test_pointwise_comparison_predicate():
    two = Preorder.chain("0", "1")
    bot = MonotoneMap(two, two, FinFunction(two.carrier, two.carrier, (0, 0)))
    ident = MonotoneMap.identity(two)
    assert pointwise_le(bot, ident)
    assert not pointwise_le(ident, bot)


def test_pseudo_epi_mono_predicates_small():
    two = Preorder.chain("0", "1")
    ident = MonotoneMap.identity(two)
    assert is_pseudo_epimorphism(ident, probe_size=2)
    assert is_pseudo_monomorphism(ident, probe_size=2)
    # collapsing both elements of a 2-antichain to one point loses maps
    anti = Preorder.discrete(finset("x", "y"))
    point = terminal()
    collapse = MonotoneMap(anti, point, FinFunction(anti.carrier, point.carrier, (0, 0)))
    assert not is_pseudo_monomorphism(collapse, probe_size=2)


def test_opposite_swaps_segments():
    p = Preorder.chain("0", "1", "2")
    op = opposite(p)
    assert up_segment(op, "2") == down_segment(p, "2")
