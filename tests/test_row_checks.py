"""The row-bitset order checks against the per-pair code they replace.

Monotonicity, isotony, pointwise order, the monotone-map enumeration, the
adjunction check and enumeration, joins and meets, the complete-lattice
test, ``classification_of`` and the order check of ``lattice_roundtrip_iso``
each run here beside the earlier per-pair loop, copied in as the oracle, on
every preorder of up to 4 elements and on seeded random preorders of up to
7 elements, many of them not antisymmetric.  Verdicts, results and error
texts must be identical.  The closure of ``Preorder.from_pairs`` runs beside
the earlier pass-until-stable loop on seeded pair lists of up to 8 elements.
"""

import itertools
import random

import pytest

from conceptua.clg import ConceptLattice, classification_of, concept_lattice, \
    lattice_roundtrip_iso, validate_concept_lattice
from conceptua.clsn import Classification
from conceptua.errors import AdjunctionError
from conceptua.finrel import FinFunction, FinSet, Relation, Subset, derive_forward, \
    derive_reverse
from conceptua.galois import check_adjunction, enumerate_adjunctions
from conceptua.institution import Signature, theory_fiber
from conceptua.order import MonotoneMap, Preorder, _all_preorders, _pulled_back_up_sets, \
    all_monotone_maps, is_complete_lattice, poset_join, poset_meet, quotient

ALL_UP_TO_4 = list(_all_preorders(4))


def carrier(prefix, n):
    return FinSet(tuple(f"{prefix}{i}" for i in range(n)))


def random_preorder(rng, max_size):
    n = rng.randint(1, max_size)
    c = carrier("e", n)
    pairs = [(c.elements[rng.randrange(n)], c.elements[rng.randrange(n)])
             for _ in range(rng.randint(0, 2 * n))]
    return Preorder.from_pairs(c, pairs)


def random_preorders(count, max_size, seed):
    rng = random.Random(seed)
    return [random_preorder(rng, max_size) for _ in range(count)]


def random_table(rng, p, q):
    return tuple(rng.randrange(q.size) for _ in range(p.size))


# ----------------------------------------------------------- per-pair oracles


def pairwise_monotone_error(source, target, table):
    """The earlier ``MonotoneMap.__post_init__`` loop: its error text, or None."""
    for i in range(source.size):
        row = source.leq.rows[i]
        fi = table[i]
        for j in range(source.size):
            if row >> j & 1 and not target.le_idx(fi, table[j]):
                return (f"not monotone: {source.carrier.elements[i]} <= "
                        f"{source.carrier.elements[j]} but images are not ordered")
    return None


def pairwise_is_isotone(source, target, table):
    for i in range(source.size):
        for j in range(source.size):
            if source.le_idx(i, j) != target.le_idx(table[i], table[j]):
                return False
    return True


def pairwise_monotone_tables(p, q):
    out = []
    for table in itertools.product(range(q.size), repeat=p.size):
        ok = True
        for i in range(p.size):
            for j in range(p.size):
                if p.le_idx(i, j) and not q.le_idx(table[i], table[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(table)
    return out


def pairwise_adjunction_error(left, right):
    """The earlier ``check_adjunction`` loops: the error text, or None."""
    src, tgt = left.source, left.target
    for a in range(src.size):
        for b in range(tgt.size):
            lhs = tgt.le_idx(left.func.table[a], b)
            rhs = src.le_idx(a, right.func.table[b])
            if lhs != rhs:
                return ("fundamental condition fails at "
                        f"({src.carrier.elements[a]}, {tgt.carrier.elements[b]}): "
                        f"left(a) <= b is {lhs} but a <= right(b) is {rhs}")
    for a in range(src.size):
        if not src.le_idx(a, right.func.table[left.func.table[a]]):
            return f"unit fails at {src.carrier.elements[a]}"
    for b in range(tgt.size):
        if not tgt.le_idx(left.func.table[right.func.table[b]], b):
            return f"counit fails at {tgt.carrier.elements[b]}"
    return None


def pairwise_adjunction_tables(p, q):
    rights = pairwise_monotone_tables(q, p)
    out = []
    for left in pairwise_monotone_tables(p, q):
        for right in rights:
            if all(q.le_idx(left[a], b) == p.le_idx(a, right[b])
                   for a in range(p.size) for b in range(q.size)):
                out.append((left, right))
    return out


def pairwise_join(p, x):
    upper = derive_forward(p.leq, x)
    for i in upper.indices():
        if all(p.le_idx(i, j) for j in upper.indices()):
            return i
    return None


def pairwise_meet(p, x):
    lower = derive_reverse(p.leq, x)
    for i in lower.indices():
        if all(p.le_idx(j, i) for j in lower.indices()):
            return i
    return None


def pairwise_is_complete_lattice(p):
    if p.size == 0 or not p.is_poset():
        return False
    if pairwise_join(p, Subset.empty(p.carrier)) is None:
        return False
    if pairwise_meet(p, Subset.empty(p.carrier)) is None:
        return False
    for i in range(p.size):
        for j in range(i + 1, p.size):
            pair = Subset(p.carrier, (1 << i) | (1 << j))
            if pairwise_join(p, pair) is None or pairwise_meet(p, pair) is None:
                return False
    return True


def fixpoint_closure_rows(carrier, pairs):
    """The reflexive-transitive closure by passes until nothing changes."""
    rows = [1 << i for i in range(carrier.size)]
    for a, b in pairs:
        rows[carrier.index(a)] |= 1 << carrier.index(b)
    changed = True
    while changed:
        changed = False
        for i in range(carrier.size):
            acc = rows[i]
            for j in range(carrier.size):
                if acc >> j & 1:
                    acc |= rows[j]
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    return tuple(rows)


def pairwise_classification_rows(lat):
    rows = []
    for i in range(lat.instances.size):
        mask = 0
        for t in range(lat.types.size):
            if lat.lattice.le_idx(lat.iota_embed.table[i], lat.tau_embed.table[t]):
                mask |= 1 << t
        rows.append(mask)
    return tuple(rows)


# ------------------------------------------------------------------- helpers


def assert_map_matches_oracle(p, q, table):
    expected = pairwise_monotone_error(p, q, table)
    func = FinFunction(p.carrier, q.carrier, table)
    if expected is None:
        m = MonotoneMap(p, q, func)
        assert m.is_isotone() == pairwise_is_isotone(p, q, table)
    else:
        with pytest.raises(ValueError) as err:
            MonotoneMap(p, q, func)
        assert str(err.value) == expected
    return expected is None


def assert_adjunction_matches_oracle(left, right):
    expected = pairwise_adjunction_error(left, right)
    if expected is None:
        adj = check_adjunction(left, right)
        assert adj.left is left and adj.right is right
    else:
        with pytest.raises(AdjunctionError) as err:
            check_adjunction(left, right)
        assert str(err.value) == expected
    return expected is None


def order_pairs(orders, seed):
    """Each order with itself and with a seeded partner from the same list."""
    rng = random.Random(seed)
    for p in orders:
        yield p, p
        yield p, rng.choice(orders)


# ------------------------------------------------------------------ preorders


def test_from_pairs_matches_the_fixpoint_closure():
    rng = random.Random(1202)
    for _ in range(400):
        n = rng.randint(0, 8)
        c = carrier("e", n)
        pairs = [(c.elements[rng.randrange(n)], c.elements[rng.randrange(n)])
                 for _ in range(rng.randint(0, 3 * n))]
        assert Preorder.from_pairs(c, pairs).leq.rows == fixpoint_closure_rows(c, pairs)


# --------------------------------------------------------------- monotone maps


def test_monotone_check_matches_pairwise_on_all_preorders_up_to_4():
    rng = random.Random(501)
    verdicts = set()
    for p, q in order_pairs(ALL_UP_TO_4, 502):
        if q.size == 0:
            continue
        tables = {tuple(range(p.size))} if p is q else set()
        tables.update(random_table(rng, p, q) for _ in range(8))
        for table in sorted(tables):
            verdicts.add(assert_map_matches_oracle(p, q, table))
    assert verdicts == {True, False}


def test_monotone_check_matches_pairwise_on_random_preorders_up_to_7():
    rng = random.Random(503)
    orders = random_preorders(150, 7, seed=504)
    assert sum(not p.is_poset() for p in orders) > 20
    verdicts = set()
    for p, q in order_pairs(orders, 505):
        for _ in range(6):
            verdicts.add(assert_map_matches_oracle(p, q, random_table(rng, p, q)))
    assert verdicts == {True, False}


def test_all_monotone_maps_matches_pairwise_enumeration():
    orders = ALL_UP_TO_4 + random_preorders(40, 5, seed=506)
    rng = random.Random(507)
    for p in orders:
        for q in (p, rng.choice(ALL_UP_TO_4)):
            maps = list(all_monotone_maps(p, q))
            assert [m.func.table for m in maps] == pairwise_monotone_tables(p, q)
            assert all(m.source is p and m.target is q for m in maps)


# ----------------------------------------------------------------- adjunctions


def test_check_adjunction_matches_pairwise_on_monotone_pairs():
    rng = random.Random(511)
    orders = [p for p in ALL_UP_TO_4 if 0 < p.size <= 3] + random_preorders(60, 4, seed=512)
    verdicts = []
    for p, q in order_pairs(orders, 513):
        lefts = list(all_monotone_maps(p, q))
        rights = list(all_monotone_maps(q, p))
        for _ in range(10):
            left, right = rng.choice(lefts), rng.choice(rights)
            verdicts.append(assert_adjunction_matches_oracle(left, right))
        for adj in itertools.islice(enumerate_adjunctions(p, q), 3):
            verdicts.append(assert_adjunction_matches_oracle(adj.left, adj.right))
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_enumerate_adjunctions_matches_pairwise_filter():
    orders = [p for p in ALL_UP_TO_4 if p.size <= 3] + random_preorders(30, 4, seed=514)
    found = 0
    for p, q in order_pairs(orders, 515):
        got = [(adj.left.func.table, adj.right.func.table) for adj in enumerate_adjunctions(p, q)]
        assert got == pairwise_adjunction_tables(p, q)
        found += len(got)
    assert found > 100


# -------------------------------------------------------------- joins and meets


def test_joins_and_meets_match_pairwise_on_all_preorders_up_to_4():
    for p in ALL_UP_TO_4:
        for bits in range(1 << p.size):
            x = Subset(p.carrier, bits)
            assert poset_join(p, x) == pairwise_join(p, x)
            assert poset_meet(p, x) == pairwise_meet(p, x)


def test_joins_and_meets_return_the_lowest_index_on_random_preorders_up_to_7():
    rng = random.Random(516)
    ties = 0
    for p in random_preorders(120, 7, seed=517):
        for _ in range(20):
            x = Subset(p.carrier, rng.randrange(1 << p.size))
            join, meet = poset_join(p, x), poset_meet(p, x)
            assert join == pairwise_join(p, x)
            assert meet == pairwise_meet(p, x)
            # with several equivalent joins, the lowest index is returned
            upper = derive_forward(p.leq, x).bits
            joins = [j for j in range(p.size)
                     if upper >> j & 1 and upper & ~p.leq.rows[j] == 0]
            assert join == (joins[0] if joins else None)
            ties += len(joins) > 1
    assert ties > 10


# ------------------------------------------------------------ complete lattices


def contexts(count, max_side, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        inst, typ = carrier("g", rng.randint(0, max_side)), carrier("m", rng.randint(0, max_side))
        rows = tuple(rng.getrandbits(typ.size) if typ.size else 0 for _ in range(inst.size))
        out.append(Classification(inst, typ, Relation(inst, typ, rows)))
    return out


def test_is_complete_lattice_matches_pairwise():
    orders = ALL_UP_TO_4 + random_preorders(150, 7, seed=518)
    orders += [quotient(p)[0] for p in random_preorders(100, 7, seed=519)]
    orders += [concept_lattice(a).lattice for a in contexts(30, 5, seed=520)]
    orders += [theory_fiber(Signature.of(*"pq"[:n])) for n in range(3)]
    verdicts = [is_complete_lattice(p) for p in orders]
    assert verdicts == [pairwise_is_complete_lattice(p) for p in orders]
    assert 50 < sum(verdicts) < len(orders) - 50


# ------------------------------------------------------------ concept lattices


def test_classification_of_matches_pairwise_on_arbitrary_embeddings():
    rng = random.Random(521)
    for a in contexts(40, 6, seed=522):
        lat = concept_lattice(a)
        assert classification_of(lat).incidence.rows == pairwise_classification_rows(lat) \
            == a.incidence.rows
        labels = lat.lattice.carrier
        scrambled = ConceptLattice(
            lat.instances, lat.types, lat.lattice, lat.extents, lat.intents,
            FinFunction(a.instances, labels, random_table(rng, a.instances, labels)),
            FinFunction(a.types, labels, random_table(rng, a.types, labels)))
        assert classification_of(scrambled).incidence.rows == \
            pairwise_classification_rows(scrambled)


def test_roundtrip_order_check_matches_pairwise():
    """The round trip compares each rebuilt row with the pulled-back up-set of its image."""
    for a in contexts(40, 5, seed=523):
        lat = concept_lattice(a)
        assert lattice_roundtrip_iso(lat).table == tuple(range(lat.size))
    rng = random.Random(524)
    verdicts = set()
    for a in contexts(60, 5, seed=525):
        p = concept_lattice(a).lattice
        for table in [tuple(range(p.size))] + [random_table(rng, p, p) for _ in range(5)]:
            func = FinFunction(p.carrier, p.carrier, table)
            isotone = list(p.leq.rows) == _pulled_back_up_sets(func, p.leq.rows)
            assert isotone == pairwise_is_isotone(p, p, table)
            verdicts.add(isotone)
    assert verdicts == {True, False}


# ------------------------------------------------------------------ time budget


def contranominal(n):
    objs, atts = carrier("g", n), carrier("m", n)
    full = (1 << n) - 1
    return Classification(objs, atts, Relation(objs, atts, tuple(full & ~(1 << i)
                                                                 for i in range(n))))


def test_validate_contranominal_10_within_budget(time_budget):
    lat = concept_lattice(contranominal(10))
    assert lat.size == 1024
    with time_budget(10):
        assert validate_concept_lattice(lat) == []
