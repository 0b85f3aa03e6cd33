"""Column reads against the loops they replace.

``Relation.columns`` is the one place that builds the columns of a relation;
transpose, reverse derivation, left residuation, down-segments, the reverse
bimodule, quotient rows, power-order rows and the variables' truth tables
all read it or share its recurrences.  Each runs here beside the earlier
loop, copied in as the oracle: the row scan of ``derive_reverse`` and the
transpose loop.  Inputs are every relation of up to 3 x 3, every preorder of
up to 3 elements, and 200 seeded relations and preorders of up to 8 x 8.
"""

import itertools
import random

import pytest

from conceptua.finrel import FinFunction, FinSet, Relation, Subset, _bits, derive_reverse, \
    residuate_left, transpose
from conceptua.institution import Signature, Var, truth_table
from conceptua.order import MonotoneMap, Preorder, _all_preorders, bimodule_of_map, \
    down_segment, power_order, quotient


def carrier(prefix, n):
    return FinSet(tuple(f"{prefix}{i}" for i in range(n)))


def all_relations(max_side):
    for n, m in itertools.product(range(max_side + 1), repeat=2):
        source, target = carrier("a", n), carrier("b", m)
        for rows in itertools.product(range(1 << m), repeat=n):
            yield Relation(source, target, rows)


def random_relation(rng, source, m):
    target = carrier("b", m)
    return Relation(source, target, tuple(rng.getrandbits(m) for _ in range(source.size)))


def seeded_relations(count, max_side, seed):
    rng = random.Random(seed)
    return [random_relation(rng, carrier("a", rng.randint(0, max_side)), rng.randint(0, max_side))
            for _ in range(count)]


SMALL = list(all_relations(3))
SEEDED = seeded_relations(200, 8, seed=9)


def seeded_preorders(count, max_size, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        c = carrier("e", rng.randint(1, max_size))
        pairs = [(rng.choice(c.elements), rng.choice(c.elements)) for _ in range(c.size)]
        out.append(Preorder.from_pairs(c, pairs))
    return out


ORDERS = list(_all_preorders(3)) + seeded_preorders(200, 8, seed=10)


# ------------------------------------------------------------------- oracles


def loop_transpose(r):
    """The earlier ``transpose``: one pass over the rows, setting bit i of each column."""
    rows = [0] * r.target.size
    for i, row in enumerate(r.rows):
        bit = 1 << i
        for j in _bits(row):
            rows[j] |= bit
    return Relation(r.target, r.source, tuple(rows))


def scan_derive_reverse(r, y):
    """The earlier ``derive_reverse``: the sources whose rows hold ``y``, by a row scan."""
    mask = 0
    for a, row in enumerate(r.rows):
        if y.bits & ~row == 0:
            mask |= 1 << a
    return Subset(r.source, mask)


# --------------------------------------------------------------------- tests


@pytest.mark.parametrize("relations", [SMALL, SEEDED], ids=["all-3x3", "seeded-8x8"])
def test_columns_and_transpose_match_the_loop(relations):
    for r in relations:
        expected = loop_transpose(r)
        assert r.columns == expected.rows
        assert transpose(r) == expected
        assert transpose(transpose(r)) == r


@pytest.mark.parametrize("relations", [SMALL, SEEDED], ids=["all-3x3", "seeded-8x8"])
def test_reverse_derivation_matches_the_row_scan(relations):
    for r in relations:
        for ybits in range(1 << r.target.size):
            y = Subset(r.target, ybits)
            assert derive_reverse(r, y) == scan_derive_reverse(r, y)


@pytest.mark.parametrize("relations", [SMALL, SEEDED], ids=["all-3x3", "seeded-8x8"])
def test_left_residual_matches_the_oracles(relations):
    """(b, c) holds iff column b of r lies in column c of s: row b of r\\s is the
    reverse derivation, in the transpose of s, of column b of r."""
    rng = random.Random(11)
    for r in relations:
        for s in (r, random_relation(rng, r.source, rng.randint(0, 4))):
            s_t = loop_transpose(s)
            rows = tuple(scan_derive_reverse(s_t, Subset(s.source, col)).bits
                         for col in loop_transpose(r).rows)
            assert residuate_left(r, s) == Relation(r.target, s.target, rows)


def test_down_segments_are_the_columns_of_the_loop():
    for p in ORDERS:
        cols = loop_transpose(p.leq).rows
        for j, label in enumerate(p.carrier.elements):
            assert down_segment(p, label) == Subset(p.carrier, cols[j])


def monotone_maps(p, q, rng):
    """Every monotone map p -> q for small carriers, else up to 20 random tables that are."""
    if p.size ** q.size <= 64:
        tables = itertools.product(range(q.size), repeat=p.size)
    else:
        tables = (tuple(rng.randrange(q.size) for _ in range(p.size)) for _ in range(20))
    for table in tables:
        try:
            yield MonotoneMap(p, q, FinFunction(p.carrier, q.carrier, table))
        except ValueError:
            pass


def test_reverse_bimodule_matches_the_transposed_down_sets():
    """rel(b, a) iff b <= f(a): the transpose of the relation sending a to the
    down-set of f(a), a column of the target order."""
    rng = random.Random(12)
    small = list(_all_preorders(3))
    pairs = [(p, q) for p in small for q in small if p.size and q.size]
    seeded = ORDERS[len(small):]
    pairs += [(p, quotient(p)[0]) for p in seeded] + list(zip(seeded, seeded[1:]))
    checked = 0
    for p, q in pairs:
        down = loop_transpose(q.leq).rows
        for f in monotone_maps(p, q, rng):
            a_to_down = Relation(p.carrier, q.carrier, tuple(down[t] for t in f.func.table))
            assert bimodule_of_map(f, "reverse").rel == loop_transpose(a_to_down)
            checked += 1
    assert checked > 1000


def loop_quotient_rows(p):
    """The earlier ``quotient``: classes from the equivalence rows, then one
    ``le_idx`` per pair of representatives."""
    equiv = [row & col for row, col in zip(p.leq.rows, loop_transpose(p.leq).rows)]
    rep_of, reps = {}, []
    for i in range(p.size):
        if i not in rep_of:
            reps.append(i)
            for j in range(i, p.size):
                if equiv[i] >> j & 1:
                    rep_of[j] = len(reps) - 1
    rows = tuple(sum(1 << c for c, s in enumerate(reps) if p.le_idx(r, s)) for r in reps)
    return rows, tuple(rep_of[i] for i in range(p.size))


def test_quotient_rows_match_the_pairwise_loop():
    for p in ORDERS:
        q, canon = quotient(p)
        assert (q.leq.rows, canon.func.table) == loop_quotient_rows(p)


@pytest.mark.parametrize("n", range(9))
def test_power_order_rows_are_inclusion(n):
    a = carrier("x", n)
    up = power_order(a)
    assert up.leq.rows == tuple(sum(1 << j for j in range(1 << n) if i & ~j == 0)
                                for i in range(1 << n))
    assert power_order(a, reverse=True).leq == loop_transpose(up.leq)


@pytest.mark.parametrize("n", range(6))
def test_variable_truth_tables_match_the_model_loop(n):
    sig = Signature.of(*(f"v{k}" for k in range(n)))
    for v, name in enumerate(sig.vars.elements):
        assert truth_table(sig, Var(name)) == sum(1 << m for m in range(1 << n) if m >> v & 1)


def test_columns_are_built_once_and_leave_equality_and_hash_alone():
    for old in SEEDED[:20] + SMALL[-20:]:
        r, twin = (Relation(old.source, old.target, old.rows) for _ in range(2))
        before = hash(r)
        assert r == twin
        first = r.columns
        assert r.columns is first
        assert hash(r) == before == hash(twin)
        assert r == twin and twin == r
        assert "columns" not in repr(r)
