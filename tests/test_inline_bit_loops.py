"""The inline bit loops against the generator loops they replace.

``Relation.columns`` and ``compose`` walk the set bits of each row with the
inline ``low = x & -x`` loop of ``meet_bits``, and ``verify.random_relation``
draws its rows with a plain loop.  The earlier versions, which iterate
``finrel._bits`` and build each row with a generator expression, are copied
in below as the oracles.  Inputs are every relation of up to 2 x 2, seeded
relations of up to 9 x 9, and empty carriers on either side; the random
relations must come out identical, and leave the generator in the same
state, for every seed, shape and density tried.
"""

import itertools
import random

import pytest

from conceptua.finrel import FinSet, Relation, _bits, compose
from conceptua.verify import random_relation


def carrier(prefix, n):
    return FinSet(tuple(f"{prefix}{i}" for i in range(n)))


# ------------------------------------------------------------------ oracles


def generator_columns(r):
    cols = [0] * r.target.size
    for i, row in enumerate(r.rows):
        bit = 1 << i
        for j in _bits(row):
            cols[j] |= bit
    return tuple(cols)


def generator_compose(r, s):
    rows = []
    for row in r.rows:
        acc = 0
        for b in _bits(row):
            acc |= s.rows[b]
        rows.append(acc)
    return Relation(r.source, s.target, tuple(rows))


def generator_random_relation(rng, source, target, density=0.5):
    rows = tuple(
        sum(1 << j for j in range(target.size) if rng.random() < density)
        for _ in range(source.size)
    )
    return Relation(source, target, rows)


# ----------------------------------------------------------------- relations


def all_relations(max_side):
    for n, m in itertools.product(range(max_side + 1), repeat=2):
        source, target = carrier("a", n), carrier("b", m)
        for rows in itertools.product(range(1 << m), repeat=n):
            yield Relation(source, target, rows)


def seeded_relation(rng, source, target):
    return Relation(source, target, tuple(rng.getrandbits(target.size) for _ in range(source.size)))


def seeded_chains(count, max_side, seed):
    """Pairs r : A -> B, s : B -> C of random shapes, empty carriers included."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a, b, c = (carrier(p, rng.randint(0, max_side)) for p in "abc")
        out.append((seeded_relation(rng, a, b), seeded_relation(rng, b, c)))
    return out


CHAINS = seeded_chains(300, 9, 27)


def test_the_seeded_chains_reach_empty_carriers():
    sizes = [(r.source.size, r.target.size, s.target.size) for r, s in CHAINS]
    assert all(0 in side for side in zip(*sizes))


def test_columns_match_the_generator_loop():
    small = list(all_relations(2))
    for r in small + [r for pair in CHAINS for r in pair]:
        # A fresh relation: the columns are cached on the first read.
        fresh = Relation(r.source, r.target, r.rows)
        assert fresh.columns == generator_columns(r)


def test_compose_matches_the_generator_loop():
    small = list(all_relations(2))
    pairs = [(r, s) for r, s in itertools.product(small, repeat=2) if r.target == s.source]
    for r, s in pairs + CHAINS:
        out = compose(r, s)
        assert out == generator_compose(r, s)
        assert out.source is r.source and out.target is s.target


@pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_random_relation_draws_the_same_rows(density):
    for seed, (n, m) in itertools.product(range(5), itertools.product([0, 1, 3, 8, 13], repeat=2)):
        source, target = carrier("a", n), carrier("b", m)
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert random_relation(rng, source, target, density) == \
                generator_random_relation(oracle_rng, source, target, density)
        assert rng.getstate() == oracle_rng.getstate()
