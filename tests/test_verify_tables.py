"""``verify``'s tabulated orders and shared operands against the code they replace.

``finrel_suite`` decides its exhaustive laws by lookups in inclusion tables
built once per family, and computes each operand of its randomized laws once;
``galois_suite`` enumerates the maps into the product once per cone source.
The earlier per-check code of both runs here as the oracle, and the counts
and witnesses must be identical: on the library as it is, and with a fault
put into a kernel in both namespaces, so that the laws fail.  An operand over
the wrong carriers must raise ``CarrierMismatchError``, as ``<=`` does.
"""

import random
import sys

import pytest

from conceptua import finrel, order, verify
from conceptua.errors import CarrierMismatchError
from conceptua.finrel import FinFunction, FinSet, Relation, Subset, _trusted, \
    compose, derive_forward, derive_reverse, image_factorize, images, residuate_left, \
    residuate_right, transpose
from conceptua.order import OrderProduct, Preorder, all_monotone_maps, bounds, down_segment, \
    poset_join, poset_meet, power_order, product
from conceptua.verify import LawReport, _all_functions, _all_relations, _letters, \
    random_preorder, random_relation, random_subset

SEEDS = range(8)
HERE = sys.modules[__name__]


# ------------------------------------------------------------------- oracles


def oracle_finrel_suite(seed: int, cases: int) -> LawReport:
    """``verify.finrel_suite`` as it was, one ``<=`` per comparison."""
    rng = random.Random(seed)
    report = LawReport("finrel")

    a2, b2, c2 = _letters("a", 2), _letters("b", 2), _letters("c", 2)
    ts = list(_all_relations(a2, c2))
    ss = list(_all_relations(b2, c2))
    right_residuals = [[residuate_right(s, t) for t in ts] for s in ss]
    for r in _all_relations(a2, b2):
        left_residuals = [residuate_left(r, t) for t in ts]
        for s, rights in zip(ss, right_residuals):
            rs = compose(r, s)
            for t, left, right in zip(ts, left_residuals, rights):
                rs_le_t = rs <= t
                report.check(rs_le_t == (s <= left),
                             "left adjointness: r={} s={} t={}", r.rows, s.rows, t.rows)
                report.check(rs_le_t == (r <= right),
                             "right adjointness: r={} s={} t={}", r.rows, s.rows, t.rows)

    for _ in range(cases):
        n, m, k, l = (rng.randint(1, 5) for _ in range(4))
        A, B, C, D = _letters("a", n), _letters("b", m), _letters("c", k), _letters("d", l)
        r = random_relation(rng, A, B)
        r2 = random_relation(rng, B, C)
        s1 = random_relation(rng, B, C)
        t = random_relation(rng, A, C)
        report.check((compose(r, r2) <= t) == (r2 <= residuate_left(r, t)),
                     "randomized left adjointness")
        report.check((compose(r, s1) <= t) == (r <= residuate_right(s1, t)),
                     "randomized right adjointness")
        report.check(
            residuate_left(compose(r, r2), t) == residuate_left(r2, residuate_left(r, t)),
            "left residuation preserves composition")
        report.check(
            residuate_right(compose(r, s1), t) == residuate_right(r, residuate_right(s1, t)),
            "right residuation preserves composition")
        report.check(residuate_left(Relation.identity(A), t) == t,
                     "left residuation by the identity")
        report.check(residuate_right(Relation.identity(C), t) == t,
                     "right residuation by the identity")
        report.check(transpose(residuate_left(r, t)) ==
                     residuate_right(transpose(r), transpose(t)),
                     "transpose dualizes left residuation")
        report.check(transpose(residuate_right(s1, t)) ==
                     residuate_left(transpose(s1), transpose(t)),
                     "transpose dualizes right residuation")
        tt = random_relation(rng, A, B)
        rr = random_relation(rng, A, C)
        ss = random_relation(rng, D, B)
        report.check(
            residuate_right(ss, residuate_left(rr, tt)) ==
            residuate_left(rr, residuate_right(ss, tt)),
            "unconstrained associativity of residuation")
        f = FinFunction(A, B, tuple(rng.randrange(m) for _ in range(n)))
        rel_bc = random_relation(rng, B, C)
        report.check(
            residuate_left(transpose(f.as_relation()), rel_bc) == compose(f.as_relation(), rel_bc),
            "left residuation along a transposed function is composition")
        s_cb = random_relation(rng, C, B)
        report.check(
            residuate_right(f.as_relation(), s_cb) == compose(s_cb, transpose(f.as_relation())),
            "right residuation along a function is composition with the transpose")
        report.check(transpose(compose(r, r2)) == compose(transpose(r2), transpose(r)),
                     "transpose reverses composition")
        x = random_subset(rng, A)
        y = random_subset(rng, B)
        fwd = derive_forward(r, x)
        report.check(x <= derive_reverse(r, fwd), "derivation unit")
        report.check(derive_forward(r, derive_reverse(r, fwd)) == fwd,
                     "derivation triple identity")
        report.check(derive_reverse(r, y) == derive_forward(transpose(r), y),
                     "reverse derivation is forward derivation of the transpose")

    for n in range(4):
        for m in range(4):
            if n > 0 and m == 0:
                continue
            A, B = _letters("x", n), _letters("y", m)
            ys = [Subset(B, yb) for yb in range(1 << m)]
            for f in _all_functions(A, B):
                ex, inv, un = images(f)
                inverses = [inv(Y) for Y in ys]
                for xb in range(1 << n):
                    X = Subset(A, xb)
                    ex_x, un_x = ex(X), un(X)
                    for yb, (Y, inv_y) in enumerate(zip(ys, inverses)):
                        report.check((ex_x <= Y) == (X <= inv_y),
                                     "existential adjoint: f={} X={} Y={}", f.table, xb, yb)
                        report.check((inv_y <= X) == (Y <= un_x),
                                     "universal adjoint: f={} X={} Y={}", f.table, xb, yb)

    for n in range(4):
        for m in range(1, 5):
            A, B = _letters("x", n), _letters("y", m)
            for f in _all_functions(A, B):
                epi, mono = image_factorize(f)
                report.check(epi.then(mono) == FinFunction(A, B, f.table),
                             "image factorization recomposes for {}", f.table)
                report.check(mono.is_injective(), "mono part is injective")
                report.check(epi.is_surjective(), "epi part is surjective")

    for n in range(4):
        A = _letters("h", n)
        po = power_order(A)
        full = A.full_mask
        subsets = [Subset(A, x) for x in range(1 << n)]
        for x, sx in enumerate(subsets):
            for y, sy in enumerate(subsets):
                report.check(po.le_idx(x, y) == (x & ~y == 0), "power order is inclusion")
                report.check(sx.union(sx.intersection(sy)) == sx, "absorption (join)")
                report.check(sx.intersection(sx.union(sy)) == sx, "absorption (meet)")
                implies = sx.implies(sy).bits
                for z in range(1 << n):
                    report.check((z & x & ~y == 0) == (z & ~implies == 0),
                                 "Heyting residuation at |A|={} x={} y={} z={}", n, x, y, z)
                    report.check(x & (y | z) == (x & y) | (x & z), "distributivity")
        empty = Subset.empty(po.carrier)
        report.check(poset_meet(po, empty) == full, "empty intersection is full")
        report.check(poset_join(po, empty) == 0, "empty union is empty")

    for _ in range(cases // 5 + 5):
        p = random_preorder(rng, 6)
        for a in p.carrier.elements:
            for b in p.carrier.elements:
                report.check(p.le(a, b) == down_segment(p, a).issubset(down_segment(p, b)),
                             "segment order at ({},{})", a, b)
        x = random_subset(rng, p.carrier)
        y = random_subset(rng, p.carrier)
        upper_x, _ = bounds(p, x)
        _, lower_y = bounds(p, y)
        report.check(y.issubset(upper_x) == x.issubset(lower_y),
                     "bounds form a Galois connection")
        report.check(bounds(p, Subset.empty(p.carrier))[0] == Subset.full(p.carrier),
                     "empty subset has every upper bound")

    return report


def oracle_product_law() -> LawReport:
    """The product loop of ``verify.galois_suite`` as it was: the maps into
    the product enumerated once per cone."""
    report = LawReport("galois")
    chain2 = Preorder.chain("0", "1")
    prod = product(chain2, chain2)
    for c in [Preorder.chain("u"), chain2, Preorder.discrete(_letters("d", 2))]:
        for f1 in all_monotone_maps(c, chain2):
            for f2 in all_monotone_maps(c, chain2):
                mediators = [
                    h for h in all_monotone_maps(c, prod.order)
                    if h.then(prod.proj0).func.table == f1.func.table
                    and h.then(prod.proj1).func.table == f2.func.table
                ]
                report.check(len(mediators) == 1,
                             "product mediator count {} for a cone", len(mediators))
    return report


# -------------------------------------------------------------------- faults
# Each fault calls the kernel it replaces through its home module, since the
# name here is patched too.


def _relabeled(carrier: FinSet) -> FinSet:
    return FinSet(tuple(e + "'" for e in carrier.elements))


def _with_rows(rel: Relation, *rows: int) -> Relation:
    return _trusted(Relation, rel.source, rel.target, rows)


def _left_drops_a_pair(r, s):
    res = finrel.residuate_left(r, s)
    return _with_rows(res, res.rows[0] & ~1, *res.rows[1:])


def _right_fills_a_row(r, s):
    res = finrel.residuate_right(r, s)
    return _with_rows(res, *res.rows[:-1], r.source.full_mask)


def _compose_empties_a_row(r, s):
    res = finrel.compose(r, s)
    return _with_rows(res, 0, *res.rows[1:])


# kernel name -> a kernel with wrong values over the right carriers
VALUE_FAULTS = {
    "residuate_left": _left_drops_a_pair,
    "residuate_right": _right_fills_a_row,
    "compose": _compose_empties_a_row,
}


def _left_past_its_carrier(r, s):
    """``_left_drops_a_pair`` with a bit past the target carrier in its first
    row: outside every family ``finrel_suite`` tabulates, though over the same
    carriers."""
    res = _left_drops_a_pair(r, s)
    return _with_rows(res, res.rows[0] | 1 << s.target.size, *res.rows[1:])


WRONG_CARRIER_FAULTS = {
    "residuate_left": lambda r, s: Relation(
        r.target, _relabeled(s.target), finrel.residuate_left(r, s).rows),
    "residuate_right": lambda r, s: Relation(
        _relabeled(s.source), r.source, finrel.residuate_right(r, s).rows),
    "compose": lambda r, s: Relation(
        r.source, _relabeled(s.target), finrel.compose(r, s).rows),
    "images": lambda f: finrel.images(f)._replace(
        inverse=lambda y: Subset(_relabeled(f.source), finrel.images(f).inverse(y).bits)),
}


def _inverse_drops_element_0(f):
    triple = finrel.images(f)
    return triple._replace(
        inverse=lambda y: _trusted(Subset, f.source, triple.inverse(y).bits & ~1))


def _swapped_legs(p, q):
    prod = order.product(p, q)
    return OrderProduct(prod.order, prod.proj0, prod.proj0)


def _patch(monkeypatch, name, fault):
    """Put ``fault`` in place of the kernel ``name`` for verify and the oracle."""
    monkeypatch.setattr(verify, name, fault)
    monkeypatch.setattr(HERE, name, fault)


def _same(a: LawReport, b: LawReport):
    assert (a.cases, a.failures) == (b.cases, b.failures)


# --------------------------------------------------------------------- tests


@pytest.mark.parametrize("seed", SEEDS)
def test_finrel_suite_matches_the_per_check_oracle(seed):
    got = verify.finrel_suite(seed, 100)
    _same(got, oracle_finrel_suite(seed, 100))
    assert got.ok


@pytest.mark.parametrize("name", sorted(VALUE_FAULTS))
@pytest.mark.parametrize("seed", SEEDS)
def test_a_faulty_kernel_fails_the_same_checks(monkeypatch, name, seed):
    _patch(monkeypatch, name, VALUE_FAULTS[name])
    got = verify.finrel_suite(seed, 100)
    _same(got, oracle_finrel_suite(seed, 100))
    assert got.failures


def test_a_value_outside_its_family_is_decided_by_le(monkeypatch):
    """No randomized cases: their transposes cannot read a row past its carrier."""
    _patch(monkeypatch, "residuate_left", _left_past_its_carrier)
    got = verify.finrel_suite(0, 0)
    _same(got, oracle_finrel_suite(0, 0))
    assert any(w.startswith("left adjointness") for w in got.failures)


@pytest.mark.parametrize("seed", range(3))
def test_a_faulty_image_fails_the_same_checks(monkeypatch, seed):
    _patch(monkeypatch, "images", _inverse_drops_element_0)
    got = verify.finrel_suite(seed, 20)
    _same(got, oracle_finrel_suite(seed, 20))
    assert any(w.startswith("existential adjoint") for w in got.failures)
    assert any(w.startswith("universal adjoint") for w in got.failures)


@pytest.mark.parametrize("name", sorted(WRONG_CARRIER_FAULTS))
def test_an_operand_over_the_wrong_carrier_raises(monkeypatch, name):
    _patch(monkeypatch, name, WRONG_CARRIER_FAULTS[name])
    with pytest.raises(CarrierMismatchError):
        oracle_finrel_suite(0, 5)
    with pytest.raises(CarrierMismatchError):
        verify.finrel_suite(0, 5)


def test_distributivity_reads_the_library_union(monkeypatch):
    """A union that adds element 0 whenever both operands are non-empty
    breaks distributivity, which the check must now see."""
    union = Subset.union

    def faulty(self, other):
        joined = union(self, other)
        return Subset(self.carrier, joined.bits | (1 if self.bits and other.bits else 0))

    monkeypatch.setattr(Subset, "union", faulty)
    assert "distributivity" in verify.finrel_suite(0, 5).failures
    assert "distributivity" not in oracle_finrel_suite(0, 5).failures


@pytest.mark.parametrize("seed", SEEDS)
def test_galois_product_law_matches_the_oracle(monkeypatch, seed):
    assert oracle_product_law().ok
    healthy = verify.galois_suite(seed, 100)
    assert healthy.ok
    _patch(monkeypatch, "product", _swapped_legs)
    expected = oracle_product_law()
    got = verify.galois_suite(seed, 100)
    assert expected.failures
    assert (got.cases, got.failures) == (healthy.cases, expected.failures)
