"""Seeded law suites: every algebraic invariant of the package as a check.

Each suite returns a LawReport whose failures carry human-readable
witnesses.  Suites are deterministic for a fixed seed and case count, which
is what the CLI's ``verify`` command exposes.
"""

import functools
import itertools
import random
import time
from dataclasses import dataclass, field

from .errors import ConceptuaError
from .finrel import (
    FinFunction,
    FinSet,
    Relation,
    Subset,
    compose,
    derive_forward,
    derive_reverse,
    image_factorize,
    images,
    residuate_left,
    residuate_right,
    transpose,
)
from .order import (
    MonotoneMap,
    Poset,
    Preorder,
    all_monotone_maps,
    bounds,
    down_segment,
    equalizer,
    is_complete_lattice,
    poset_join,
    poset_meet,
    power_order,
    product,
    quotient,
    terminal,
)
from .galois import (
    Adjunction,
    _diagonal_count,
    check_reflection_lattice_transfer,
    closure_interior,
    downset_coreflection,
    factorization_equivalence_check,
    is_coreflection,
    is_reflection,
    polar_factorization_system,
    polar_factorize,
    recompose,
    same_adjunction,
    upset_reflection,
)
from .clsn import (
    Classification,
    Infomorphism,
    check_infomorphism,
    compose_infomorphisms,
    derivation,
    derivation_equals_bounds,
    enumerate_infomorphisms,
    exponent,
    identity_infomorphism,
    order_as_classification,
)
from .clg import (
    classification_of,
    compose_concept_morphisms,
    concept_lattice,
    concept_morphism_of,
    derivation_square,
    diagonal_of_infomorphism,
    lattice_joins_meets,
    lattice_roundtrip_iso,
    validate_concept_lattice,
)
from .institution import (
    And,
    MergeSpan,
    SatisfactionConfig,
    Signature,
    SignatureMorphism,
    TheoryObject,
    Var,
    all_models,
    check_satisfaction_condition,
    fiber_transport_adjunction,
    flatten,
    merge_theories,
    style_interconvert,
    theory_fiber,
    verify_pushout_universal,
)

__all__ = [
    "LawReport",
    "run_suite",
    "SUITES",
    "random_classification",
    "random_preorder",
    "random_poset",
    "corrupted_factorization_witness",
]


@dataclass
class LawReport:
    suite: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, witness: str, *args):
        """Count a check; on failure record the witness, ``witness.format(*args)`` when args are given.

        Passing the parts as args keeps the text unformatted while the check holds.
        """
        self.cases += 1
        if not condition:
            self.failures.append(witness.format(*args) if args else witness)

    def lines(self) -> list[str]:
        status = "ok" if self.ok else "FAILED"
        out = [f"suite {self.suite}: {status} ({self.cases} checks, {self.seconds:.2f}s)"]
        out.extend(f"  witness: {w}" for w in self.failures[:10])
        if len(self.failures) > 10:
            out.append(f"  ... and {len(self.failures) - 10} more failures")
        return out


# ------------------------------------------------------------- generators


@functools.lru_cache(maxsize=256)
def _letters(prefix: str, n: int) -> FinSet:
    """The carrier prefix0..prefix{n-1}, one shared object per (prefix, n), so
    carrier checks between a suite's values take the identity path."""
    return FinSet(tuple(f"{prefix}{i}" for i in range(n)))


def random_relation(rng: random.Random, source: FinSet, target: FinSet,
                    density: float = 0.5) -> Relation:
    rows = tuple(
        sum(1 << j for j in range(target.size) if rng.random() < density)
        for _ in range(source.size)
    )
    return Relation(source, target, rows)


def random_classification(rng: random.Random, max_side: int = 6) -> Classification:
    inst = _letters("i", rng.randint(1, max_side))
    typ = _letters("t", rng.randint(1, max_side))
    return Classification(inst, typ, random_relation(rng, inst, typ))


def random_preorder(rng: random.Random, max_size: int = 6) -> Preorder:
    n = rng.randint(1, max_size)
    carrier = _letters("e", n)
    pairs = [
        (carrier.elements[rng.randrange(n)], carrier.elements[rng.randrange(n)])
        for _ in range(rng.randint(0, 2 * n))
    ]
    return Preorder.from_pairs(carrier, pairs)


def random_poset(rng: random.Random, max_size: int = 6) -> Poset:
    q, _ = quotient(random_preorder(rng, max_size))
    return q


def random_subset(rng: random.Random, carrier: FinSet) -> Subset:
    return Subset(carrier, rng.randrange(1 << carrier.size))


def random_context_adjunction(rng: random.Random, max_side: int = 6) -> Adjunction:
    return derivation(random_classification(rng, max_side))


def _all_relations(source: FinSet, target: FinSet):
    for rows in itertools.product(range(1 << target.size), repeat=source.size):
        yield Relation(source, target, rows)


def _all_functions(source: FinSet, target: FinSet):
    for table in itertools.product(range(target.size), repeat=source.size):
        yield FinFunction(source, target, table)


def random_valid_infomorphism(rng: random.Random, max_side: int = 3) -> Infomorphism | None:
    for _ in range(40):
        a = random_classification(rng, max_side)
        b = random_classification(rng, max_side)
        infos = enumerate_infomorphisms(a, b)
        if infos:
            return rng.choice(infos)
    return None


def _valid_infomorphisms(rng: random.Random, count: int) -> list[Infomorphism]:
    infos = []
    attempts = 0
    while len(infos) < count and attempts < count * 30:
        attempts += 1
        f = random_valid_infomorphism(rng, max_side=2)
        if f is not None:
            infos.append(f)
    return infos


def _squares_from_infomorphisms(rng: random.Random, count: int):
    return [derivation_square(f) for f in _valid_infomorphisms(rng, count)]


def corrupted_factorization_witness() -> str | None:
    """Negative control: dropping the top bipole must break recomposition.

    Returns the detection witness (the healthy outcome) or None if the
    corrupted factorization slipped through the recomposition check.
    """
    a = Classification.of(["1", "2"], ["a", "b"], [("1", "a"), ("1", "b"), ("2", "b")])
    g = derivation(a)
    pf = polar_factorize(g)
    kept = len(pf.bipoles) - 1
    e_left = [min(k, kept - 1) for k in pf.extent_reflection.left.func.table]
    m_left = [pf.intent_coreflection.left.func.table[k] for k in range(kept)]
    for i in range(g.source.size):
        if m_left[e_left[i]] != g.left.func.table[i]:
            return (f"corrupted factorization detected: composite differs at source index {i}")
    return None


# ------------------------------------------------------------ finrel suite


def finrel_suite(seed: int, cases: int) -> LawReport:
    rng = random.Random(seed)
    report = LawReport("finrel")
    start = time.perf_counter()

    # residuation adjointness, exhaustive on 2-element carriers; the residuals
    # depend on two of the three relations, so each is computed once
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

    # randomized laws on carriers up to 5
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

    # image adjoint triple, exhaustive for carriers up to 3
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

    # epi-mono factorization recomposes, exhaustive for carriers up to 3/4
    for n in range(4):
        for m in range(1, 5):
            A, B = _letters("x", n), _letters("y", m)
            for f in _all_functions(A, B):
                epi, mono = image_factorize(f)
                report.check(epi.then(mono) == FinFunction(A, B, f.table),
                             "image factorization recomposes for {}", f.table)
                report.check(mono.is_injective(), "mono part is injective")
                report.check(epi.is_surjective(), "epi part is surjective")

    # Heyting structure on the power lattice, exhaustive for |A| <= 3
    for n in range(4):
        A = _letters("h", n)
        po = power_order(A)
        full = A.full_mask
        for x in range(1 << n):
            for y in range(1 << n):
                report.check(po.le_idx(x, y) == (x & ~y == 0), "power order is inclusion")
                report.check(x | (x & y) == x, "absorption (join)")
                report.check(x & (x | y) == x, "absorption (meet)")
                implies = (~x | y) & full
                for z in range(1 << n):
                    report.check((z & x & ~y == 0) == (z & ~implies == 0),
                                 "Heyting residuation at |A|={} x={} y={} z={}", n, x, y, z)
                    report.check(x & (y | z) == (x & y) | (x & z), "distributivity")
        empty = Subset.empty(po.carrier)
        report.check(poset_meet(po, empty) == full, "empty intersection is full")
        report.check(poset_join(po, empty) == 0, "empty union is empty")

    # segments and bounds on random preorders
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

    report.seconds = time.perf_counter() - start
    return report


# ------------------------------------------------------------ galois suite


def galois_suite(seed: int, cases: int) -> LawReport:
    rng = random.Random(seed)
    report = LawReport("galois")
    start = time.perf_counter()

    # triple identities for adjunctions between posets
    for _ in range(cases // 10 + 3):
        g = random_context_adjunction(rng, 4)
        lrl = g.left.then(g.right).then(g.left)
        report.check(lrl.func.table == g.left.func.table, "left o right o left = left")
        rlr = g.right.then(g.left).then(g.right)
        report.check(rlr.func.table == g.right.func.table, "right o left o right = right")

    # closure/interior and polar round trips on random context adjunctions
    for _ in range(cases):
        g = random_context_adjunction(rng, 4)
        ci = closure_interior(g)
        report.check(ci.closure.then(ci.closure).func.table == ci.closure.func.table,
                     "closure is idempotent")
        report.check(ci.interior.then(ci.interior).func.table == ci.interior.func.table,
                     "interior is idempotent")
        pf = polar_factorize(g)
        report.check(is_reflection(pf.extent_reflection), "extent part is a reflection")
        report.check(is_coreflection(pf.intent_coreflection), "intent part is a coreflection")
        report.check(same_adjunction(recompose(pf), g), "factor then compose is the identity")
        report.check(pf.extent_reflection.right.is_isotone(),
                     "right adjoint of a reflection is isotone")
        report.check(pf.intent_coreflection.left.is_isotone(),
                     "left adjoint of a coreflection is isotone")

    eq_report = factorization_equivalence_check(
        [random_context_adjunction(rng, 3) for _ in range(max(cases // 10, 5))],
        _squares_from_infomorphisms(rng, 5))
    report.cases += eq_report.cases_run + eq_report.squares_run
    report.failures.extend(eq_report.failures)

    # factorization system harness: isos, chosen factorizations, composition closure
    fs = polar_factorization_system()
    for _ in range(3):
        p = random_poset(rng, 4)
        report.check(not fs.check_isos(p), "isomorphisms belong to both classes")
        g = derivation(order_as_classification(p))
        report.check(not fs.check_factor(g), "harness validates the chosen factorization")
    e_pairs = []
    m_pairs = []
    for _ in range(4):
        g = random_context_adjunction(rng, 3)
        pf = polar_factorize(g)
        axis = pf.axis
        mid = rng.randrange(axis.size)
        e_pairs.append((pf.extent_reflection, upset_reflection(axis, mid)))
        m_pairs.append((downset_coreflection(axis, mid), pf.intent_coreflection))
    report.check(not fs.check_composition_closure(e_pairs), "reflections compose")
    report.check(not fs.check_composition_closure(m_pairs), "coreflections compose")

    # diagonalization on commuting squares built from infomorphisms
    for f in _valid_infomorphisms(rng, max(3, cases // 40)):
        try:
            diagonal_of_infomorphism(f)
            report.check(True, "")
        except ConceptuaError as exc:
            report.check(False, f"diagonalization failed on a commuting square: {exc}")

    # lattice transfer through reflections out of small power lattices
    for _ in range(3):
        a = random_classification(rng, 3)
        pf = polar_factorize(derivation(a))
        fails = check_reflection_lattice_transfer(pf.extent_reflection)
        report.check(not fails, f"lattice transfer through a reflection: {fails[:1]}")

    # quotient laws
    for _ in range(cases // 10 + 5):
        p = random_preorder(rng, 6)
        q, canon = quotient(p)
        report.check(q.is_poset(), "quotient is a poset")
        report.check(canon.func.is_surjective(), "canonical map is surjective")
        report.check(quotient(q)[0].size == q.size, "quotient is idempotent")
        for i in range(p.size):
            for j in range(p.size):
                if p.le_idx(i, j):
                    report.check(q.le_idx(canon.func.table[i], canon.func.table[j]),
                                 "canonical map preserves order")

    # product / terminal / equalizer universal properties on small carriers
    chain2 = Preorder.chain("0", "1")
    prod = product(chain2, chain2)
    report.check(prod.order.size == 4, "2-chain squared has four elements")
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
    one = terminal()
    for c in [chain2, Preorder.discrete(_letters("d", 3))]:
        report.check(len(list(all_monotone_maps(c, one))) == 1,
                     "terminal object has exactly one incoming map")
    ident = MonotoneMap.identity(chain2)
    sub, _incl = equalizer(ident, ident)
    report.check(sub.size == chain2.size, "equalizer of equal maps is everything")

    # uniqueness of diagonals by exhaustive search on tiny axes
    small = [g for g in (random_context_adjunction(rng, 2) for _ in range(8))
             if polar_factorize(g).axis.size <= 3]
    for g in small[:3]:
        pf = polar_factorize(g)
        pf2 = polar_factorize(recompose(pf))
        count = _diagonal_count(pf.extent_reflection, pf.intent_coreflection,
                                pf2.extent_reflection, pf2.intent_coreflection)
        report.check(count == 1, f"diagonal uniqueness: found {count}")

    report.seconds = time.perf_counter() - start
    return report


# -------------------------------------------------------------- clsn suite


def clsn_suite(seed: int, cases: int) -> LawReport:
    rng = random.Random(seed)
    report = LawReport("clsn")
    start = time.perf_counter()

    for _ in range(cases):
        a = random_classification(rng, 6)
        x = random_subset(rng, a.instances)
        y = random_subset(rng, a.types)
        report.check(y.issubset(derive_forward(a.incidence, x)) ==
                     x.issubset(derive_reverse(a.incidence, y)),
                     "derivation Galois law")

    # three-version agreement, exhaustive over all map pairs of 2x2 contexts
    i2, t2 = _letters("i", 2), _letters("t", 2)
    contexts = list(_all_relations(i2, t2))
    rng2 = random.Random(seed + 1)
    for _ in range(6):
        a = Classification(i2, t2, rng2.choice(contexts))
        b = Classification(i2, t2, rng2.choice(contexts))
        for im in _all_functions(b.instances, a.instances):
            for tm in _all_functions(a.types, b.types):
                rep = check_infomorphism(Infomorphism(a, b, im, tm))
                report.check(rep.versions_agree,
                             "versions disagree for inst={} typ={}", im.table, tm.table)

    for _ in range(cases // 10 + 5):
        report.check(derivation_equals_bounds(random_preorder(rng, 6)),
                     "derivation of an order is its bound pair")

    for _ in range(cases // 20 + 3):
        f = random_valid_infomorphism(rng, 2)
        if f is None:
            continue
        ia = identity_infomorphism(f.source)
        composed = compose_infomorphisms(ia, f)
        report.check(composed.inst_map.table == f.inst_map.table
                     and composed.typ_map.table == f.typ_map.table,
                     "left identity for infomorphisms")
        chain = enumerate_infomorphisms(f.target, f.target)
        if chain:
            g = rng.choice(chain)
            report.check(compose_infomorphisms(f, g).is_valid(),
                         "composition preserves the fundamental condition")

    # extended fundamental-condition identities as relation equalities
    for _ in range(cases // 20 + 3):
        f = random_valid_infomorphism(rng, 3)
        if f is None:
            continue
        a, b = f.source, f.target
        report.check(
            compose(f.inst_map.as_relation(), a.incidence) ==
            compose(b.incidence, transpose(f.typ_map.as_relation())),
            "first extended fundamental identity")
        report.check(
            compose(transpose(a.incidence), transpose(f.inst_map.as_relation())) ==
            compose(f.typ_map.as_relation(), transpose(b.incidence)),
            "second extended fundamental identity")

    # exponent: identity membership and dual incidence formulas
    a = Classification.of(["1", "2"], ["a", "b"], [("1", "a"), ("1", "b"), ("2", "b")])
    expo = exponent(a, a)
    report.check("(0,1;0,1)" in expo.instances.elements,
                 "exponent contains the identity infomorphism")
    for f in enumerate_infomorphisms(a, a):
        for xi in range(a.instances.size):
            for yi in range(a.types.size):
                report.check(
                    a.incidence.holds_idx(f.inst_map.table[xi], yi) ==
                    a.incidence.holds_idx(xi, f.typ_map.table[yi]),
                    "exponent incidence formulas agree")

    report.seconds = time.perf_counter() - start
    return report


# --------------------------------------------------------------- clg suite


def clg_suite(seed: int, cases: int) -> LawReport:
    rng = random.Random(seed)
    report = LawReport("clg")
    start = time.perf_counter()

    for _ in range(cases):
        a = random_classification(rng, 5)
        lat = concept_lattice(a)
        report.check(classification_of(lat) == a, "clsn o clg is the identity")
        iso = lattice_roundtrip_iso(lat)
        report.check(iso.forward.table == tuple(range(lat.size)),
                     "round-trip iso is the identity on generated lattices")
        members = random_subset(rng, lat.lattice.carrier)
        join_k, meet_k = lattice_joins_meets(lat, members)
        report.check(join_k == poset_join(lat.lattice, members), "join formula matches search")
        report.check(meet_k == poset_meet(lat.lattice, members), "meet formula matches search")

    for _ in range(max(2, cases // 50)):
        a = random_classification(rng, 4)
        report.check(not validate_concept_lattice(concept_lattice(a)),
                     "generated lattice passes all invariants")

    # known families
    for n in range(1, 6):
        objs = [str(i) for i in range(n)]
        atts = [f"a{i}" for i in range(n)]
        contra = Classification.of(objs, atts,
                                   [(o, t) for o in objs for t in atts
                                    if objs.index(o) != atts.index(t)])
        report.check(concept_lattice(contra).size == 2 ** n,
                     f"contranominal-{n} concept count")
    for n in range(2, 6):
        objs = [str(i) for i in range(n)]
        atts = [f"a{i}" for i in range(n)]
        nominal = Classification.of(objs, atts,
                                    [(o, t) for o in objs for t in atts
                                     if objs.index(o) == atts.index(t)])
        report.check(concept_lattice(nominal).size == n + 2,
                     f"nominal-{n} concept count")

    # functoriality and the diagonalization cross-check
    for _ in range(max(3, cases // 30)):
        f = random_valid_infomorphism(rng, 2)
        if f is None:
            continue
        h = concept_morphism_of(f)
        report.check(not h.check(), "concept morphism conditions hold")
        gs = enumerate_infomorphisms(f.target, f.target)
        if gs:
            g = rng.choice(gs)
            hfg = concept_morphism_of(compose_infomorphisms(f, g))
            composed = compose_concept_morphisms(h, concept_morphism_of(g))
            report.check(
                hfg.connection.left.func.table == composed.connection.left.func.table
                and hfg.connection.right.func.table == composed.connection.right.func.table,
                "concept morphisms compose functorially")
        d = diagonal_of_infomorphism(f)
        pf_a = polar_factorize(derivation(f.source))
        pf_b = polar_factorize(derivation(f.target))
        ext_of_lattice_b = [c.extent.bits for c in h.target.concepts]
        ok = True
        for k, (closed_bits, _) in enumerate(pf_b.bipoles):
            via_d = pf_a.bipoles[d.left.func.table[k]][0]
            lattice_k = ext_of_lattice_b.index(closed_bits)
            via_h = h.source.concepts[h.connection.left.func.table[lattice_k]].extent.bits
            if via_d != via_h:
                ok = False
        report.check(ok, "connection equals the diagonal of the derivation square")

    report.seconds = time.perf_counter() - start
    return report


# -------------------------------------------------------- institution suite


def _canonical_signatures(max_size: int) -> list[Signature]:
    names = ("p", "q", "r", "s")
    return [Signature.of(*names[:n]) for n in range(max_size + 1)]


def institution_suite(seed: int, cases: int) -> LawReport:
    report = LawReport("institution")
    start = time.perf_counter()

    sigs = _canonical_signatures(2)
    for s1 in sigs:
        for s2 in sigs:
            for table in itertools.product(range(s2.size), repeat=s1.size):
                sigma = SignatureMorphism(s1, s2, FinFunction(s1.vars, s2.vars, table))
                rep = check_satisfaction_condition(sigma, SatisfactionConfig(depth=3))
                report.check(rep.ok, "satisfaction condition for table {}: {}",
                             table, rep.failures[0] if rep.failures else "")

    for n in range(3):
        fib = theory_fiber(Signature.of(*"pqr"[:n]))
        report.check(fib.poset.size == 2 ** (2 ** n), f"fiber size at n={n}")
        report.check(is_complete_lattice(fib.poset), f"fiber at n={n} is a complete lattice")

    for s1 in sigs[: min(3, len(sigs))]:
        for s2 in sigs[: min(3, len(sigs))]:
            for table in itertools.product(range(s2.size), repeat=s1.size):
                sigma = SignatureMorphism(s1, s2, FinFunction(s1.vars, s2.vars, table))
                try:
                    fiber_transport_adjunction(sigma)
                    report.check(True, "")
                except ConceptuaError as exc:
                    report.check(False, f"fiber transport adjunction fails: {exc}")

    s0, s1b, s2b = Signature.of(), Signature.of("q"), Signature.of("q", "r")
    m01 = SignatureMorphism.of(s0, s1b, {})
    m12 = SignatureMorphism.of(s1b, s2b, {"q": "q"})
    cat = flatten([s0, s1b, s2b], [m01, m12, m01.then(m12)])
    report.cases += 1
    report.failures.extend(cat.report.failures)

    base = Signature.of("q")
    sa, sb = Signature.of("p", "q"), Signature.of("q", "r")
    span = MergeSpan(base,
                     SignatureMorphism.of(base, sa, {"q": "q"}),
                     SignatureMorphism.of(base, sb, {"q": "q"}),
                     TheoryObject.of_sentence(sa, Var("q")),
                     TheoryObject.of_sentence(sb, And(Var("q"), Var("r"))))
    res = merge_theories(span)
    report.check(res.signature.size == 3, "merge demo pushout has three variables")
    got = {all_models(res.signature)[i].label() for i in res.theory.model_class.indices()}
    report.check(got == {"{C.q,R.r}", "{L.p,C.q,R.r}"},
                 f"merge demo model class: {sorted(got)}")
    report.check(not res.inconsistent, "merge demo is consistent")
    fails = verify_pushout_universal(span, res, _canonical_signatures(3)[1:])
    report.check(not fails, f"pushout universal property: {fails[:1]}")

    sigma = SignatureMorphism.of(Signature.of("p"), Signature.of("p", "q"), {"p": "p"})
    sty = style_interconvert(sigma, 3)
    report.check(sty.all_pass and sty.agree, f"four styles pass together: {sty.witnesses}")

    report.seconds = time.perf_counter() - start
    return report


SUITES = {
    "finrel": finrel_suite,
    "galois": galois_suite,
    "clsn": clsn_suite,
    "clg": clg_suite,
    "institution": institution_suite,
}


def run_suite(name: str, seed: int, cases: int) -> list[LawReport]:
    if name == "all":
        return [fn(seed, cases) for fn in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose all|{'|'.join(SUITES)}")
    return [SUITES[name](seed, cases)]


def negative_control_report() -> LawReport:
    """Run the deliberately corrupted fixtures; failures here are expected."""
    report = LawReport("negative-control")
    witness = corrupted_factorization_witness()
    report.cases += 1
    if witness is None:
        # The corruption was NOT detected: the harness itself is broken.
        report.failures.append("corrupted factorization passed the recomposition check")
    else:
        report.failures.append(witness)
    return report
