"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and bound is pinned here.
"""

import itertools
import random
import time

from conceptua.finrel import (
    FinFunction,
    FinSet,
    Relation,
    Subset,
    compose,
    images,
    residuate_left,
    residuate_right,
)
from conceptua.order import (
    find_order_isomorphism,
    is_complete_lattice,
    poset_join,
    poset_meet,
    power_order,
)
from conceptua.galois import (
    compose_adjunctions,
    connect_factorizations,
    diagonalize,
    enumerate_adjunctions,
    polar_factorize,
    recompose,
    same_adjunction,
)
from conceptua.clsn import Classification, derivation, enumerate_infomorphisms
from conceptua.clg import (classification_of, concept_lattice, concept_poset, derivation_square,
                          lattice_roundtrip_iso)
from conceptua.institution import (
    And,
    MergeSpan,
    PropositionalInstitution,
    Model,
    SatisfactionConfig,
    Signature,
    SignatureMorphism,
    TheoryObject,
    Var,
    all_models,
    check_satisfaction_condition,
    classification_of_signature,
    fiber_transport_adjunction,
    merge_theories,
    style_interconvert,
    theory_fiber,
    verify_pushout_universal,
)
from conceptua.verify import random_classification


def _report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def _letters(prefix, n):
    return FinSet(tuple(f"{prefix}{i}" for i in range(n)))


def test_criterion_1_residuation_adjointness_exhaustive():
    start = time.perf_counter()
    A, B, C = _letters("a", 2), _letters("b", 2), _letters("c", 2)
    rels = lambda s, t: [Relation(s, t, rows)
                         for rows in itertools.product(range(1 << t.size), repeat=s.size)]
    failures = 0
    left_triples = 0
    right_triples = 0
    for r in rels(A, B):
        for s in rels(B, C):
            rs = compose(r, s)
            for t in rels(A, C):
                left_triples += 1
                if (rs <= t) != (s <= residuate_left(r, t)):
                    failures += 1
    for r in rels(A, B):
        for s in rels(B, C):
            rs = compose(r, s)
            for t in rels(A, C):
                right_triples += 1
                if (rs <= t) != (r <= residuate_right(s, t)):
                    failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and left_triples == 4096 and right_triples == 4096 and elapsed < 5.0
    _report(1, "residuation/composition adjointness, 4096 triples per shape",
            ok, f"{failures} failures, {elapsed:.2f}s")


def test_criterion_2_image_adjoint_triple_exhaustive():
    start = time.perf_counter()
    failures = 0
    checked = 0
    for n in range(4):
        for m in range(4):
            if n > 0 and m == 0:
                continue
            src, tgt = _letters("x", n), _letters("y", m)
            for table in itertools.product(range(m), repeat=n):
                f = FinFunction(src, tgt, table)
                ex, inv, un = images(f)
                for xb in range(1 << n):
                    x = Subset(src, xb)
                    for yb in range(1 << m):
                        y = Subset(tgt, yb)
                        checked += 1
                        if (ex(x) <= y) != (x <= inv(y)):
                            failures += 1
                        if (inv(y) <= x) != (y <= un(x)):
                            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 5.0
    _report(2, "existential -| inverse -| universal image triple, carriers <= 3",
            ok, f"{checked} subset pairs, {failures} failures, {elapsed:.2f}s")


def test_criterion_3_heyting_laws_exhaustive():
    failures = 0
    for n in range(4):
        A = _letters("h", n)
        po = power_order(A)
        subsets = [Subset(A, bits) for bits in range(1 << n)]
        full, empty = Subset.full(A), Subset.empty(A)
        for x in subsets:
            if x.complement() != x.implies(empty):
                failures += 1
            for y in subsets:
                if po.le_idx(x.bits, y.bits) != (x.bits & ~y.bits == 0):
                    failures += 1
                if x.union(x.intersection(y)) != x or x.intersection(x.union(y)) != x:
                    failures += 1
                if x.intersection(y) != y.intersection(x) or x.union(y) != y.union(x):
                    failures += 1
                for z in subsets:
                    if (z.intersection(x) <= y) != (z <= x.implies(y)):
                        failures += 1
                    if x.intersection(y.union(z)) != x.intersection(y).union(x.intersection(z)):
                        failures += 1
                    if x.union(y.intersection(z)) != x.union(y).intersection(x.union(z)):
                        failures += 1
        if full.intersection(empty) != empty or full.union(empty) != full:
            failures += 1
        none = Subset.empty(po.carrier)
        if poset_meet(po, none) != full.bits or poset_join(po, none) != 0:
            failures += 1
    _report(3, "Heyting-algebra laws on the power lattice, |A| <= 3",
            failures == 0, f"{failures} failures")


def test_criterion_4_polar_factorization_round_trips():
    start = time.perf_counter()
    rng = random.Random(2024)
    failures = 0
    uniqueness_checked = 0
    for _ in range(500):
        g = derivation(random_classification(rng, 6))
        pf = polar_factorize(g)
        if not same_adjunction(recompose(pf), g):
            failures += 1
            continue
        pf2 = polar_factorize(recompose(pf))
        h = connect_factorizations(pf, pf2)
        back = connect_factorizations(pf2, pf)
        if h.left.then(back.left).func.table != tuple(range(pf.axis.size)):
            failures += 1
        if back.left.then(h.left).func.table != tuple(range(pf2.axis.size)):
            failures += 1
        if not same_adjunction(compose_adjunctions(pf.extent_reflection, h),
                               pf2.extent_reflection):
            failures += 1
        if not same_adjunction(compose_adjunctions(h, pf2.intent_coreflection),
                               pf.intent_coreflection):
            failures += 1
        if pf.axis.size <= 3:
            count = sum(
                1 for d in enumerate_adjunctions(pf.axis, pf2.axis)
                if same_adjunction(compose_adjunctions(pf.extent_reflection, d),
                                   pf2.extent_reflection)
                and same_adjunction(compose_adjunctions(d, pf2.intent_coreflection),
                                    pf.intent_coreflection)
            )
            uniqueness_checked += 1
            if count != 1:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0 and uniqueness_checked > 0
    _report(4, "polar factorization round trips on 500 random context adjunctions",
            ok, f"{failures} failures, {uniqueness_checked} exhaustive-iso cases, {elapsed:.2f}s")


def test_criterion_5_diagonalization_uniqueness():
    rng = random.Random(77)
    squares = []
    attempts = 0
    while len(squares) < 50 and attempts < 3000:
        attempts += 1
        a = random_classification(rng, 2)
        b = random_classification(rng, 2)
        infos = enumerate_infomorphisms(a, b)
        if not infos:
            continue
        f = rng.choice(infos)
        g1, g2, a_adj, b_adj = derivation_square(f)
        pf1, pf2 = polar_factorize(g1), polar_factorize(g2)
        if pf1.axis.size > 4 or pf2.axis.size > 4:
            continue
        squares.append((
            pf1.extent_reflection,
            compose_adjunctions(pf1.intent_coreflection, b_adj),
            compose_adjunctions(a_adj, pf2.extent_reflection),
            pf2.intent_coreflection,
        ))
    failures = 0
    for e, s, r, m in squares:
        d = diagonalize(e, s, r, m)
        count = sum(
            1 for cand in enumerate_adjunctions(e.target, r.target)
            if same_adjunction(compose_adjunctions(e, cand), r)
            and same_adjunction(compose_adjunctions(cand, m), s)
        )
        if count != 1:
            failures += 1
        if not same_adjunction(compose_adjunctions(e, d), r):
            failures += 1
        if not same_adjunction(compose_adjunctions(d, m), s):
            failures += 1
    ok = failures == 0 and len(squares) >= 50
    _report(5, "diagonalization uniqueness by exhaustive search, >= 50 squares",
            ok, f"{len(squares)} squares, {failures} failures")


def test_criterion_6_fundamental_theorem_of_fca():
    rng = random.Random(99)
    failures = 0
    for _ in range(500):
        a = random_classification(rng, 6)
        lat = concept_lattice(a)
        if classification_of(lat) != a:
            failures += 1
            continue
        iso = lattice_roundtrip_iso(lat)
        n = lat.size
        if iso.forward.then(iso.backward).table != tuple(range(n)):
            failures += 1
        if iso.backward.then(iso.forward).table != tuple(range(n)):
            failures += 1
    _report(6, "fundamental theorem: clsn(clg(A)) = A and clg(clsn(L)) iso L, 500 contexts",
            failures == 0, f"{failures} failures")


def _brute_force_concept_count(a: Classification) -> int:
    """Pure-set all-subsets oracle, independent of the bitset derivation code."""
    objs = list(a.instances.elements)
    atts = list(a.types.elements)
    incident = set(a.incidence.pairs())
    count = 0
    for k in range(len(objs) + 1):
        for xs in itertools.combinations(objs, k):
            chosen = set(xs)
            intent = {t for t in atts if all((o, t) in incident for o in chosen)}
            closure = {o for o in objs if all((o, t) in incident for t in intent)}
            if closure == chosen:
                count += 1
    return count


def test_criterion_7_known_concept_counts():
    start = time.perf_counter()
    failures = 0
    for n in range(1, 6):
        objs = [str(i) for i in range(n)]
        atts = [f"a{i}" for i in range(n)]
        contra = Classification.of(
            objs, atts,
            [(o, t) for o in objs for t in atts if objs.index(o) != atts.index(t)])
        if concept_lattice(contra).size != 2 ** n:
            failures += 1
        if _brute_force_concept_count(contra) != 2 ** n:
            failures += 1
    for n in range(2, 6):
        objs = [str(i) for i in range(n)]
        atts = [f"a{i}" for i in range(n)]
        nominal = Classification.of(
            objs, atts,
            [(o, t) for o in objs for t in atts if objs.index(o) == atts.index(t)])
        if concept_lattice(nominal).size != n + 2:
            failures += 1
        if _brute_force_concept_count(nominal) != n + 2:
            failures += 1
    worked = Classification.of(["1", "2"], ["a", "b"],
                               [("1", "a"), ("1", "b"), ("2", "b")])
    lat = concept_lattice(worked)
    got = [(c.extent.labels(), c.intent.labels()) for c in lat.concepts]
    if got != [(("1",), ("a", "b")), (("1", "2"), ("b",))]:
        failures += 1
    if _brute_force_concept_count(worked) != 2:
        failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 2.0
    _report(7, "known concept counts (contranominal 2^n, nominal n+2, worked example)",
            ok, f"{failures} failures, {elapsed:.2f}s")


def test_criterion_8_satisfaction_condition_exhaustive():
    start = time.perf_counter()
    names = ("p", "q", "r")
    sigs = [Signature.of(*names[:n]) for n in range(4)]
    failures = 0
    morphisms = 0
    non_injective = 0
    for s1 in sigs:
        for s2 in sigs:
            for table in itertools.product(range(s2.size), repeat=s1.size):
                sigma = SignatureMorphism(s1, s2, FinFunction(s1.vars, s2.vars, table))
                morphisms += 1
                if len(set(table)) < len(table):
                    non_injective += 1
                rep = check_satisfaction_condition(sigma, SatisfactionConfig(depth=4))
                if not rep.ok:
                    failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0 and non_injective > 0
    _report(8, "satisfaction condition, all morphisms between signatures <= 3, depth <= 4",
            ok, f"{morphisms} morphisms ({non_injective} non-injective), "
                f"{failures} failures, {elapsed:.2f}s")


def test_criterion_9_lattice_of_theories():
    failures = 0
    names = ("p", "q", "r")
    for n, expected in [(0, 2), (1, 4), (2, 16), (3, 256)]:
        fib = theory_fiber(Signature.of(*names[:n]))
        if fib.poset.size != expected or not is_complete_lattice(fib.poset):
            failures += 1
    for sig, depth in [(Signature.of(), 1), (Signature.of("p"), 2),
                       (Signature.of("p", "q"), 4)]:
        a = classification_of_signature(sig, depth)
        poset, concepts = concept_poset(a)
        fib = theory_fiber(sig)
        if poset.size != fib.poset.size:
            failures += 1
        elif find_order_isomorphism(poset, fib.poset) is None:
            failures += 1
    sigs = [Signature.of(*names[:n]) for n in range(3)]
    adjunctions = 0
    for s1 in sigs:
        for s2 in sigs:
            for table in itertools.product(range(s2.size), repeat=s1.size):
                sigma = SignatureMorphism(s1, s2, FinFunction(s1.vars, s2.vars, table))
                try:
                    fiber_transport_adjunction(sigma)
                    adjunctions += 1
                except Exception:
                    failures += 1
    big = Signature.of("p", "q", "r")
    for sigma in [SignatureMorphism.identity(big),
                  SignatureMorphism.of(Signature.of("p", "q"), big, {"p": "p", "q": "q"})]:
        try:
            fiber_transport_adjunction(sigma)
            adjunctions += 1
        except Exception:
            failures += 1
    _report(9, "theory fibers 2/4/16/256, concept-lattice match, transport adjunctions",
            failures == 0, f"{failures} failures, {adjunctions} transport adjunctions")


def test_criterion_10_merge_demo():
    base = Signature.of("q")
    sa, sb = Signature.of("p", "q"), Signature.of("q", "r")
    span = MergeSpan(base,
                     SignatureMorphism.of(base, sa, {"q": "q"}),
                     SignatureMorphism.of(base, sb, {"q": "q"}),
                     TheoryObject.of_sentence(sa, Var("q")),
                     TheoryObject.of_sentence(sb, And(Var("q"), Var("r"))))
    res = merge_theories(span)
    failures = 0
    if res.signature.size != 3:
        failures += 1
    got = {all_models(res.signature)[i].label() for i in res.theory.model_class.indices()}
    if got != {"{C.q,R.r}", "{L.p,C.q,R.r}"}:
        failures += 1
    targets = [Signature.of(*"xyz"[:k]) for k in range(1, 4)]
    if verify_pushout_universal(span, res, targets):
        failures += 1
    _report(10, "merge demo {p,q} <- {q} -> {q,r} with pushout universal property",
            failures == 0, f"{failures} failures")


def test_criterion_11_four_style_interconversion():
    sigma = SignatureMorphism.of(Signature.of("p"), Signature.of("p", "q"), {"p": "p"})
    healthy = style_interconvert(sigma, 3)

    class Corrupted(PropositionalInstitution):
        def reduct(self, inner_sigma, m):
            honest = super().reduct(inner_sigma, m)
            if inner_sigma.source.size == 0:
                return honest
            return Model(inner_sigma.source,
                         Subset(inner_sigma.source.vars, honest.valuation.bits ^ 1))

    broken = style_interconvert(sigma, 3, Corrupted())
    ok = (healthy.all_pass and healthy.agree
          and broken.agree and not broken.class_rel and not broken.class_adj
          and not broken.conc_adj and not broken.conc_rel)
    _report(11, "four institution styles pass together and fail together under injected bug",
            ok, f"healthy={healthy.all_pass}, broken witnesses={sorted(broken.witnesses)}")
