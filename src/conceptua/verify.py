"""Seeded law suites: every algebraic invariant of the package as a check.

Each suite returns a LawReport whose failures carry human-readable
witnesses.  Suites are deterministic for a fixed seed and case count, which
is what the CLI's ``verify`` command exposes.
"""

import functools
import itertools
import random
import time

from .errors import ConceptuaError
from .finrel import (
    FinFunction,
    FinSet,
    Relation,
    Subset,
    _Record,
    compose,
    derive_forward,
    derive_reverse,
    image_bits,
    image_factorize,
    images,
    residuate_left,
    residuate_right,
    transpose,
)
from .order import (
    MonotoneMap,
    OrderBimodule,
    Poset,
    Preorder,
    _all_preorders,
    _class_table,
    all_monotone_maps,
    bimodule_01_embedding,
    bimodule_10_embedding,
    bimodule_of_map,
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
    check_adjunction,
    closure_interior,
    compose_adjunctions,
    connect_factorizations,
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
from .clsn import (
    Classification,
    Infomorphism,
    check_infomorphism,
    compose_infomorphisms,
    derivation,
    enumerate_infomorphisms,
    exponent,
    identity_infomorphism,
    order_as_classification,
)
from .clg import (
    ConceptLattice,
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
    Signature,
    SignatureMorphism,
    TheoryObject,
    Var,
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


class LawReport(_Record):
    __match_args__ = ("suite", "cases", "failures", "seconds")
    __slots__ = __match_args__

    def __init__(self, suite: str, cases: int = 0, failures: list[str] | None = None,
                 seconds: float = 0.0):
        self._fill(self, suite, cases, [] if failures is None else failures, seconds)

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
    draw = rng.random
    rows = []
    for _ in range(source.size):
        row = 0
        for j in range(target.size):
            if draw() < density:
                row |= 1 << j
        rows.append(row)
    return Relation(source, target, tuple(rows))


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


class _Tabulated:
    """``x <= y`` over one finite family, decided once per pair by the values' own ``<=``.

    ``at(x)`` finds ``x`` in the family by value and returns its row in ``le``.
    A value outside the family joins it, compared by ``<=`` with every member,
    so it raises what ``<=`` raises (``CarrierMismatchError`` over other
    carriers) and is decided as ``<=`` decides it.
    """

    __slots__ = ("members", "le", "_index")

    def __init__(self, family):
        self.members = list(family)
        self.le = [[x <= y for y in self.members] for x in self.members]
        self._index = {x: i for i, x in enumerate(self.members)}

    def at(self, x) -> int:
        i = self._index.get(x)
        if i is None:
            for y, row in zip(self.members, self.le):
                row.append(y <= x)
            self.members.append(x)
            self.le.append([x <= y for y in self.members])
            i = self._index[x] = len(self.members) - 1
        return i


def finrel_suite(seed: int, cases: int) -> LawReport:
    rng = random.Random(seed)
    report = LawReport("finrel")

    # residuation adjointness, exhaustive on 2-element carriers: inclusion is
    # tabulated once per family, each residual depends on two of the three
    # relations and is computed once, and every check is a table lookup
    a2, b2, c2 = _letters("a", 2), _letters("b", 2), _letters("c", 2)
    rs, ss, ts = (list(_all_relations(x, y)) for x, y in ((a2, b2), (b2, c2), (a2, c2)))
    ab, bc, ac = _Tabulated(rs), _Tabulated(ss), _Tabulated(ts)
    rights_at = [[ab.at(residuate_right(s, t)) for t in ts] for s in ss]
    for r, r_le in zip(rs, ab.le):
        lefts_at = [bc.at(residuate_left(r, t)) for t in ts]
        for s, s_le, rights in zip(ss, bc.le, rights_at):
            rs_le = ac.le[ac.at(compose(r, s))]
            for t, rs_le_t, left, right in zip(ts, rs_le, lefts_at, rights):
                report.check(rs_le_t == s_le[left],
                             "left adjointness: r={} s={} t={}", r.rows, s.rows, t.rows)
                report.check(rs_le_t == r_le[right],
                             "right adjointness: r={} s={} t={}", r.rows, s.rows, t.rows)

    # randomized laws on carriers up to 5; each composite, residual,
    # transpose and graph is computed once and read by every law naming it
    for _ in range(cases):
        n, m, k, l = (rng.randint(1, 5) for _ in range(4))
        A, B, C, D = _letters("a", n), _letters("b", m), _letters("c", k), _letters("d", l)
        r = random_relation(rng, A, B)
        r2 = random_relation(rng, B, C)
        s1 = random_relation(rng, B, C)
        t = random_relation(rng, A, C)
        r_r2, r_s1 = compose(r, r2), compose(r, s1)
        left_rt, right_s1t = residuate_left(r, t), residuate_right(s1, t)
        r_t, t_t = transpose(r), transpose(t)
        report.check((r_r2 <= t) == (r2 <= left_rt), "randomized left adjointness")
        report.check((r_s1 <= t) == (r <= right_s1t), "randomized right adjointness")
        report.check(residuate_left(r_r2, t) == residuate_left(r2, left_rt),
                     "left residuation preserves composition")
        report.check(residuate_right(r_s1, t) == residuate_right(r, right_s1t),
                     "right residuation preserves composition")
        report.check(residuate_left(Relation.identity(A), t) == t,
                     "left residuation by the identity")
        report.check(residuate_right(Relation.identity(C), t) == t,
                     "right residuation by the identity")
        report.check(transpose(left_rt) == residuate_right(r_t, t_t),
                     "transpose dualizes left residuation")
        report.check(transpose(right_s1t) == residuate_left(transpose(s1), t_t),
                     "transpose dualizes right residuation")
        tt = random_relation(rng, A, B)
        rr = random_relation(rng, A, C)
        ss = random_relation(rng, D, B)
        report.check(residuate_right(ss, residuate_left(rr, tt)) ==
                     residuate_left(rr, residuate_right(ss, tt)),
                     "unconstrained associativity of residuation")
        f = FinFunction(A, B, tuple(rng.randrange(m) for _ in range(n)))
        graph = f.as_relation()
        graph_t = transpose(graph)
        rel_bc = random_relation(rng, B, C)
        report.check(residuate_left(graph_t, rel_bc) == compose(graph, rel_bc),
                     "left residuation along a transposed function is composition")
        s_cb = random_relation(rng, C, B)
        report.check(residuate_right(graph, s_cb) == compose(s_cb, graph_t),
                     "right residuation along a function is composition with the transpose")
        report.check(transpose(r_r2) == compose(transpose(r2), r_t),
                     "transpose reverses composition")
        x = random_subset(rng, A)
        y = random_subset(rng, B)
        fwd = derive_forward(r, x)
        closed = derive_reverse(r, fwd)
        report.check(x <= closed, "derivation unit")
        report.check(derive_forward(r, closed) == fwd, "derivation triple identity")
        report.check(derive_reverse(r, y) == derive_forward(r_t, y),
                     "reverse derivation is forward derivation of the transpose")

    # image adjoint triple, exhaustive for carriers up to 3, with inclusion
    # tabulated once per power set
    powers_x = [_Tabulated(Subset(_letters("x", n), b) for b in range(1 << n)) for n in range(4)]
    powers_y = [_Tabulated(Subset(_letters("y", m), b) for b in range(1 << m)) for m in range(4)]
    for n, pa in enumerate(powers_x):
        for m, pb in enumerate(powers_y):
            if n > 0 and m == 0:
                continue
            xs, ys = pa.members[:1 << n], pb.members[:1 << m]
            for f in _all_functions(_letters("x", n), _letters("y", m)):
                ex, inv, un = images(f)
                inverses = [pa.at(inv(Y)) for Y in ys]
                for xb, (X, x_le) in enumerate(zip(xs, pa.le)):
                    ex_le, un_x = pb.le[pb.at(ex(X))], pb.at(un(X))
                    for yb, (y_le, inv_y) in enumerate(zip(pb.le, inverses)):
                        report.check(ex_le[yb] == x_le[inv_y],
                                     "existential adjoint: f={} X={} Y={}", f.table, xb, yb)
                        report.check(pa.le[inv_y][xb] == y_le[un_x],
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

    # Heyting structure on the power lattice, exhaustive for |A| <= 3; each
    # binary meet and join is computed once
    for n in range(4):
        A = _letters("h", n)
        po = power_order(A)
        full = A.full_mask
        subsets = [Subset(A, x) for x in range(1 << n)]
        meets = [[sx.intersection(sy) for sy in subsets] for sx in subsets]
        joins = [[sx.union(sy) for sy in subsets] for sx in subsets]
        for x, (sx, x_meets) in enumerate(zip(subsets, meets)):
            for y, sy in enumerate(subsets):
                report.check(po.le_idx(x, y) == (x & ~y == 0), "power order is inclusion")
                report.check(sx.union(x_meets[y]) == sx, "absorption (join)")
                report.check(sx.intersection(joins[x][y]) == sx, "absorption (meet)")
                implies = sx.implies(sy).bits
                for z, (y_join_z, x_meet_z) in enumerate(zip(joins[y], x_meets)):
                    report.check((z & x & ~y == 0) == (z & ~implies == 0),
                                 "Heyting residuation at |A|={} x={} y={} z={}", n, x, y, z)
                    report.check(sx.intersection(y_join_z) == x_meets[y].union(x_meet_z),
                                 "distributivity")
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

    return report


# ------------------------------------------------------------ galois suite


def _diagonal_count(e, s, r, m) -> int | None:
    """The number of diagonals d with e;d = r and d;m = s, by exhaustive
    search; None if an axis has more than 4 elements."""
    c1, c2 = e.target, r.target
    if max(c1.size, c2.size) > 4:
        return None
    return sum(1 for d in enumerate_adjunctions(c1, c2)
               if same_adjunction(compose_adjunctions(e, d), r)
               and same_adjunction(compose_adjunctions(d, m), s))


def _equivalence_laws(report: LawReport, cases, squares) -> None:
    """Round-trip laws for factor-then-compose and compose-then-factor, one check
    per case and per square.

    Each case g is factored and recomposed (must be pointwise identical), the
    recomposite is factored again and the two factorizations must be joined by
    a unique axis isomorphism commuting with the embeddings; a case that does
    not recompose is reported and not counted.  Squares, given as
    (g1, g2, a, b) with a o g2 = g1 o b, exercise functoriality of the induced
    axis adjunctions.
    """
    failures = report.failures
    for idx, g in enumerate(cases):
        try:
            pf = polar_factorize(g)
            composite = recompose(pf)
            if not same_adjunction(composite, g):
                failures.append(f"case {idx}: factor-then-compose is not the identity")
                continue
            pf2 = polar_factorize(composite)
            h = connect_factorizations(pf, pf2)
            back = connect_factorizations(pf2, pf)
            n1, n2 = pf.axis.size, pf2.axis.size
            if h.left.then(back.left).func.table != tuple(range(n1)) or \
               back.left.then(h.left).func.table != tuple(range(n2)):
                failures.append(f"case {idx}: axis comparison is not an isomorphism")
            if not same_adjunction(compose_adjunctions(pf.extent_reflection, h), pf2.extent_reflection):
                failures.append(f"case {idx}: iso does not commute with source embeddings")
            if not same_adjunction(compose_adjunctions(h, pf2.intent_coreflection), pf.intent_coreflection):
                failures.append(f"case {idx}: iso does not commute with target embeddings")
            count = _diagonal_count(pf.extent_reflection, pf.intent_coreflection,
                                    pf2.extent_reflection, pf2.intent_coreflection)
            if count not in (None, 1):
                failures.append(f"case {idx}: axis iso is not unique")
        except Exception as exc:  # noqa: BLE001 - report, do not abort the sweep
            failures.append(f"case {idx}: {exc}")
        report.cases += 1

    for idx, (g1, g2, a, b) in enumerate(squares):
        try:
            pf1, pf2 = polar_factorize(g1), polar_factorize(g2)
            d = diagonalize(pf1.extent_reflection,
                            compose_adjunctions(pf1.intent_coreflection, b),
                            compose_adjunctions(a, pf2.extent_reflection),
                            pf2.intent_coreflection)
            if not same_adjunction(compose_adjunctions(pf1.extent_reflection, d),
                                   compose_adjunctions(a, pf2.extent_reflection)):
                failures.append(f"square {idx}: diagonal fails the e-side equation")
            if not same_adjunction(compose_adjunctions(d, pf2.intent_coreflection),
                                   compose_adjunctions(pf1.intent_coreflection, b)):
                failures.append(f"square {idx}: diagonal fails the m-side equation")
        except Exception as exc:  # noqa: BLE001
            failures.append(f"square {idx}: {exc}")
        report.cases += 1


def _closed_under_composition(pairs) -> list[str]:
    """Where a composite of two reflections, or of two coreflections, leaves its class."""
    return [f"{name} not closed under composition" for f, g in pairs
            for name, is_in in (("E", is_reflection), ("M", is_coreflection))
            if is_in(f) and is_in(g) and not is_in(compose_adjunctions(f, g))]


def _lattice_transfer_failures(g: Adjunction) -> list[str]:
    """Push joins and meets through a reflection out of a complete lattice.

    For every target subset Y: join_B(Y) = left(join_A(right[Y])) and
    meet_B(Y) = left(meet_A(right[Y])); also right(join_B Y) is the closure
    of join_A(right[Y]) and right(meet_B Y) = meet_A(right[Y]).
    """
    if not is_reflection(g):
        return ["not a reflection"]
    failures = []
    src, tgt = g.source, g.target
    closure = g.left.then(g.right).func.table
    for ybits in range(1 << tgt.size):
        y = Subset(tgt.carrier, ybits)
        image = Subset(src.carrier, image_bits(g.right.func, ybits))
        join_a = poset_join(src, image)
        meet_a = poset_meet(src, image)
        join_b = poset_join(tgt, y)
        meet_b = poset_meet(tgt, y)
        if None in (join_a, meet_a, join_b, meet_b):
            failures.append(f"missing bound for subset {ybits:#x}")
            continue
        if g.left_idx(join_a) != join_b:
            failures.append(f"join transfer fails for subset {ybits:#x}")
        if g.left_idx(meet_a) != meet_b:
            failures.append(f"meet transfer fails for subset {ybits:#x}")
        if g.right_idx(join_b) != closure[join_a]:
            failures.append(f"right-of-join identity fails for subset {ybits:#x}")
        if g.right_idx(meet_b) != meet_a:
            failures.append(f"right-of-meet identity fails for subset {ybits:#x}")
    return failures


@functools.cache
def _probe_orders() -> tuple[tuple[Preorder, list[int]], ...]:
    """Every preorder on at most two elements, with its class table."""
    return tuple((c, _class_table(c)) for c in _all_preorders(2))


def _is_pseudo_epimorphism(e: MonotoneMap) -> bool:
    """Bounded check: no parallel pair into a probe preorder merges under e.

    Probes range over all preorders on at most two elements, so this refutes
    pseudo-epiness when a small counterexample exists.  Maps are
    pointwise equivalent when their class tables agree, so each probe is one
    pass that files each map's class table under that of its composite, and
    fails when one key meets two.
    """
    et = e.func.table
    for c, cls in _probe_orders():
        seen = {}
        for f in all_monotone_maps(e.target, c):
            t = tuple(cls[x] for x in f.func.table)
            if seen.setdefault(tuple(t[a] for a in et), t) != t:
                return False
    return True


def _is_pseudo_monomorphism(m: MonotoneMap) -> bool:
    """Bounded dual check against parallel pairs out of a probe preorder."""
    mt, src, tgt = m.func.table, _class_table(m.source), _class_table(m.target)
    for c, _ in _probe_orders():
        seen = {}
        for f in all_monotone_maps(c, m.source):
            t = tuple(src[x] for x in f.func.table)
            if seen.setdefault(tuple(tgt[mt[x]] for x in f.func.table), t) != t:
                return False
    return True


def _involution_failures(f: Adjunction, g: Adjunction) -> list[str]:
    """``involution`` is involutive on the composable pair f, g and reverses its composite."""
    failures = [f"involution is not involutive on the {name} adjunction"
                for name, h in (("first", f), ("second", g))
                if not same_adjunction(involution(involution(h)), h)]
    if not same_adjunction(involution(compose_adjunctions(f, g)),
                           compose_adjunctions(involution(g), involution(f))):
        failures.append("involution does not reverse composition")
    return failures


def galois_suite(seed: int, cases: int) -> LawReport:
    rng = random.Random(seed)
    report = LawReport("galois")

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

    # factor-then-compose and compose-then-factor round trips, then squares
    _equivalence_laws(
        report, [random_context_adjunction(rng, 3) for _ in range(max(cases // 10, 5))],
        _squares_from_infomorphisms(rng, 5))

    # the factorization system (reflections, coreflections, polar_factorize):
    # isos, chosen factorizations, composition closure
    for _ in range(3):
        p = random_poset(rng, 4)
        ident = identity_adjunction(p)
        report.check(is_reflection(ident) and is_coreflection(ident),
                     "isomorphisms belong to both classes")
        g = derivation(order_as_classification(p))
        pf = polar_factorize(g)
        report.check(is_reflection(pf.extent_reflection) and is_coreflection(pf.intent_coreflection)
                     and same_adjunction(recompose(pf), g),
                     "harness validates the chosen factorization")
    e_pairs = []
    m_pairs = []
    for _ in range(4):
        g = random_context_adjunction(rng, 3)
        pf = polar_factorize(g)
        axis = pf.axis
        mid = rng.randrange(axis.size)
        e_pairs.append((pf.extent_reflection, upset_reflection(axis, mid)))
        m_pairs.append((downset_coreflection(axis, mid), pf.intent_coreflection))
    report.check(not _closed_under_composition(e_pairs), "reflections compose")
    report.check(not _closed_under_composition(m_pairs), "coreflections compose")

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
        fails = _lattice_transfer_failures(pf.extent_reflection)
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
        legs = [f.func.table for f in all_monotone_maps(c, chain2)]
        # every map into the product, by its two legs, once per cone source
        mediated = [(h.then(prod.proj0).func.table, h.then(prod.proj1).func.table)
                    for h in all_monotone_maps(c, prod.order)]
        for f1 in legs:
            for f2 in legs:
                count = mediated.count((f1, f2))
                report.check(count == 1, "product mediator count {} for a cone", count)
    one = terminal()
    for c in [chain2, Preorder.discrete(_letters("d", 3))]:
        report.check(len(list(all_monotone_maps(c, one))) == 1,
                     "terminal object has exactly one incoming map")
    ident = MonotoneMap.identity(chain2)
    sub, _incl = equalizer(ident, ident)
    report.check(sub.size == chain2.size, "equalizer of equal maps is everything")

    # uniqueness of diagonals by exhaustive search on tiny axes
    small = [pf for pf in (polar_factorize(random_context_adjunction(rng, 2)) for _ in range(8))
             if pf.axis.size <= 3]
    for pf in small[:3]:
        pf2 = polar_factorize(recompose(pf))
        count = _diagonal_count(pf.extent_reflection, pf.intent_coreflection,
                                pf2.extent_reflection, pf2.intent_coreflection)
        report.check(count == 1, f"diagonal uniqueness: found {count}")

    # the polar legs of the same small adjunctions, probed at size 2
    for pf in small:
        report.check(_is_pseudo_epimorphism(pf.extent_reflection.left),
                     "extent reflection's left map is not pseudo-epi")
        report.check(_is_pseudo_monomorphism(pf.intent_coreflection.left),
                     "intent coreflection's left map is not pseudo-mono")

    # involution on polar factorizations
    rng_inv = random.Random(seed + 1)
    for _ in range(3):
        pf = polar_factorize(random_context_adjunction(rng_inv, 3))
        fails = _involution_failures(pf.extent_reflection, pf.intent_coreflection)
        report.check(not fails, "involution on a polar factorization: {}", fails)

    # the bimodule embeddings invert bimodule_of_map on the 4-element power lattice
    square = power_order(_letters("h", 2))
    for f in random.Random(seed + 2).sample(list(all_monotone_maps(square, square)), 4):
        table = f.func.table
        report.check(bimodule_01_embedding(bimodule_of_map(f, "forward")).func.table == table,
                     "row meets do not invert the forward bimodule of {}", table)
        report.check(bimodule_10_embedding(bimodule_of_map(f, "reverse")).func.table == table,
                     "column joins do not invert the reverse bimodule of {}", table)

    return report


# -------------------------------------------------------------- clsn suite


def _derivation_equals_bounds(p: Preorder) -> bool:
    """Derivation of the order-as-classification agrees with upper/lower bounds."""
    a = order_as_classification(p)
    for bits in range(1 << p.size):
        upper, lower = bounds(p, Subset(p.carrier, bits))
        if a.intent_of(bits) != upper.bits or a.extent_of(bits) != lower.bits:
            return False
    return True


def clsn_suite(seed: int, cases: int) -> LawReport:
    rng = random.Random(seed)
    report = LawReport("clsn")

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
        report.check(_derivation_equals_bounds(random_preorder(rng, 6)),
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

    return report


# --------------------------------------------------------------- clg suite


def _embedding_failures(lat: ConceptLattice) -> list[str]:
    """iota_embed is the row-meet embedding of the instance-of bimodule and
    tau_embed the column-join embedding of the of-type bimodule, with both
    relations read off the concepts' extents and intents."""
    concepts = lat.lattice.carrier
    instance_of = transpose(Relation(concepts, lat.instances, lat.extents))
    of_type = Relation(concepts, lat.types, lat.intents)
    iota = bimodule_01_embedding(
        OrderBimodule(Preorder.discrete(lat.instances), lat.lattice, instance_of)).func.table
    tau = bimodule_10_embedding(
        OrderBimodule(lat.lattice, Preorder.discrete(lat.types), of_type)).func.table
    return [f"{name} {got} is not the {kind} embedding {want} of the {module} bimodule"
            for name, got, kind, want, module in (
                ("iota_embed", lat.iota_embed.table, "row-meet", iota, "instance-of"),
                ("tau_embed", lat.tau_embed.table, "column-join", tau, "of-type")) if got != want]


def clg_suite(seed: int, cases: int) -> LawReport:
    rng = random.Random(seed)
    report = LawReport("clg")

    for _ in range(cases):
        a = random_classification(rng, 5)
        lat = concept_lattice(a)
        report.check(classification_of(lat) == a, "clsn o clg is the identity")
        iso = lattice_roundtrip_iso(lat)
        report.check(iso.table == tuple(range(lat.size)),
                     "round-trip iso is the identity on generated lattices")
        members = random_subset(rng, lat.lattice.carrier)
        join_k, meet_k = lattice_joins_meets(lat, members)
        report.check(join_k == poset_join(lat.lattice, members), "join formula matches search")
        report.check(meet_k == poset_meet(lat.lattice, members), "meet formula matches search")

    for _ in range(max(2, cases // 50)):
        a = random_classification(rng, 4)
        lat = concept_lattice(a)
        report.check(not validate_concept_lattice(lat), "generated lattice passes all invariants")
        ext, inten = lat.extent_reflection, lat.intent_coreflection
        report.check(is_reflection(ext), "extent adjunction is a reflection")
        report.check(is_coreflection(inten), "intent adjunction is a coreflection")
        report.check(same_adjunction(compose_adjunctions(ext, inten), derivation(a)),
                     "the concept lattice factors derivation")
        for name, adj in (("extent reflection", ext), ("intent coreflection", inten)):
            try:
                check_adjunction(adj.left, adj.right)
                report.check(True, "")
            except ConceptuaError as exc:
                report.check(False, f"{name}: {exc}")

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
        ok = True
        for k, (closed_bits, _) in enumerate(pf_b.bipoles):
            via_d = pf_a.bipoles[d.left.func.table[k]][0]
            lattice_k = h.target.extents.index(closed_bits)
            via_h = h.source.extents[h.connection.left.func.table[lattice_k]]
            if via_d != via_h:
                ok = False
        report.check(ok, "connection equals the diagonal of the derivation square")

    # the instance and type embeddings are bimodule embeddings
    rng_embed = random.Random(seed + 1)
    for _ in range(3):
        fails = _embedding_failures(concept_lattice(random_classification(rng_embed, 4)))
        report.check(not fails, "bimodule embeddings: {}", fails)

    return report


# -------------------------------------------------------- institution suite


def _category_law_failures(objects, sig_morphs, morphs) -> list[str]:
    """The category laws of a flattened theory category; the first failure only.

    Associativity is decided on the table of signature-morphism composites:
    every composable triple of signature morphisms underlies a triple of
    morphisms, through (t, N) -> (u, full mask), so the table is exhaustive.
    """
    morph_set = set(morphs)
    sig_key = {(si, ti, sm.map.table): idx for idx, (si, ti, sm) in enumerate(sig_morphs)}
    # the listed index of each composable pair's composite, else None
    composite = {(i1, i2): sig_key.get((s1, t2, sm1.then(sm2).map.table))
                 for i1, (s1, t1, sm1) in enumerate(sig_morphs)
                 for i2, (s2, t2, sm2) in enumerate(sig_morphs) if t1 == s2}
    identity = {si: idx for idx, (si, ti, sm) in enumerate(sig_morphs)
                if si == ti and sm.map.table == tuple(range(sm.map.source.size))}
    for o, (si, _) in enumerate(objects):
        if (o, o, identity.get(si)) not in morph_set:
            return [f"missing identity on object {o}"]
    by_source: dict[int, list[tuple[int, int, int]]] = {}
    for m in morphs:
        by_source.setdefault(m[0], []).append(m)
    for m1 in morphs:
        for m2 in by_source.get(m1[1], ()):
            comp = composite.get((m1[2], m2[2]))
            if comp is None:
                return [f"morphism list not closed under composition: {m1} then {m2}"]
            if (m1[0], m2[1], comp) not in morph_set:
                return [f"composite of {m1} and {m2} is missing"]
    if any(composite.get((c12, i3)) != composite.get((i1, c23))
           for (i1, i2), c12 in composite.items()
           for (j2, i3), c23 in composite.items() if j2 == i2):
        return ["associativity fails"]
    return []


def institution_suite(seed: int, cases: int) -> LawReport:
    report = LawReport("institution")

    sigs = [Signature.of(*"pq"[:n]) for n in range(3)]
    sigmas = [SignatureMorphism(s1, s2, FinFunction(s1.vars, s2.vars, table))
              for s1 in sigs for s2 in sigs
              for table in itertools.product(range(s2.size), repeat=s1.size)]
    for sigma in sigmas:
        rep = check_satisfaction_condition(sigma, depth=3)
        report.check(rep.ok, "satisfaction condition for table {}: {}",
                     sigma.map.table, rep.failures[0] if rep.failures else "")

    for n in range(3):
        fib = theory_fiber(Signature.of(*"pqr"[:n]))
        report.check(fib.size == 2 ** (2 ** n), f"fiber size at n={n}")
        report.check(is_complete_lattice(fib), f"fiber at n={n} is a complete lattice")

    for sigma in sigmas:
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
    report.failures.extend(_category_law_failures(cat.objects, cat.sig_morphisms, cat.morphisms))

    base = Signature.of("q")
    sa, sb = Signature.of("p", "q"), Signature.of("q", "r")
    span = MergeSpan(base,
                     SignatureMorphism.of(base, sa, {"q": "q"}),
                     SignatureMorphism.of(base, sb, {"q": "q"}),
                     TheoryObject.of_sentence(sa, Var("q")),
                     TheoryObject.of_sentence(sb, And(Var("q"), Var("r"))))
    res = merge_theories(span)
    report.check(res.signature.size == 3, "merge demo pushout has three variables")
    got = set(res.theory.model_class.labels())
    report.check(got == {"{C.q,R.r}", "{L.p,C.q,R.r}"},
                 f"merge demo model class: {sorted(got)}")
    report.check(not res.inconsistent, "merge demo is consistent")
    fails = verify_pushout_universal(span, res)
    report.check(not fails, f"pushout universal property: {fails[:1]}")

    sigma = SignatureMorphism.of(Signature.of("p"), Signature.of("p", "q"), {"p": "p"})
    sty = style_interconvert(sigma, 3)
    report.check(sty.all_pass and sty.agree, f"four styles pass together: {sty.witnesses}")

    return report


SUITES = {
    "finrel": finrel_suite,
    "galois": galois_suite,
    "clsn": clsn_suite,
    "clg": clg_suite,
    "institution": institution_suite,
}


def run_suite(name: str, seed: int, cases: int) -> list[LawReport]:
    """Run one suite, or all of them in order, and time each."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose all|{'|'.join(SUITES)}")
    reports = []
    for key in SUITES if name == "all" else [name]:
        start = time.perf_counter()
        report = SUITES[key](seed, cases)
        report.seconds = time.perf_counter() - start
        reports.append(report)
    return reports


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
