"""Order adjunctions (Galois connections) and their polar factorization.

The centrepiece is ``polar_factorize``: every adjunction between posets
splits as a reflection onto its axis of bipoles followed by a coreflection,
and ``diagonalize`` fills any reflection/coreflection square uniquely.
"""

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .errors import AdjunctionError, CarrierMismatchError
from .finrel import FinSet, Relation, Subset, _trusted, image_bits, preimage_rows
from .order import (
    MonotoneMap,
    Poset,
    Preorder,
    _monotone,
    _restricted_rows,
    all_monotone_maps,
    opposite,
    poset_join,
    poset_meet,
    same_map,
    same_order,
)

__all__ = [
    "Adjunction",
    "check_adjunction",
    "identity_adjunction",
    "compose_adjunctions",
    "same_adjunction",
    "involution",
    "ClosureInterior",
    "closure_interior",
    "is_reflection",
    "is_coreflection",
    "PolarFactorization",
    "polar_factorize",
    "recompose",
    "diagonalize",
    "enumerate_adjunctions",
    "connect_factorizations",
    "FactorizationSystem",
    "polar_factorization_system",
    "upset_reflection",
    "downset_coreflection",
    "factorization_equivalence_check",
    "check_reflection_lattice_transfer",
]


@dataclass(frozen=True)
class Adjunction:
    """An antiparallel pair of monotone maps with left(a) <= b iff a <= right(b)."""

    source: Preorder
    target: Preorder
    left: MonotoneMap
    right: MonotoneMap

    def left_idx(self, i: int) -> int:
        return self.left.func.table[i]

    def right_idx(self, j: int) -> int:
        return self.right.func.table[j]


def check_adjunction(left: MonotoneMap, right: MonotoneMap) -> Adjunction:
    """Validate the fundamental condition; raise with a witness.

    At each a the b with left(a) <= b form the target row of left(a), and
    the b with a <= right(b) the preimage of a's row under right; the
    condition holds at a when the two agree.  By reflexivity it gives the
    unit (b = left(a)) and the counit (a = right(b)), so neither is checked.
    """
    if not same_order(left.source, right.target) or not same_order(left.target, right.source):
        raise CarrierMismatchError("adjoint candidates are not antiparallel")
    src, tgt = left.source, left.target
    src_rows, tgt_rows = src.leq.rows, tgt.leq.rows
    lt = left.func.table
    for a, pulled in enumerate(preimage_rows(right.func, src_rows)):
        if diff := tgt_rows[lt[a]] ^ pulled:
            b = (diff & -diff).bit_length() - 1
            lhs = bool(tgt_rows[lt[a]] >> b & 1)
            raise AdjunctionError(
                "fundamental condition fails at "
                f"({src.carrier.elements[a]}, {tgt.carrier.elements[b]}): "
                f"left(a) <= b is {lhs} but a <= right(b) is {not lhs}"
            )
    return Adjunction(src, tgt, left, right)


def identity_adjunction(p: Preorder) -> Adjunction:
    ident = MonotoneMap.identity(p)
    return Adjunction(p, p, ident, ident)


def compose_adjunctions(f: Adjunction, g: Adjunction) -> Adjunction:
    """Lefts compose forward, rights backward."""
    if not same_order(f.target, g.source):
        raise CarrierMismatchError("composing adjunctions with mismatched boundary")
    return Adjunction(f.source, g.target, f.left.then(g.left), g.right.then(f.right))


def same_adjunction(f: Adjunction, g: Adjunction) -> bool:
    """Pointwise equality of both underlying functions."""
    return same_map(f.left, g.left) and same_map(f.right, g.right)


def involution(f: Adjunction) -> Adjunction:
    """Swap source/target and left/right, reversing both orders (adjoint by duality)."""
    src, tgt = opposite(f.target), opposite(f.source)
    return Adjunction(src, tgt, _monotone(src, tgt, f.right.func.table),
                      _monotone(tgt, src, f.left.func.table))


@dataclass(frozen=True)
class ClosureInterior:
    closure: MonotoneMap
    interior: MonotoneMap
    closed: Poset
    open: Poset
    closed_inclusion: MonotoneMap
    open_inclusion: MonotoneMap
    closed_indices: tuple[int, ...]
    open_indices: tuple[int, ...]


def _fixed_point_subposet(p: Preorder, fixed: Sequence[int]) -> tuple[Poset, MonotoneMap]:
    """The order restricted to ``fixed``, with its inclusion.

    A restriction of a poset is a poset and an inclusion is monotone, so
    neither is re-validated; a preorder's restriction is classified.
    """
    carrier = FinSet(tuple(p.carrier.elements[i] for i in fixed))
    leq = Relation(carrier, carrier, _restricted_rows(p, fixed))
    sub = _trusted(Poset, carrier=carrier, leq=leq) if p.is_poset() else Poset(carrier, leq)
    return sub, _monotone(sub, p, fixed)


def closure_interior(g: Adjunction) -> ClosureInterior:
    """Closure (left then right) and interior (right then left) with their fixed posets."""
    if not g.source.is_poset() or not g.target.is_poset():
        raise ValueError("closure/interior require poset boundaries")
    closure = g.left.then(g.right)
    interior = g.right.then(g.left)
    closed_idx = tuple(i for i in range(g.source.size) if closure.func.table[i] == i)
    open_idx = tuple(j for j in range(g.target.size) if interior.func.table[j] == j)
    closed, closed_incl = _fixed_point_subposet(g.source, closed_idx)
    opened, open_incl = _fixed_point_subposet(g.target, open_idx)
    return ClosureInterior(closure, interior, closed, opened, closed_incl, open_incl,
                           closed_idx, open_idx)


def is_reflection(g: Adjunction) -> bool:
    """Interior is the identity on the target."""
    return all(g.left_idx(g.right_idx(b)) == b for b in range(g.target.size))


def is_coreflection(g: Adjunction) -> bool:
    """Closure is the identity on the source."""
    return all(g.right_idx(g.left_idx(a)) == a for a in range(g.source.size))


@dataclass(frozen=True)
class PolarFactorization:
    original: Adjunction
    axis: Poset
    extent_reflection: Adjunction
    intent_coreflection: Adjunction
    bipoles: tuple[tuple[int, int], ...]


def polar_factorize(g: Adjunction) -> PolarFactorization:
    """Split g into a reflection onto the poset of bipoles and a coreflection.

    A bipole is a pair (a, b) with a closed, b open, and left(a) = b; bipoles
    are ordered by their closed component (equivalently by their open one) and
    enumerated by ascending source index, which fixes the axis labelling.

    The axis is the closed sub-poset relabelled, and its four maps are the
    closure, the inclusion, left on closed elements and right, each followed
    or preceded by the order embedding of the closed elements; all are
    monotone by construction, so none is re-checked.
    """
    ci = closure_interior(g)
    bipoles = tuple((a, g.left_idx(a)) for a in ci.closed_indices)
    src_el, tgt_el = g.source.carrier.elements, g.target.carrier.elements
    labels = tuple(f"({src_el[a]},{tgt_el[b]})" for a, b in bipoles)
    axis_carrier = FinSet(labels)
    axis = _trusted(Poset, carrier=axis_carrier,
                    leq=Relation(axis_carrier, axis_carrier, ci.closed.leq.rows))

    pos_of_closed = {a: k for k, (a, _) in enumerate(bipoles)}
    embed_src = _monotone(g.source, axis,
                          (pos_of_closed[c] for c in ci.closure.func.table))
    project_src = _monotone(axis, g.source, (a for a, _ in bipoles))
    project_tgt = _monotone(axis, g.target, (b for _, b in bipoles))
    embed_tgt = _monotone(g.target, axis, (pos_of_closed[a] for a in g.right.func.table))

    extent_reflection = Adjunction(g.source, axis, embed_src, project_src)
    intent_coreflection = Adjunction(axis, g.target, project_tgt, embed_tgt)
    return PolarFactorization(g, axis, extent_reflection, intent_coreflection, bipoles)


def recompose(pf: PolarFactorization) -> Adjunction:
    return compose_adjunctions(pf.extent_reflection, pf.intent_coreflection)


def diagonalize(e: Adjunction, s: Adjunction, r: Adjunction, m: Adjunction) -> Adjunction:
    """Unique diagonal for a square e o s = r o m with e a reflection, m a coreflection.

    Both defining formulas are computed for each adjoint and must agree:
    the left is s-left then m-right (equally e-right then r-left), the right
    is r-right then e-left (equally m-left then s-right).
    """
    if not same_order(e.source, r.source) or not same_order(s.target, m.target):
        raise CarrierMismatchError("square corners do not match")
    if not is_reflection(e):
        raise AdjunctionError("e is not a reflection")
    if not is_coreflection(m):
        raise AdjunctionError("m is not a coreflection")
    if not same_adjunction(compose_adjunctions(e, s), compose_adjunctions(r, m)):
        raise AdjunctionError("square does not commute")
    d_left = s.left.then(m.right)
    d_left_alt = e.right.then(r.left)
    d_right = r.right.then(e.left)
    d_right_alt = m.left.then(s.right)
    if not same_map(d_left, d_left_alt) or not same_map(d_right, d_right_alt):
        raise AdjunctionError("diagonal formulas disagree; square data is inconsistent")
    # Checked: the square is caller-built data, and plain ``Adjunction`` values are unchecked.
    return check_adjunction(d_left, d_right)


def enumerate_adjunctions(p: Preorder, q: Preorder) -> Iterator[Adjunction]:
    """All adjunctions p <=> q among the monotone map pairs (exponential).

    A pair satisfies the fundamental condition when, for every a, the target
    row of left(a) equals the preimage of a's row under right; so each right
    is filed under that tuple of preimages, and each left looks up its rows.
    """
    rights: dict[tuple[int, ...], list[MonotoneMap]] = {}
    for right in all_monotone_maps(q, p):
        rights.setdefault(tuple(preimage_rows(right.func, p.leq.rows)), []).append(right)
    q_rows = q.leq.rows
    for left in all_monotone_maps(p, q):
        for right in rights.get(tuple(q_rows[t] for t in left.func.table), ()):
            yield Adjunction(p, q, left, right)


def connect_factorizations(pf1: PolarFactorization, pf2: PolarFactorization) -> Adjunction:
    """The unique axis iso between two factorizations of pointwise-equal adjunctions."""
    return diagonalize(pf1.extent_reflection, pf1.intent_coreflection,
                       pf2.extent_reflection, pf2.intent_coreflection)


@dataclass(frozen=True)
class FactorizationSystem:
    """Morphism classes with a chosen factorization; laws are checked on demand."""

    is_e: Callable[[Adjunction], bool]
    is_m: Callable[[Adjunction], bool]
    factor: Callable[[Adjunction], PolarFactorization]

    def check_factor(self, g: Adjunction) -> list[str]:
        failures = []
        pf = self.factor(g)
        if not self.is_e(pf.extent_reflection):
            failures.append("factor: first part is not in the E class")
        if not self.is_m(pf.intent_coreflection):
            failures.append("factor: second part is not in the M class")
        if not same_adjunction(recompose(pf), g):
            failures.append("factor: parts do not recompose to the original")
        return failures

    def check_isos(self, p: Preorder) -> list[str]:
        failures = []
        ident = identity_adjunction(p)
        if not self.is_e(ident):
            failures.append("identity adjunction not in E")
        if not self.is_m(ident):
            failures.append("identity adjunction not in M")
        return failures

    def check_composition_closure(self, pairs) -> list[str]:
        failures = []
        for f, g in pairs:
            if self.is_e(f) and self.is_e(g) and not self.is_e(compose_adjunctions(f, g)):
                failures.append("E not closed under composition")
            if self.is_m(f) and self.is_m(g) and not self.is_m(compose_adjunctions(f, g)):
                failures.append("M not closed under composition")
        return failures


def polar_factorization_system() -> FactorizationSystem:
    return FactorizationSystem(is_reflection, is_coreflection, polar_factorize)


def upset_reflection(p: Poset, m: int) -> Adjunction:
    """The reflection of a lattice onto the up-set of element m via join with m.

    Requires every join with m to exist (true in any lattice); i v m <= k iff i <= k.
    """
    kept = [i for i in range(p.size) if p.le_idx(m, i)]
    sub, incl = _fixed_point_subposet(p, kept)
    pos = {i: k for k, i in enumerate(kept)}
    table = []
    for i in range(p.size):
        j = poset_join(p, Subset(p.carrier, (1 << i) | (1 << m)))
        if j is None:
            raise ValueError("join with the base element does not exist")
        table.append(pos[j])
    return Adjunction(p, sub, _monotone(p, sub, table), incl)


def downset_coreflection(p: Poset, m: int) -> Adjunction:
    """The coreflection including the down-set of m, with meet as right adjoint."""
    kept = [i for i in range(p.size) if p.le_idx(i, m)]
    sub, incl = _fixed_point_subposet(p, kept)
    pos = {i: k for k, i in enumerate(kept)}
    table = []
    for i in range(p.size):
        j = poset_meet(p, Subset(p.carrier, (1 << i) | (1 << m)))
        if j is None:
            raise ValueError("meet with the base element does not exist")
        table.append(pos[j])
    return Adjunction(sub, p, incl, _monotone(p, sub, table))


def _diagonal_count(e, s, r, m) -> int | None:
    """The number of diagonals d with e;d = r and d;m = s, by exhaustive
    search; None if an axis has more than 4 elements."""
    c1, c2 = e.target, r.target
    if max(c1.size, c2.size) > 4:
        return None
    return sum(1 for d in enumerate_adjunctions(c1, c2)
               if same_adjunction(compose_adjunctions(e, d), r)
               and same_adjunction(compose_adjunctions(d, m), s))


@dataclass
class EquivalenceReport:
    cases_run: int = 0
    squares_run: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def factorization_equivalence_check(cases: Sequence[Adjunction], squares=()) -> EquivalenceReport:
    """Round-trip laws for factor-then-compose and compose-then-factor.

    Each case g is factored and recomposed (must be pointwise identical), the
    recomposite is factored again and the two factorizations must be joined by
    a unique axis isomorphism commuting with the embeddings.  Squares, given
    as (g1, g2, a, b) with a o g2 = g1 o b, exercise functoriality of the
    induced axis adjunctions.
    """
    report = EquivalenceReport()
    for idx, g in enumerate(cases):
        try:
            pf = polar_factorize(g)
            if not same_adjunction(recompose(pf), g):
                report.failures.append(f"case {idx}: factor-then-compose is not the identity")
                continue
            pf2 = polar_factorize(recompose(pf))
            h = connect_factorizations(pf, pf2)
            back = connect_factorizations(pf2, pf)
            n1, n2 = pf.axis.size, pf2.axis.size
            if h.left.then(back.left).func.table != tuple(range(n1)) or \
               back.left.then(h.left).func.table != tuple(range(n2)):
                report.failures.append(f"case {idx}: axis comparison is not an isomorphism")
            if not same_adjunction(compose_adjunctions(pf.extent_reflection, h), pf2.extent_reflection):
                report.failures.append(f"case {idx}: iso does not commute with source embeddings")
            if not same_adjunction(compose_adjunctions(h, pf2.intent_coreflection), pf.intent_coreflection):
                report.failures.append(f"case {idx}: iso does not commute with target embeddings")
            count = _diagonal_count(pf.extent_reflection, pf.intent_coreflection,
                                    pf2.extent_reflection, pf2.intent_coreflection)
            if count not in (None, 1):
                report.failures.append(f"case {idx}: axis iso is not unique")
        except Exception as exc:  # noqa: BLE001 - report, do not abort the sweep
            report.failures.append(f"case {idx}: {exc}")
        report.cases_run += 1

    for idx, (g1, g2, a, b) in enumerate(squares):
        try:
            pf1, pf2 = polar_factorize(g1), polar_factorize(g2)
            d = diagonalize(pf1.extent_reflection,
                            compose_adjunctions(pf1.intent_coreflection, b),
                            compose_adjunctions(a, pf2.extent_reflection),
                            pf2.intent_coreflection)
            if not same_adjunction(compose_adjunctions(pf1.extent_reflection, d),
                                   compose_adjunctions(a, pf2.extent_reflection)):
                report.failures.append(f"square {idx}: diagonal fails the e-side equation")
            if not same_adjunction(compose_adjunctions(d, pf2.intent_coreflection),
                                   compose_adjunctions(pf1.intent_coreflection, b)):
                report.failures.append(f"square {idx}: diagonal fails the m-side equation")
        except Exception as exc:  # noqa: BLE001
            report.failures.append(f"square {idx}: {exc}")
        report.squares_run += 1
    return report


def check_reflection_lattice_transfer(g: Adjunction, sample_cap: int = 4096) -> list[str]:
    """Push joins and meets through a reflection out of a complete lattice.

    For every target subset Y: join_B(Y) = left(join_A(right[Y])) and
    meet_B(Y) = left(meet_A(right[Y])); also right(join_B Y) is the closure
    of join_A(right[Y]) and right(meet_B Y) = meet_A(right[Y]).  All subsets
    are tried when there are at most ``sample_cap`` of them, otherwise a
    sample of that size seeded with 0.
    """
    failures = []
    if not is_reflection(g):
        return ["not a reflection"]
    src, tgt = g.source, g.target
    closure = g.left.then(g.right)
    if tgt.size <= sample_cap.bit_length() - 1:
        candidates = range(1 << tgt.size)
    else:
        import random

        rng = random.Random(0)
        candidates = [rng.getrandbits(tgt.size) for _ in range(sample_cap)]
        candidates.extend([0, (1 << tgt.size) - 1])
    for ybits in candidates:
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
        if g.right_idx(join_b) != closure.func.table[join_a]:
            failures.append(f"right-of-join identity fails for subset {ybits:#x}")
        if g.right_idx(meet_b) != meet_a:
            failures.append(f"right-of-meet identity fails for subset {ybits:#x}")
    return failures
