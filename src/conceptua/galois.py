"""Order adjunctions (Galois connections) and their polar factorization.

The centrepiece is ``polar_factorize``: every adjunction between posets
splits as a reflection onto its axis of bipoles followed by a coreflection,
and ``diagonalize`` fills any reflection/coreflection square uniquely.  The
closed elements and the four maps of the split are read off the adjunction's
two tables, by the one builder the concept lattice's adjunctions use too.
The laws of the factorization are checked by ``verify``'s galois suite.
"""

from collections.abc import Iterator, Sequence

from .errors import AdjunctionError, CarrierMismatchError
from .finrel import FinSet, Relation, Subset, _Value, _trusted, preimage_rows
from .order import (
    MonotoneMap,
    Poset,
    Preorder,
    _monotone,
    _restricted_rows,
    all_monotone_maps,
    opposite,
    poset_join,
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
    "upset_reflection",
    "downset_coreflection",
]


class Adjunction(_Value):
    """An antiparallel pair of monotone maps with left(a) <= b iff a <= right(b)."""

    __match_args__ = ("source", "target", "left", "right")
    __slots__ = __match_args__

    def __init__(self, source: Preorder, target: Preorder, left: MonotoneMap, right: MonotoneMap):
        self._fill(self, source, target, left, right)

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


class ClosureInterior(_Value):
    __match_args__ = ("closure", "interior", "closed_inclusion", "open_inclusion")
    __slots__ = __match_args__

    def __init__(self, closure: MonotoneMap, interior: MonotoneMap,
                 closed_inclusion: MonotoneMap, open_inclusion: MonotoneMap):
        self._fill(self, closure, interior, closed_inclusion, open_inclusion)


def _subposet_inclusion(p: Preorder, kept: Sequence[int]) -> MonotoneMap:
    """The inclusion into p of its order restricted to ``kept``, whose labels it keeps.

    A restriction of a poset is a poset and an inclusion is monotone, so
    neither is re-validated; a preorder's restriction is classified.
    """
    carrier = FinSet(tuple(p.carrier.elements[i] for i in kept))
    leq = Relation(carrier, carrier, _restricted_rows(p, kept))
    return _monotone(_trusted(Poset, carrier, leq) if p.is_poset() else Poset(carrier, leq), p, kept)


def closure_interior(g: Adjunction) -> ClosureInterior:
    """Closure (left then right) and interior (right then left) with the
    inclusions of their fixed points.

    Each inclusion's source is the sub-poset of fixed points, which keeps the
    boundary's labels, and its table lists their indices in ascending order.
    """
    if not g.source.is_poset() or not g.target.is_poset():
        raise ValueError("closure/interior require poset boundaries")
    closure = g.left.then(g.right)
    interior = g.right.then(g.left)
    closed = [i for i, c in enumerate(closure.func.table) if c == i]
    opened = [j for j, c in enumerate(interior.func.table) if c == j]
    return ClosureInterior(closure, interior, _subposet_inclusion(g.source, closed),
                           _subposet_inclusion(g.target, opened))


def is_reflection(g: Adjunction) -> bool:
    """Interior is the identity on the target."""
    return all(g.left_idx(g.right_idx(b)) == b for b in range(g.target.size))


def is_coreflection(g: Adjunction) -> bool:
    """Closure is the identity on the source."""
    return all(g.right_idx(g.left_idx(a)) == a for a in range(g.source.size))


class PolarFactorization(_Value):
    __match_args__ = ("original", "axis", "extent_reflection", "intent_coreflection", "bipoles")
    __slots__ = __match_args__

    def __init__(self, original: Adjunction, axis: Poset, extent_reflection: Adjunction,
                 intent_coreflection: Adjunction, bipoles: tuple[tuple[int, int], ...]):
        self._fill(self, original, axis, extent_reflection, intent_coreflection, bipoles)


def _polar_maps(g: Adjunction, axis: Poset, closed: Sequence[int]) -> tuple[Adjunction, Adjunction]:
    """The reflection of g's source onto ``axis`` and the coreflection out of it,
    given the closed source elements in axis order: the closure, the inclusion,
    left on closed elements and right, monotone by construction, so unchecked."""
    left, right, src, tgt = g.left.func.table, g.right.func.table, g.source, g.target
    pos = {a: k for k, a in enumerate(closed)}
    return (Adjunction(src, axis, _monotone(src, axis, (pos[right[b]] for b in left)),
                       _monotone(axis, src, closed)),
            Adjunction(axis, tgt, _monotone(axis, tgt, (left[a] for a in closed)),
                       _monotone(tgt, axis, (pos[a] for a in right))))


def polar_factorize(g: Adjunction) -> PolarFactorization:
    """Split g into a reflection onto the poset of bipoles and a coreflection.

    A bipole is a pair (a, b) with a closed, b open, and left(a) = b; bipoles
    are ordered by their closed component (equivalently by their open one) and
    enumerated by ascending source index, which fixes the axis labelling.

    The closed elements are read off the tables (right(left(a)) = a), and the
    axis is the source order restricted to them, relabelled by bipole.
    """
    if not g.source.is_poset() or not g.target.is_poset():
        raise ValueError("closure/interior require poset boundaries")
    left, right = g.left.func.table, g.right.func.table
    closed = tuple(a for a, b in enumerate(left) if right[b] == a)
    bipoles = tuple((a, left[a]) for a in closed)
    src_el, tgt_el = g.source.carrier.elements, g.target.carrier.elements
    axis_carrier = FinSet(tuple(f"({src_el[a]},{tgt_el[b]})" for a, b in bipoles))
    axis = _trusted(Poset, axis_carrier,
                    Relation(axis_carrier, axis_carrier, _restricted_rows(g.source, closed)))
    return PolarFactorization(g, axis, *_polar_maps(g, axis, closed), bipoles)


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


def _join_reflection(p: Preorder, m: int, bound: str) -> Adjunction:
    """The reflection of p onto the up-set of m, i -> i v m.  The error calls
    a missing join ``bound``: "meet" when p is the opposite of the caller's order."""
    kept = [i for i in range(p.size) if p.le_idx(m, i)]
    incl = _subposet_inclusion(p, kept)
    sub = incl.source
    pos = {i: k for k, i in enumerate(kept)}
    table = []
    for i in range(p.size):
        j = poset_join(p, Subset(p.carrier, (1 << i) | (1 << m)))
        if j is None:
            raise ValueError(f"{bound} with the base element does not exist")
        table.append(pos[j])
    return Adjunction(p, sub, _monotone(p, sub, table), incl)


def upset_reflection(p: Poset, m: int) -> Adjunction:
    """The reflection of a lattice onto the up-set of element m via join with m.

    Requires every join with m to exist (true in any lattice); i v m <= k iff i <= k.
    """
    return _join_reflection(p, m, "join")


def downset_coreflection(p: Poset, m: int) -> Adjunction:
    """The coreflection including the down-set of m, with meet as right adjoint:
    the involution of the up-set reflection of the opposite order."""
    return involution(_join_reflection(opposite(p), m, "meet"))
