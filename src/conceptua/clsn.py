"""Classifications (formal contexts) and infomorphisms.

A classification relates instances to types; an infomorphism is a
contravariant map pair whose fundamental condition makes classification
invariant under change of notation.  Derivation packages the two derivation
operators of a classification as a Galois connection between power lattices.
"""

import itertools

from .errors import CarrierMismatchError, SizeLimitError
from .finrel import (
    FinFunction,
    FinSet,
    Relation,
    _Value,
    _cached,
    derive_bits,
    image_bits,
    meet_table,
    preimage_rows,
    transpose,
)
from .galois import Adjunction
from .order import (
    Preorder,
    _monotone,
    check_carrier_bound,
    power_order,
)

__all__ = [
    "Classification",
    "Infomorphism",
    "derivation",
    "check_infomorphism",
    "InfomorphismReport",
    "compose_infomorphisms",
    "identity_infomorphism",
    "order_as_classification",
    "exponent",
    "multiply",
    "enumerate_infomorphisms",
    "involution_classification",
]


class Classification(_Value):
    """Instances, types, and an incidence relation between them."""

    __match_args__ = ("instances", "types", "incidence")
    # The instance dict holds only the cached ``_concept_bits`` and ``concepts``.
    __slots__ = (*__match_args__, "__dict__")

    def __init__(self, instances: FinSet, types: FinSet, incidence: Relation):
        self._fill(self, instances, types, incidence)
        self.__post_init__()

    def __post_init__(self):
        if self.incidence.source != self.instances or self.incidence.target != self.types:
            raise CarrierMismatchError("incidence carriers do not match instances/types")

    @classmethod
    def of(cls, instances, types, pairs=()) -> "Classification":
        inst = instances if isinstance(instances, FinSet) else FinSet(tuple(instances))
        typ = types if isinstance(types, FinSet) else FinSet(tuple(types))
        return cls(inst, typ, Relation.of(inst, typ, pairs))

    def intent_of(self, x: int) -> int:
        """The types shared by every instance of the bitset ``x``."""
        inc = self.incidence
        return derive_bits(inc.rows, inc.columns, x, self.types.full_mask)

    def extent_of(self, y: int) -> int:
        """The instances of every type of the bitset ``y``."""
        inc = self.incidence
        return derive_bits(inc.columns, inc.rows, y, self.instances.full_mask)

    @_cached
    def _concept_bits(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The formal concepts as two int tuples, (extents, intents), in
        lectic order of extents (``clg._concepts_lectic``), enumerated on
        first read and kept.

        Not a field, so equality and hashing see only the incidence.  A
        failed enumeration (past the size bound) keeps nothing.
        """
        from .clg import _concepts_lectic
        return _concepts_lectic(self)

    @_cached
    def concepts(self) -> tuple:
        """The formal concepts as ``FormalConcept`` values (``clg.concepts_of``),
        built from ``_concept_bits`` on first read and kept."""
        from .clg import _formal_concepts
        return _formal_concepts(self.instances, self.types, *self._concept_bits)


def involution_classification(a: Classification) -> Classification:
    """Swap instances with types and transpose the incidence."""
    return Classification(a.types, a.instances, transpose(a.incidence))


def derivation(a: Classification) -> Adjunction:
    """deriv(a) : power(instances) <=> power(types), the type side by reverse inclusion.

    Both derivation operators are antitone in the plain inclusion orders, so
    monotone into the reversed type side, and they form a Galois connection
    for every incidence, so nothing is re-checked.  Each table entry is one
    AND over the incidence rows or columns (``meet_table``).
    """
    check_carrier_bound(a.instances.size, "derivation: the instance carrier")
    check_carrier_bound(a.types.size, "derivation: the type carrier")
    source = power_order(a.instances)
    target = power_order(a.types, reverse=True)
    left = _monotone(source, target, meet_table(a.incidence.rows, a.types.full_mask))
    right = _monotone(target, source, meet_table(a.incidence.columns, a.instances.full_mask))
    return Adjunction(source, target, left, right)


class Infomorphism(_Value):
    """Contravariant map pair source <=> target: instances backward, types forward."""

    __match_args__ = ("source", "target", "inst_map", "typ_map")
    __slots__ = __match_args__

    def __init__(self, source: Classification, target: Classification, inst_map: FinFunction,
                 typ_map: FinFunction):
        self._fill(self, source, target, inst_map, typ_map)
        self.__post_init__()

    def __post_init__(self):
        if self.inst_map.source != self.target.instances or self.inst_map.target != self.source.instances:
            raise CarrierMismatchError("instance map must go target instances -> source instances")
        if self.typ_map.source != self.source.types or self.typ_map.target != self.target.types:
            raise CarrierMismatchError("type map must go source types -> target types")

    def fundamental_witness(self) -> tuple[str, str] | None:
        """First (target instance, source type) pair violating the condition,
        row by row: bit y of the source row of inst(x) against bit typ(y) of
        the target row of x."""
        a, b = self.source, self.target
        a_rows, b_rows, typ = a.incidence.rows, b.incidence.rows, self.typ_map.table
        for x, fx in enumerate(self.inst_map.table):
            a_row, b_row = a_rows[fx], b_rows[x]
            for y, ty in enumerate(typ):
                if a_row >> y & 1 != b_row >> ty & 1:
                    return b.instances.elements[x], a.types.elements[y]
        return None

    def is_valid(self) -> bool:
        return self.fundamental_witness() is None


def identity_infomorphism(a: Classification) -> Infomorphism:
    return Infomorphism(a, a, FinFunction.identity(a.instances), FinFunction.identity(a.types))


def compose_infomorphisms(f: Infomorphism, g: Infomorphism) -> Infomorphism:
    """f : A <=> B then g : B <=> C, instance maps composing contravariantly."""
    if f.target != g.source:
        raise CarrierMismatchError("infomorphisms are not composable")
    return Infomorphism(f.source, g.target, g.inst_map.then(f.inst_map), f.typ_map.then(g.typ_map))


class InfomorphismReport(_Value):
    __match_args__ = ("relation_version", "morphism_version", "adjunction_version", "witness")
    __slots__ = __match_args__

    def __init__(self, relation_version: bool, morphism_version: bool, adjunction_version: bool,
                 witness: tuple[str, str] | None):
        self._fill(self, relation_version, morphism_version, adjunction_version, witness)

    @property
    def valid(self) -> bool:
        return self.relation_version and self.morphism_version and self.adjunction_version

    @property
    def versions_agree(self) -> bool:
        return self.relation_version == self.morphism_version == self.adjunction_version


def check_infomorphism(f: Infomorphism) -> InfomorphismReport:
    """Evaluate the relation, morphism, and adjunction versions independently."""
    a, b = f.source, f.target
    witness = f.fundamental_witness()
    relation_ok = witness is None

    inst_map, typ_map = f.inst_map, f.typ_map
    # Extents pull back along the instance map, intents along the type map.
    b_cols, a_rows = b.incidence.columns, a.incidence.rows
    morphism_ok = (
        preimage_rows(inst_map, a.incidence.columns) == [b_cols[t] for t in typ_map.table]
        and preimage_rows(typ_map, b.incidence.rows) == [a_rows[s] for s in inst_map.table])

    return InfomorphismReport(relation_ok, morphism_ok, _square_commutes(f), witness)


def _square_commutes(f: Infomorphism) -> bool:
    """The adjunction version: the derivation square commutes on every
    subset of each side.  Both of its paths send unions to intersections,
    so the empty set and the singletons, which generate every subset by
    unions, suffice."""
    a, b, inst_map, typ_map = f.source, f.target, f.inst_map, f.typ_map
    xs, ys = ([0] + [1 << i for i in range(n)] for n in (b.instances.size, a.types.size))
    return (
        [a.intent_of(image_bits(inst_map, x)) for x in xs]
        == preimage_rows(typ_map, [b.intent_of(x) for x in xs])
        and preimage_rows(inst_map, [a.extent_of(y) for y in ys])
        == [b.extent_of(image_bits(typ_map, y)) for y in ys])


def order_as_classification(p: Preorder) -> Classification:
    """Instances and types are the carrier; incidence is the order itself."""
    return Classification(p.carrier, p.carrier, p.leq)


def _infomorphism_label(inst_table, typ_table) -> str:
    return "(" + ",".join(map(str, inst_table)) + ";" + ",".join(map(str, typ_table)) + ")"


def enumerate_infomorphisms(a: Classification, b: Classification,
                            max_results: int = 100_000) -> list[Infomorphism]:
    """All infomorphisms a <=> b, by backtracking over the type map.

    Partial type maps are pruned as soon as some target instance has no
    possible image under the instance map; complete type maps are expanded
    into every consistent instance-map choice.
    """
    n_a_typ = a.types.size
    if (type_maps := b.types.size ** n_a_typ) > 1_000_000:
        raise SizeLimitError(f"type-map search space too large: {b.types.size}^{n_a_typ} = "
                             f"{type_maps} type maps, above the fixed cap of 10^6")
    results: list[Infomorphism] = []

    a_rows, b_rows = a.incidence.rows, b.incidence.rows

    def candidates(typ_table: tuple[int, ...]) -> list[list[int]]:
        """For each target instance x, the source instances consistent so far:
        those whose row, cut to the k types mapped so far, is x's row pulled
        back along the partial type map, in ascending order."""
        low = (1 << len(typ_table)) - 1
        by_row: dict[int, list[int]] = {}
        for ax, row in enumerate(a_rows):
            by_row.setdefault(row & low, []).append(ax)
        return [by_row.get(sum((row >> ty & 1) << y for y, ty in enumerate(typ_table)), [])
                for row in b_rows]

    def extend(typ_table: list[int]):
        cand = candidates(tuple(typ_table))
        if any(not c for c in cand):
            return
        if len(typ_table) == n_a_typ:
            typ_map = FinFunction(a.types, b.types, tuple(typ_table))
            for choice in itertools.product(*cand):
                if len(results) == max_results:
                    raise SizeLimitError(f"infomorphism enumeration passed max_results = "
                                         f"{max_results} infomorphisms, the result cap")
                inst_map = FinFunction(b.instances, a.instances, tuple(choice))
                results.append(Infomorphism(a, b, inst_map, typ_map))
            return
        for ty in range(b.types.size):
            typ_table.append(ty)
            extend(typ_table)
            typ_table.pop()

    extend([])
    return results


def exponent(a: Classification, b: Classification) -> Classification:
    """Instances are all infomorphisms a <=> b; types are pairs of a target
    instance with a source type; an infomorphism is incident to (x, y) when
    its instance map sends x into the extent of y (equally, its type map
    sends y over the intent of x)."""
    infos = enumerate_infomorphisms(a, b)
    inst_labels = tuple(_infomorphism_label(f.inst_map.table, f.typ_map.table) for f in infos)
    typ_labels = tuple(
        f"({x},{y})" for x in b.instances.elements for y in a.types.elements
    )
    instances = FinSet(inst_labels)
    types = FinSet(typ_labels)
    n_a_typ = a.types.size
    rows = []
    for f in infos:
        mask = 0
        for xi in range(b.instances.size):
            for yi in range(n_a_typ):
                if a.incidence.holds_idx(f.inst_map.table[xi], yi):
                    mask |= 1 << (xi * n_a_typ + yi)
        rows.append(mask)
    return Classification(instances, types, Relation(instances, types, tuple(rows)))


def multiply(a: Classification, b: Classification) -> Classification:
    """The involution of the exponent out of the transposed first factor."""
    return involution_classification(exponent(involution_classification(a), b))

