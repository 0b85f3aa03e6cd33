"""Concept lattices and concept morphisms.

``concept_lattice`` enumerates the formal concepts of a classification with
NextClosure in lectic order of extents and packages them as the axis of the
derivation Galois connection, together with the extent reflection, the
intent coreflection, and the single-instance/single-type embeddings.
``classification_of`` composes the two adjunctions back; the round trip
recovers the classification bit-exactly.
"""

from dataclasses import dataclass

from .errors import CarrierMismatchError, NotAConceptLatticeError
from .finrel import (
    FinFunction,
    FinSet,
    Relation,
    Subset,
    derive_forward,
    derive_reverse,
    image_bits,
    preimage_bits,
)
from .galois import (
    Adjunction,
    check_adjunction,
    compose_adjunctions,
    diagonalize,
    is_coreflection,
    is_reflection,
    same_adjunction,
)
from .order import (
    MonotoneMap,
    Poset,
    _trusted,
    check_carrier_bound,
    is_complete_lattice,
    poset_join,
    poset_meet,
    power_order,
)
from .clsn import Classification, Infomorphism, check_infomorphism, derivation

__all__ = [
    "FormalConcept",
    "ConceptLattice",
    "ConceptMorphism",
    "concepts_of",
    "concept_poset",
    "concept_lattice",
    "classification_of",
    "concept_morphism_of",
    "compose_concept_morphisms",
    "diagonal_of_infomorphism",
    "validate_concept_lattice",
    "lattice_joins_meets",
    "lattice_roundtrip_iso",
    "concept_lattice_from_parts",
    "lattice_to_json",
    "lattice_to_dot",
]


@dataclass(frozen=True)
class FormalConcept:
    """An (extent, intent) pair, each the derivation of the other."""

    extent: Subset
    intent: Subset

    def label(self) -> str:
        return f"{self.extent}|{self.intent}"


@dataclass(frozen=True)
class ConceptLattice:
    instances: FinSet
    types: FinSet
    lattice: Poset
    concepts: tuple[FormalConcept, ...]
    extent_reflection: Adjunction
    intent_coreflection: Adjunction
    iota_embed: FinFunction
    tau_embed: FinFunction

    @property
    def size(self) -> int:
        return self.lattice.size

    def extent(self, k: int) -> Subset:
        return self.concepts[k].extent

    def intent(self, k: int) -> Subset:
        return self.concepts[k].intent

    def instance_of(self, i: int, k: int) -> bool:
        """Instance-of relation: embedded instance below concept k."""
        return self.lattice.le_idx(self.iota_embed.table[i], k)

    def of_type(self, k: int, t: int) -> bool:
        """Of-type relation: concept k below embedded type."""
        return self.lattice.le_idx(k, self.tau_embed.table[t])


def _lectic_next(closed: int, n: int, close) -> int | None:
    """Smallest closed set lectically above ``closed`` (bit 0 most significant)."""
    for i in range(n - 1, -1, -1):
        if closed >> i & 1:
            continue
        candidate = close((closed & ((1 << i) - 1)) | (1 << i))
        if (candidate & ((1 << i) - 1)) == (closed & ((1 << i) - 1)) and candidate >> i & 1:
            return candidate
    return None


def _closed_extents_lectic(a: Classification) -> list[int]:
    n = a.instances.size

    def close(bits: int) -> int:
        fwd = derive_forward(a.incidence, Subset(a.instances, bits))
        return derive_reverse(a.incidence, fwd).bits

    out = [close(0)]
    while True:
        nxt = _lectic_next(out[-1], n, close)
        if nxt is None:
            return out
        out.append(nxt)


def concepts_of(a: Classification) -> tuple[FormalConcept, ...]:
    """Formal concepts in lectic order of extents, without any packaging.

    Cost scales with the number of concepts, not with the power order of
    the type side, so this also serves classifications with many types.
    """
    return tuple(
        FormalConcept(Subset(a.instances, e),
                      derive_forward(a.incidence, Subset(a.instances, e)))
        for e in _closed_extents_lectic(a)
    )


def concept_poset(a: Classification) -> tuple[Poset, tuple[FormalConcept, ...]]:
    """The concept order (by extent inclusion) over carrier labels c0, c1, ...

    Inclusion of distinct extents is a partial order, so it is not re-validated.
    """
    concepts = concepts_of(a)
    labels = FinSet(tuple(f"c{k}" for k in range(len(concepts))))
    rows = tuple(
        sum(1 << k2 for k2, c2 in enumerate(concepts) if c1.extent.bits & ~c2.extent.bits == 0)
        for c1 in concepts
    )
    return _trusted(Poset, carrier=labels, leq=Relation(labels, labels, rows)), concepts


def concept_lattice(a: Classification, bound: int | None = None) -> ConceptLattice:
    """All formal concepts of ``a``, indexed in lectic order of extents.

    The four maps between the concept order and the power orders (extent
    closure, extent, intent, type-side derivation) are monotone by the
    Galois connection, so they are not re-checked.
    """
    limit = check_carrier_bound(a.instances.size, bound, "concept_lattice: the instance carrier")
    check_carrier_bound(a.types.size, bound, "concept_lattice: the type carrier")
    lattice, concepts = concept_poset(a)
    extents = [c.extent.bits for c in concepts]
    pos = {e: k for k, e in enumerate(extents)}
    labels = lattice.carrier

    ipower = power_order(a.instances, bound=limit)
    tpower = power_order(a.types, bound=limit)
    tpower_op = tpower.opposite()

    def close_extent(bits: int) -> int:
        return derive_reverse(a.incidence, derive_forward(a.incidence, Subset(a.instances, bits))).bits

    def monotone(source, target, table):
        return _trusted(MonotoneMap, source=source, target=target,
                        func=FinFunction(source.carrier, target.carrier, tuple(table)))

    embed_src = monotone(ipower.poset, lattice, (pos[close_extent(x)] for x in range(ipower.size)))
    project_src = monotone(lattice, ipower.poset, extents)
    extent_reflection = Adjunction(ipower.poset, lattice, embed_src, project_src)

    project_tgt = monotone(lattice, tpower_op, (c.intent.bits for c in concepts))
    embed_tgt = monotone(tpower_op, lattice,
                         (pos[derive_reverse(a.incidence, Subset(a.types, y)).bits]
                          for y in range(tpower.size)))
    intent_coreflection = Adjunction(lattice, tpower_op, project_tgt, embed_tgt)

    iota = FinFunction(a.instances, labels,
                       tuple(pos[close_extent(1 << i)] for i in range(a.instances.size)))
    tau = FinFunction(a.types, labels,
                      tuple(pos[derive_reverse(a.incidence, Subset(a.types, 1 << t)).bits]
                            for t in range(a.types.size)))
    return ConceptLattice(a.instances, a.types, lattice, concepts,
                          extent_reflection, intent_coreflection, iota, tau)


def classification_of(lat: ConceptLattice) -> Classification:
    """Recover the incidence: instance i is of type t iff iota(i) <= tau(t)."""
    rows = []
    for i in range(lat.instances.size):
        mask = 0
        for t in range(lat.types.size):
            if lat.lattice.le_idx(lat.iota_embed.table[i], lat.tau_embed.table[t]):
                mask |= 1 << t
        rows.append(mask)
    return Classification(lat.instances, lat.types, Relation(lat.instances, lat.types, tuple(rows)))


@dataclass(frozen=True)
class ConceptMorphism:
    """A conceptual connection between lattices plus instance/type transport."""

    source: ConceptLattice
    target: ConceptLattice
    connection: Adjunction  # target.lattice <=> source.lattice
    inst_map: FinFunction  # target instances -> source instances
    typ_map: FinFunction  # source types -> target types

    def check(self) -> list[str]:
        failures = []
        l1, l2 = self.source, self.target
        conn = self.connection
        for x in range(l2.instances.size):
            for c in range(l1.size):
                if l1.instance_of(self.inst_map.table[x], c) != \
                   l2.instance_of(x, conn.right.func.table[c]):
                    failures.append(f"extensional condition fails at instance "
                                    f"{l2.instances.elements[x]}, concept c{c}")
                    break
        for c in range(l2.size):
            for y in range(l1.types.size):
                if l1.of_type(conn.left.func.table[c], y) != \
                   l2.of_type(c, self.typ_map.table[y]):
                    failures.append(f"intensional condition fails at concept c{c}, type "
                                    f"{l1.types.elements[y]}")
                    break
        failures.extend(self._check_adjunction_squares())
        return failures

    def _check_adjunction_squares(self) -> list[str]:
        failures = []
        l1, l2 = self.source, self.target
        conn = self.connection
        # Extent preservation: right(c) has extent = instance-map preimage of extent(c).
        for c in range(l1.size):
            pre = 0
            ext1 = l1.extent(c).bits
            for x in range(l2.instances.size):
                if ext1 >> self.inst_map.table[x] & 1:
                    pre |= 1 << x
            if l2.extent(conn.right.func.table[c]).bits != pre:
                failures.append(f"extent preservation fails at concept c{c}")
                break
        # Intent preservation: left(c) has intent = type-map preimage of intent(c).
        for c in range(l2.size):
            pre = 0
            int2 = l2.intent(c).bits
            for y in range(l1.types.size):
                if int2 >> self.typ_map.table[y] & 1:
                    pre |= 1 << y
            if l1.intent(conn.left.func.table[c]).bits != pre:
                failures.append(f"intent preservation fails at concept c{c}")
                break
        return failures


def concept_morphism_of(f: Infomorphism, bound: int | None = None) -> ConceptMorphism:
    """Lift an infomorphism to the connection between the two concept lattices.

    Both defining recipes are computed and must agree: transport a concept of
    the target lattice by pulling its intent back along the type map, or
    equally by pushing its extent forward along the instance map; dually for
    the right adjoint.
    """
    report = check_infomorphism(f)
    if not report.valid:
        raise CarrierMismatchError(f"invalid infomorphism; witness {report.witness}")
    la = concept_lattice(f.source, bound=bound)
    lb = concept_lattice(f.target, bound=bound)

    pos_a = {c.extent.bits: k for k, c in enumerate(la.concepts)}
    pos_b = {c.extent.bits: k for k, c in enumerate(lb.concepts)}

    left_table = []
    for k, c in enumerate(lb.concepts):
        pulled_intent = 0
        for y in range(f.source.types.size):
            if c.intent.bits >> f.typ_map.table[y] & 1:
                pulled_intent |= 1 << y
        ext = derive_reverse(f.source.incidence, Subset(f.source.types, pulled_intent)).bits
        pushed = 0
        for x in c.extent.indices():
            pushed |= 1 << f.inst_map.table[x]
        ext_alt = derive_reverse(
            f.source.incidence,
            derive_forward(f.source.incidence, Subset(f.source.instances, pushed))).bits
        if ext != ext_alt:
            raise CarrierMismatchError("concept transport formulas disagree")
        left_table.append(pos_a[ext])

    right_table = []
    for k, c in enumerate(la.concepts):
        pre = 0
        for x in range(f.target.instances.size):
            if c.extent.bits >> f.inst_map.table[x] & 1:
                pre |= 1 << x
        pushed_intent = 0
        for y in c.intent.indices():
            pushed_intent |= 1 << f.typ_map.table[y]
        ext_alt = derive_reverse(f.target.incidence, Subset(f.target.types, pushed_intent)).bits
        if pre != ext_alt:
            raise CarrierMismatchError("concept transport formulas disagree")
        right_table.append(pos_b[pre])

    left = MonotoneMap(lb.lattice, la.lattice, FinFunction(lb.lattice.carrier, la.lattice.carrier, tuple(left_table)))
    right = MonotoneMap(la.lattice, lb.lattice, FinFunction(la.lattice.carrier, lb.lattice.carrier, tuple(right_table)))
    return ConceptMorphism(la, lb, check_adjunction(left, right), f.inst_map, f.typ_map)


def compose_concept_morphisms(h1: ConceptMorphism, h2: ConceptMorphism) -> ConceptMorphism:
    """h1 : L1 <=> L2 then h2 : L2 <=> L3; connections compose contravariantly."""
    if h1.target.lattice != h2.source.lattice:
        raise CarrierMismatchError("concept morphisms are not composable")
    conn = compose_adjunctions(h2.connection, h1.connection)
    return ConceptMorphism(h1.source, h2.target, conn,
                           h2.inst_map.then(h1.inst_map), h1.typ_map.then(h2.typ_map))


def diagonal_of_infomorphism(f: Infomorphism, bound: int | None = None) -> Adjunction:
    """The connection computed by diagonalizing the derivation square instead."""
    from .galois import polar_factorize

    da = derivation(f.source, bound=bound)
    db = derivation(f.target, bound=bound)
    pa = polar_factorize(da.adjunction)
    pb = polar_factorize(db.adjunction)

    inst_dir_left = MonotoneMap(db.instance_power.poset, da.instance_power.poset, FinFunction(
        db.instance_power.poset.carrier, da.instance_power.poset.carrier,
        tuple(image_bits(f.inst_map, x) for x in range(db.instance_power.size))))
    inst_dir_right = MonotoneMap(da.instance_power.poset, db.instance_power.poset, FinFunction(
        da.instance_power.poset.carrier, db.instance_power.poset.carrier,
        tuple(preimage_bits(f.inst_map, x) for x in range(da.instance_power.size))))
    a_op = da.type_power.opposite()
    b_op = db.type_power.opposite()
    typ_inv_left = MonotoneMap(b_op, a_op, FinFunction(
        b_op.carrier, a_op.carrier,
        tuple(preimage_bits(f.typ_map, y) for y in range(db.type_power.size))))
    typ_inv_right = MonotoneMap(a_op, b_op, FinFunction(
        a_op.carrier, b_op.carrier,
        tuple(image_bits(f.typ_map, y) for y in range(da.type_power.size))))

    dir_inst = Adjunction(db.instance_power.poset, da.instance_power.poset,
                          inst_dir_left, inst_dir_right)
    inv_typ = Adjunction(b_op, a_op, typ_inv_left, typ_inv_right)
    return diagonalize(pb.extent_reflection,
                       compose_adjunctions(pb.intent_coreflection, inv_typ),
                       compose_adjunctions(dir_inst, pa.extent_reflection),
                       pa.intent_coreflection)


def lattice_joins_meets(lat: ConceptLattice, members: Subset) -> tuple[int, int]:
    """Join and meet of a set of concepts, via extent/intent closures.

    The join closes the union of extents; the meet closes the union of
    intents on the type side.  Indices refer to the lattice carrier.
    """
    if members.carrier != lat.lattice.carrier:
        raise CarrierMismatchError("member set is not over the lattice carrier")
    a = classification_of(lat)
    ext_union = 0
    int_union = 0
    for k in members.indices():
        ext_union |= lat.extent(k).bits
        int_union |= lat.intent(k).bits
    join_ext = derive_reverse(a.incidence,
                              derive_forward(a.incidence, Subset(lat.instances, ext_union))).bits
    meet_ext = derive_reverse(a.incidence, Subset(lat.types, int_union)).bits
    pos = {c.extent.bits: k for k, c in enumerate(lat.concepts)}
    return pos[join_ext], pos[meet_ext]


def _check_density(lat: ConceptLattice) -> list[str]:
    failures = []
    for k in range(lat.size):
        below = 0
        for i in range(lat.instances.size):
            if lat.lattice.le_idx(lat.iota_embed.table[i], k):
                below |= 1 << lat.iota_embed.table[i]
        if poset_join(lat.lattice, Subset(lat.lattice.carrier, below)) != k:
            failures.append(f"instance embedding is not join-dense at c{k}")
            break
    for k in range(lat.size):
        above = 0
        for t in range(lat.types.size):
            if lat.lattice.le_idx(k, lat.tau_embed.table[t]):
                above |= 1 << lat.tau_embed.table[t]
        if poset_meet(lat.lattice, Subset(lat.lattice.carrier, above)) != k:
            failures.append(f"type embedding is not meet-dense at c{k}")
            break
    return failures


def validate_concept_lattice(lat: ConceptLattice) -> list[str]:
    """All structural invariants of a conceptual structure, as failure strings.

    The extent reflection must run out of the canonical instance power order
    and the intent coreflection into the reversed type power order (carrier
    index = subset bitmask); anything else is rejected up front.
    """
    if lat.extent_reflection.source.size != 1 << lat.instances.size or \
            lat.intent_coreflection.target.size != 1 << lat.types.size:
        return ["adjunction boundaries are not the canonical power orders"]
    failures = []
    if not is_complete_lattice(lat.lattice):
        failures.append("concept order is not a complete lattice")
    if not is_reflection(lat.extent_reflection):
        failures.append("extent adjunction is not a reflection")
    if not is_coreflection(lat.intent_coreflection):
        failures.append("intent adjunction is not a coreflection")
    composed = compose_adjunctions(lat.extent_reflection, lat.intent_coreflection)
    recovered = classification_of(lat)
    deriv = derivation(recovered)
    if not same_adjunction(composed, deriv.adjunction):
        failures.append("composite of the two adjunctions is not a derivation adjunction")
    for i in range(lat.instances.size):
        if lat.iota_embed.table[i] != lat.extent_reflection.left.func.table[1 << i]:
            failures.append("iota embedding differs from the singleton restriction")
            break
    for t in range(lat.types.size):
        if lat.tau_embed.table[t] != lat.intent_coreflection.right.func.table[1 << t]:
            failures.append("tau embedding differs from the singleton restriction")
            break
    failures.extend(_check_density(lat))
    for c in lat.concepts:
        a = recovered
        if derive_forward(a.incidence, c.extent) != c.intent or \
           derive_reverse(a.incidence, c.intent) != c.extent:
            failures.append(f"bipole condition fails for {c.label()}")
            break
    return failures


def concept_lattice_from_parts(instances, types, lattice, concepts,
                               extent_reflection, intent_coreflection,
                               iota_embed, tau_embed) -> ConceptLattice:
    """Manual constructor; rejects any density or bipole violation eagerly."""
    lat = ConceptLattice(instances, types, lattice, tuple(concepts),
                         extent_reflection, intent_coreflection, iota_embed, tau_embed)
    failures = validate_concept_lattice(lat)
    if failures:
        raise NotAConceptLatticeError("; ".join(failures))
    return lat


@dataclass(frozen=True)
class LatticeIsomorphism:
    forward: FinFunction
    backward: FinFunction


def lattice_roundtrip_iso(lat: ConceptLattice) -> LatticeIsomorphism:
    """Explicit order-iso between the lattice rebuilt from the classification and ``lat``.

    Sends a rebuilt concept to the join of the embedded instances of its
    extent; the inverse reads off extents.  Raises when ``lat`` is not a
    genuine concept lattice (density failures and the like).
    """
    failures = validate_concept_lattice(lat)
    if failures:
        raise NotAConceptLatticeError("; ".join(failures))
    rebuilt = concept_lattice(classification_of(lat))
    fwd_table = []
    for c in rebuilt.concepts:
        bits = 0
        for i in c.extent.indices():
            bits |= 1 << lat.iota_embed.table[i]
        fwd_table.append(poset_join(lat.lattice, Subset(lat.lattice.carrier, bits)))
    forward = FinFunction(rebuilt.lattice.carrier, lat.lattice.carrier, tuple(fwd_table))
    ext_pos = {c.extent.bits: k for k, c in enumerate(rebuilt.concepts)}
    back_table = []
    for k in range(lat.size):
        back_table.append(ext_pos[lat.extent(k).bits])
    backward = FinFunction(lat.lattice.carrier, rebuilt.lattice.carrier, tuple(back_table))
    n_r, n_l = rebuilt.size, lat.size
    ok = (
        n_r == n_l
        and forward.then(backward).table == tuple(range(n_r))
        and backward.then(forward).table == tuple(range(n_l))
        and all(
            rebuilt.lattice.le_idx(i, j) == lat.lattice.le_idx(fwd_table[i], fwd_table[j])
            for i in range(n_r) for j in range(n_r)
        )
    )
    if not ok:
        raise NotAConceptLatticeError("round trip did not produce an order isomorphism")
    return LatticeIsomorphism(forward, backward)


def lattice_to_json(lat: ConceptLattice) -> dict:
    from .order import hasse_edges

    return {
        "objects": list(lat.instances.elements),
        "attributes": list(lat.types.elements),
        "concepts": [
            {"extent": list(c.extent.indices()), "intent": list(c.intent.indices())}
            for c in lat.concepts
        ],
        "cover": [[i, j] for i, j in hasse_edges(lat.lattice)],
    }


def lattice_to_dot(lat: ConceptLattice, name: str = "lattice") -> str:
    from .order import hasse_edges

    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for k, c in enumerate(lat.concepts):
        lines.append(f'  n{k} [label="{c.label()}"];')
    for i, j in hasse_edges(lat.lattice):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
