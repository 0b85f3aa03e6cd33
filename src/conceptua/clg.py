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
    meet_bits,
    meet_table,
    preimage_bits,
    preimage_rows,
    transpose,
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
    _monotone,
    _pulled_back_up_sets,
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
    "concept_transport",
    "concept_square_failures",
    "derivation_square",
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


def _concepts_lectic(a: Classification) -> list[tuple[int, int]]:
    """(extent, intent) bitsets of every concept, in lectic order of extents.

    NextClosure with bit 0 most significant: the successor of extent A is the
    closure of (A below i) + i for the largest i outside A whose closure adds
    nothing below i.  Intents are ANDs of incidence rows and extents ANDs of
    attribute columns, so no closure builds a ``Subset``.
    """
    n = a.instances.size
    rows = a.incidence.rows
    cols = transpose(a.incidence).rows
    full_g, full_m = a.instances.full_mask, a.types.full_mask
    extent = meet_bits(cols, full_m, full_g)
    intent = meet_bits(rows, extent, full_m)
    out = [(extent, intent)]
    while True:
        prefix = [full_m] * (n + 1)  # prefix[i]: intent of the members of extent below i
        for i in range(n):
            prefix[i + 1] = prefix[i] & rows[i] if extent >> i & 1 else prefix[i]
        for i in range(n - 1, -1, -1):
            if extent >> i & 1:
                continue
            intent = prefix[i] & rows[i]
            candidate = meet_bits(cols, intent, full_g)
            if candidate & ((1 << i) - 1) & ~extent == 0:
                extent = candidate
                out.append((extent, intent))
                break
        else:
            return out


def concepts_of(a: Classification) -> tuple[FormalConcept, ...]:
    """Formal concepts in lectic order of extents, without any packaging.

    Each concept costs at most |instances| closures of O(|instances| +
    |types|) big-int ANDs, and no power order is built, so this also serves
    classifications with many types.
    """
    return tuple(FormalConcept(Subset(a.instances, e), Subset(a.types, t))
                 for e, t in _concepts_lectic(a))


def concept_poset(a: Classification) -> tuple[Poset, tuple[FormalConcept, ...]]:
    """The concept order (by extent inclusion) over carrier labels c0, c1, ...

    The concepts above c are those whose extents hold every object of c's
    extent: row(c) is the AND, over those objects, of the mask of concepts
    containing the object, so no pair of concepts is compared.  Inclusion
    of distinct extents is a partial order, so it is not re-validated.
    """
    concepts = concepts_of(a)
    containing = [0] * a.instances.size
    for k, c in enumerate(concepts):
        for g in c.extent.indices():
            containing[g] |= 1 << k
    full = (1 << len(concepts)) - 1
    labels = FinSet(tuple(f"c{k}" for k in range(len(concepts))))
    rows = tuple(meet_bits(containing, c.extent.bits, full) for c in concepts)
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
    tpower_op = power_order(a.types, bound=limit).opposite()
    intent_of = meet_table(a.incidence.rows, a.types.full_mask)
    extent_of = meet_table(transpose(a.incidence).rows, a.instances.full_mask)

    embed_src = _monotone(ipower.poset, lattice, (pos[extent_of[m]] for m in intent_of))
    project_src = _monotone(lattice, ipower.poset, extents)
    extent_reflection = Adjunction(ipower.poset, lattice, embed_src, project_src)

    project_tgt = _monotone(lattice, tpower_op, (c.intent.bits for c in concepts))
    embed_tgt = _monotone(tpower_op, lattice, (pos[e] for e in extent_of))
    intent_coreflection = Adjunction(lattice, tpower_op, project_tgt, embed_tgt)

    iota = FinFunction(a.instances, labels, tuple(
        embed_src.func.table[1 << i] for i in range(a.instances.size)))
    tau = FinFunction(a.types, labels, tuple(
        embed_tgt.func.table[1 << t] for t in range(a.types.size)))
    return ConceptLattice(a.instances, a.types, lattice, concepts,
                          extent_reflection, intent_coreflection, iota, tau)


def classification_of(lat: ConceptLattice) -> Classification:
    """Recover the incidence: instance i is of type t iff iota(i) <= tau(t).

    Row i is the preimage under tau of the up-set of iota(i).
    """
    up = lat.lattice.leq.rows
    rows = preimage_rows(lat.tau_embed, [up[k] for k in lat.iota_embed.table])
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
        return concept_square_failures(self.inst_map, self.typ_map, self.source.concepts,
                                       self.target.concepts, self.connection.left.func.table,
                                       self.connection.right.func.table)


def concept_transport(f: Infomorphism, source_concepts,
                      target_concepts) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The concept-level connection of ``f`` as two index tables over ``concepts_of`` output.

    The left table sends each target concept to the source concept whose
    extent derives from its intent pulled back along the type map; equally,
    the closure of its extent pushed forward along the instance map.  The
    right table sends each source concept to the target concept whose extent
    is the instance-map preimage of its extent; equally, the derivation of
    its intent pushed forward along the type map, so agreement also makes
    that preimage a closed extent.  Raises when the two recipes disagree.
    """
    a, b = f.source, f.target
    pos_a = {c.extent.bits: k for k, c in enumerate(source_concepts)}
    pos_b = {c.extent.bits: k for k, c in enumerate(target_concepts)}
    left = []
    for c in target_concepts:
        ext = a.extent_of(Subset(a.types, preimage_bits(f.typ_map, c.intent.bits))).bits
        pushed = Subset(a.instances, image_bits(f.inst_map, c.extent.bits))
        if ext != a.extent_of(a.intent_of(pushed)).bits:
            raise CarrierMismatchError(
                f"concept transport formulas disagree at target concept with extent {c.extent}")
        left.append(pos_a[ext])
    right = []
    for c in source_concepts:
        pre = preimage_bits(f.inst_map, c.extent.bits)
        if pre != b.extent_of(Subset(b.types, image_bits(f.typ_map, c.intent.bits))).bits:
            raise CarrierMismatchError(
                f"concept transport formulas disagree at source concept with extent {c.extent}")
        right.append(pos_b[pre])
    return tuple(left), tuple(right)


def concept_square_failures(inst_map: FinFunction, typ_map: FinFunction, source_concepts,
                            target_concepts, left_table, right_table) -> list[str]:
    """Extent and intent preservation of a transport, as failure strings.

    The right image of a source concept has the instance-map preimage of its
    extent as extent; the left image of a target concept has the type-map
    preimage of its intent as intent.
    """
    failures = []
    for k, c in enumerate(source_concepts):
        if target_concepts[right_table[k]].extent.bits != preimage_bits(inst_map, c.extent.bits):
            failures.append(f"extent preservation fails at concept c{k}")
            break
    for k, c in enumerate(target_concepts):
        if source_concepts[left_table[k]].intent.bits != preimage_bits(typ_map, c.intent.bits):
            failures.append(f"intent preservation fails at concept c{k}")
            break
    return failures


def concept_morphism_of(f: Infomorphism, bound: int | None = None) -> ConceptMorphism:
    """Lift an infomorphism to the connection between the two concept lattices.

    Both defining recipes of ``concept_transport`` are computed and must agree.
    """
    report = check_infomorphism(f)
    if not report.valid:
        raise CarrierMismatchError(f"invalid infomorphism; witness {report.witness}")
    la = concept_lattice(f.source, bound=bound)
    lb = concept_lattice(f.target, bound=bound)
    left_table, right_table = concept_transport(f, la.concepts, lb.concepts)
    left = MonotoneMap(lb.lattice, la.lattice, FinFunction(lb.lattice.carrier, la.lattice.carrier, left_table))
    right = MonotoneMap(la.lattice, lb.lattice, FinFunction(la.lattice.carrier, lb.lattice.carrier, right_table))
    return ConceptMorphism(la, lb, check_adjunction(left, right), f.inst_map, f.typ_map)


def compose_concept_morphisms(h1: ConceptMorphism, h2: ConceptMorphism) -> ConceptMorphism:
    """h1 : L1 <=> L2 then h2 : L2 <=> L3; connections compose contravariantly."""
    if h1.target.lattice != h2.source.lattice:
        raise CarrierMismatchError("concept morphisms are not composable")
    conn = compose_adjunctions(h2.connection, h1.connection)
    return ConceptMorphism(h1.source, h2.target, conn,
                           h2.inst_map.then(h1.inst_map), h1.typ_map.then(h2.typ_map))


def derivation_square(f: Infomorphism, bound: int | None = None
                      ) -> tuple[Adjunction, Adjunction, Adjunction, Adjunction]:
    """The commuting square (g1, g2, a, b) of a valid infomorphism, where
    g1 = deriv(target), g2 = deriv(source), a = dir(inst map), b = inv(typ map)."""
    da = derivation(f.source, bound=bound)
    db = derivation(f.target, bound=bound)
    ip_a, ip_b = da.instance_power.poset, db.instance_power.poset
    a_op, b_op = da.type_power.opposite(), db.type_power.opposite()

    def monotone(source, target, bits_map, func):
        return MonotoneMap(source, target, FinFunction(
            source.carrier, target.carrier, tuple(bits_map(func, x) for x in range(source.size))))

    dir_inst = Adjunction(ip_b, ip_a, monotone(ip_b, ip_a, image_bits, f.inst_map),
                          monotone(ip_a, ip_b, preimage_bits, f.inst_map))
    inv_typ = Adjunction(b_op, a_op, monotone(b_op, a_op, preimage_bits, f.typ_map),
                         monotone(a_op, b_op, image_bits, f.typ_map))
    return db.adjunction, da.adjunction, dir_inst, inv_typ


def diagonal_of_infomorphism(f: Infomorphism, bound: int | None = None) -> Adjunction:
    """The connection computed by diagonalizing the derivation square instead."""
    from .galois import polar_factorize

    g_b, g_a, dir_inst, inv_typ = derivation_square(f, bound=bound)
    pa = polar_factorize(g_a)
    pb = polar_factorize(g_b)
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
    leq = lat.lattice.leq
    cols = transpose(leq).rows
    embedded_instances = image_bits(lat.iota_embed, lat.instances.full_mask)
    embedded_types = image_bits(lat.tau_embed, lat.types.full_mask)
    for k in range(lat.size):
        below = embedded_instances & cols[k]
        if poset_join(lat.lattice, Subset(lat.lattice.carrier, below)) != k:
            failures.append(f"instance embedding is not join-dense at c{k}")
            break
    for k in range(lat.size):
        above = embedded_types & leq.rows[k]
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
        bits = image_bits(lat.iota_embed, c.extent.bits)
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
        and list(rebuilt.lattice.leq.rows) == _pulled_back_up_sets(forward, lat.lattice.leq.rows)
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
