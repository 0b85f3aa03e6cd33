"""Concept lattices and concept morphisms.

``concept_lattice`` enumerates the formal concepts of a classification with
NextClosure in lectic order of extents and packages them with the
join-dense instance embedding and the meet-dense type embedding, which by
the basic theorem determine the classification: ``classification_of``
recovers it bit-exactly.  The extent reflection and the intent coreflection
run through both power orders, so they are built only when first read.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import CarrierMismatchError, NotAConceptLatticeError, SizeLimitError
from .finrel import (
    FinFunction,
    FinSet,
    Relation,
    Subset,
    _bits,
    image_bits,
    meet_bits,
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
    polar_factorize,
)
from .order import (
    MonotoneMap,
    Poset,
    _monotone,
    _trusted,
    carrier_bound,
    hasse_edges,
    is_complete_lattice,
    poset_join,
    poset_meet,
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
    """Concepts by extent inclusion and their embeddings; adjunctions built on first read."""

    instances: FinSet
    types: FinSet
    lattice: Poset
    concepts: tuple[FormalConcept, ...]
    iota_embed: FinFunction
    tau_embed: FinFunction

    @cached_property
    def _adjunctions(self) -> tuple[Adjunction, Adjunction]:
        return _power_adjunctions(self)

    extent_reflection = property(lambda self: self._adjunctions[0])
    intent_coreflection = property(lambda self: self._adjunctions[1])

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
    bound = carrier_bound()
    limit = 1 << min(bound, 64)
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
                if len(out) > limit:
                    raise SizeLimitError(
                        f"concept enumeration passed 2^{bound} = {limit} concepts, whose order "
                        f"takes 2^{2 * bound} bits; set CONCEPTUA_MAX_CARRIER to raise the bound")
                break
        else:
            return out


def concepts_of(a: Classification) -> tuple[FormalConcept, ...]:
    """Formal concepts in lectic order of extents, without any packaging.

    Each concept costs at most |instances| closures of O(|instances| +
    |types|) big-int ANDs, and no power order is built, so this also serves
    classifications with many types.  Past 2^carrier_bound() concepts, whose
    order would take the bits of a power order, raises ``SizeLimitError``.
    """
    return tuple(FormalConcept(Subset(a.instances, e), Subset(a.types, t))
                 for e, t in _concepts_lectic(a))


def _inclusion_rows(extents, n_instances: int) -> tuple[int, ...]:
    """Row k: the extents holding extent k, as the AND over its objects of the
    mask of extents containing the object, so no pair of extents is compared."""
    containing = [0] * n_instances
    for k, e in enumerate(extents):
        for g in _bits(e):
            containing[g] |= 1 << k
    full = (1 << len(extents)) - 1
    return tuple(meet_bits(containing, e, full) for e in extents)


def concept_poset(a: Classification) -> tuple[Poset, tuple[FormalConcept, ...]]:
    """The concept order (by extent inclusion) over carrier labels c0, c1, ...

    Inclusion of distinct extents is a partial order, so it is not re-validated.
    """
    concepts = concepts_of(a)
    labels = FinSet(tuple(f"c{k}" for k in range(len(concepts))))
    rows = _inclusion_rows([c.extent.bits for c in concepts], a.instances.size)
    return _trusted(Poset, carrier=labels, leq=Relation(labels, labels, rows)), concepts


def concept_lattice(a: Classification) -> ConceptLattice:
    """All formal concepts of ``a``, indexed in lectic order of extents.

    Instance i embeds at the concept of the closure of {i}, type t at the
    concept whose extent is column t: the concept order plus one closure per
    instance, and no power order.
    """
    lattice, concepts = concept_poset(a)
    pos = {c.extent.bits: k for k, c in enumerate(concepts)}
    cols = transpose(a.incidence).rows
    full = a.instances.full_mask
    iota = FinFunction(a.instances, lattice.carrier, tuple(
        pos[meet_bits(cols, row, full)] for row in a.incidence.rows))
    tau = FinFunction(a.types, lattice.carrier, tuple(pos[col] for col in cols))
    return ConceptLattice(a.instances, a.types, lattice, concepts, iota, tau)


def _power_adjunctions(lat: ConceptLattice) -> tuple[Adjunction, Adjunction]:
    """The extent reflection and the intent coreflection, read off the
    derivation of ``classification_of(lat)``: its power orders are their outer
    orders and its tables the closure and the concept of a set of types.

    Raises ``NotAConceptLatticeError`` unless the order is extent inclusion
    and every closure is a listed extent; then the four maps (closure,
    extent, derived intent, concept of a set of types) are monotone by the
    Galois connection and are not re-checked.
    """
    deriv = derivation(classification_of(lat))
    extents = [c.extent.bits for c in lat.concepts]
    if lat.lattice.leq.rows != _inclusion_rows(extents, lat.instances.size):
        raise NotAConceptLatticeError("concept order is not extent inclusion")
    intent_of, extent_of = deriv.left.func.table, deriv.right.func.table
    pos = {e: k for k, e in enumerate(extents)}
    if missing := [e for e in extent_of if e not in pos]:
        raise NotAConceptLatticeError(
            f"closed extent {Subset(lat.instances, missing[0])} is not a listed concept")
    lattice, ipower, tpower_op = lat.lattice, deriv.source, deriv.target
    embed_src = _monotone(ipower, lattice, (pos[extent_of[m]] for m in intent_of))
    project_src = _monotone(lattice, ipower, extents)
    project_tgt = _monotone(lattice, tpower_op, (intent_of[e] for e in extents))
    embed_tgt = _monotone(tpower_op, lattice, (pos[e] for e in extent_of))
    return (Adjunction(ipower, lattice, embed_src, project_src),
            Adjunction(lattice, tpower_op, project_tgt, embed_tgt))


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
        return failures + concept_square_failures(
            self.inst_map, self.typ_map, l1.concepts, l2.concepts, conn.left.func.table,
            conn.right.func.table)


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


def concept_morphism_of(f: Infomorphism) -> ConceptMorphism:
    """Lift an infomorphism to the connection between the two concept lattices.

    Both defining recipes of ``concept_transport`` are computed and must agree.
    """
    report = check_infomorphism(f)
    if not report.valid:
        raise CarrierMismatchError(f"invalid infomorphism; witness {report.witness}")
    la = concept_lattice(f.source)
    lb = concept_lattice(f.target)
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


def derivation_square(f: Infomorphism) -> tuple[Adjunction, Adjunction, Adjunction, Adjunction]:
    """The commuting square (g1, g2, a, b) of a valid infomorphism, where
    g1 = deriv(target), g2 = deriv(source), a = dir(inst map), b = inv(typ map)."""
    da = derivation(f.source)
    db = derivation(f.target)
    ip_a, ip_b, a_op, b_op = da.source, db.source, da.target, db.target

    def monotone(source, target, bits_map, func):
        return MonotoneMap(source, target, FinFunction(
            source.carrier, target.carrier, tuple(bits_map(func, x) for x in range(source.size))))

    dir_inst = Adjunction(ip_b, ip_a, monotone(ip_b, ip_a, image_bits, f.inst_map),
                          monotone(ip_a, ip_b, preimage_bits, f.inst_map))
    inv_typ = Adjunction(b_op, a_op, monotone(b_op, a_op, preimage_bits, f.typ_map),
                         monotone(a_op, b_op, image_bits, f.typ_map))
    return db, da, dir_inst, inv_typ


def diagonal_of_infomorphism(f: Infomorphism) -> Adjunction:
    """The connection computed by diagonalizing the derivation square instead."""
    g_b, g_a, dir_inst, inv_typ = derivation_square(f)
    pa = polar_factorize(g_a)
    pb = polar_factorize(g_b)
    return diagonalize(pb.extent_reflection,
                       compose_adjunctions(pb.intent_coreflection, inv_typ),
                       compose_adjunctions(dir_inst, pa.extent_reflection),
                       pa.intent_coreflection)


def lattice_joins_meets(lat: ConceptLattice, members: Subset) -> tuple[int, int]:
    """Join and meet of a set of concepts, as carrier indices, by the basic theorem.

    The meet's extent is the AND of the member extents; the join's intent is
    the AND of the member intents.  With no members: the top and the bottom.
    """
    if members.carrier != lat.lattice.carrier:
        raise CarrierMismatchError("member set is not over the lattice carrier")
    extents = [c.extent.bits for c in lat.concepts]
    intents = [c.intent.bits for c in lat.concepts]
    join_intent = meet_bits(intents, members.bits, lat.types.full_mask)
    meet_extent = meet_bits(extents, members.bits, lat.instances.full_mask)
    return intents.index(join_intent), extents.index(meet_extent)


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

    A failure to build the two adjunctions is reported alone.  Their
    composite is derivation by construction, so it is not compared.
    """
    try:
        reflection, coreflection = lat.extent_reflection, lat.intent_coreflection
    except NotAConceptLatticeError as exc:
        return [str(exc)]
    failures = []
    if not is_complete_lattice(lat.lattice):
        failures.append("concept order is not a complete lattice")
    if not is_reflection(reflection):
        failures.append("extent adjunction is not a reflection")
    if not is_coreflection(coreflection):
        failures.append("intent adjunction is not a coreflection")
    for i in range(lat.instances.size):
        if lat.iota_embed.table[i] != reflection.left.func.table[1 << i]:
            failures.append("iota embedding differs from the singleton restriction")
            break
    for t in range(lat.types.size):
        if lat.tau_embed.table[t] != coreflection.right.func.table[1 << t]:
            failures.append("tau embedding differs from the singleton restriction")
            break
    failures.extend(_check_density(lat))
    recovered = classification_of(lat).incidence
    rows, cols = recovered.rows, transpose(recovered).rows
    for c in lat.concepts:
        if meet_bits(rows, c.extent.bits, lat.types.full_mask) != c.intent.bits or \
           meet_bits(cols, c.intent.bits, lat.instances.full_mask) != c.extent.bits:
            failures.append(f"bipole condition fails for {c.label()}")
            break
    return failures


def concept_lattice_from_parts(instances, types, lattice, concepts,
                               iota_embed, tau_embed) -> ConceptLattice:
    """Manual constructor; rejects any density or bipole violation eagerly."""
    lat = ConceptLattice(instances, types, lattice, tuple(concepts), iota_embed, tau_embed)
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
    genuine concept lattice (density failures and the like).  Once
    validation passes, the listed extents are exactly the closed sets, each
    once (the order is extent inclusion and antisymmetric), and the join of
    the embedded instances of a closed set is the concept with that extent;
    so both tables are bijections, inverse to each other, that keep extents,
    and both orders are extent inclusion.
    """
    failures = validate_concept_lattice(lat)
    if failures:
        raise NotAConceptLatticeError("; ".join(failures))
    rebuilt = concept_lattice(classification_of(lat))
    labels, rebuilt_labels = lat.lattice.carrier, rebuilt.lattice.carrier
    forward = FinFunction(rebuilt_labels, labels, tuple(
        poset_join(lat.lattice, Subset(labels, image_bits(lat.iota_embed, c.extent.bits)))
        for c in rebuilt.concepts))
    ext_pos = {c.extent.bits: k for k, c in enumerate(rebuilt.concepts)}
    backward = FinFunction(labels, rebuilt_labels,
                           tuple(ext_pos[c.extent.bits] for c in lat.concepts))
    return LatticeIsomorphism(forward, backward)


def lattice_to_json(lat: ConceptLattice) -> dict:
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
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for k, c in enumerate(lat.concepts):
        lines.append(f'  n{k} [label="{c.label()}"];')
    for i, j in hasse_edges(lat.lattice):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
