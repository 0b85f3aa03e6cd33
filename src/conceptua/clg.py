"""Concept lattices and concept morphisms.

``concept_lattice`` enumerates the formal concepts of a classification as
the intersection closure of the lines of its smaller side (every intent is
an intersection of object intents, every extent one of attribute extents),
at most n_small x |concepts| ANDs, sorts them once into lectic order of
extents and packages them with the join-dense instance embedding and the
meet-dense type embedding, which by the basic theorem determine the
classification: ``classification_of`` recovers it bit-exactly.  The
enumeration runs once per classification and is kept on it
(``Classification.concepts``), so ``concepts_of``, ``concept_poset`` and
``concept_lattice`` on the same classification share it.  The extent
reflection and the intent coreflection run through both power orders, so
they are built only when first read, and validation reads neither.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii as _json_string

from .errors import CarrierMismatchError, NotAConceptLatticeError, SizeLimitError
from .finrel import (
    FinFunction,
    FinSet,
    Relation,
    Subset,
    _bits,
    _trusted,
    image_bits,
    image_tables,
    meet_bits,
    preimage_rows,
)
from .galois import (
    Adjunction,
    compose_adjunctions,
    diagonalize,
    polar_factorize,
)
from .order import (
    Poset,
    _bits_in_bytes,
    _dot_quote,
    _monotone,
    carrier_bound,
    hasse_edges,
    is_complete_lattice,
    poset_join,
    poset_meet,
)
from .clsn import Classification, Infomorphism, derivation

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


def _too_many_concepts(bound: int, limit: int) -> SizeLimitError:
    return SizeLimitError(
        f"concept enumeration passed 2^{bound} = {limit} concepts, whose order takes "
        f"2^{2 * bound} bits ({_bits_in_bytes(2 * bound)}); set CONCEPTUA_MAX_CARRIER "
        "to raise the bound")


# byte b with its eight bits in reverse order, so that the little-endian bytes of
# a mask, translated, sort as its bits read from bit 0 down: lectic order
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _concepts_lectic(a: Classification) -> tuple[FormalConcept, ...]:
    """Every formal concept of ``a``, in lectic order of extents.

    The closed sets are the intersection closure of the lines of the smaller
    side (the rows when there are no more instances than types, else the
    columns), the empty intersection being the full mask of the other side:
    one pass per line adds its meet with every set found so far, at most
    n_small x |concepts| ANDs in all.  Each closed set's derivation is the
    AND of the other side's lines over its bits or, when it has at least
    n_small bits, the scan of the small side's lines for the ones that hold
    it: min(|set|, n_small) lines.  The concepts are then sorted once by the
    bit reversal of their extents.  Each concept and its two subsets are
    valid by construction and built like ``finrel._trusted``, inlined.

    The set only grows and each member is one concept's intent (or extent),
    so the size check after each pass raises exactly when there are more
    than 2^bound concepts; the last pass may hold up to 2 x 2^bound masks
    before it does.
    """
    inst, typ = a.instances, a.types
    rows, cols = a.incidence.rows, a.incidence.columns
    bound = carrier_bound()
    limit = 1 << min(bound, 64)
    by_rows = inst.size <= typ.size
    if by_rows:
        lines, other, full, full_small = rows, cols, typ.full_mask, inst.full_mask
    else:
        lines, other, full, full_small = cols, rows, inst.full_mask, typ.full_mask
    closed = {full}
    for line in lines:
        closed |= {line & c for c in closed}
        if len(closed) > limit:
            raise _too_many_concepts(bound, limit)
    n_small = len(lines)
    pairs = []
    for c in closed:
        if c.bit_count() < n_small:
            derived = full_small
            bits = c
            while bits:
                low = bits & -bits
                derived &= other[low.bit_length() - 1]
                bits ^= low
        else:
            derived = 0
            bit = 1
            for line in lines:
                if line & c == c:
                    derived |= bit
                bit <<= 1
        pairs.append((derived, c) if by_rows else (c, derived))
    width = (inst.size + 7) // 8
    pairs.sort(key=lambda pair: pair[0].to_bytes(width, "little").translate(_REVERSED_BYTES))
    new = object.__new__
    out = []
    for e, t in pairs:
        extent = new(Subset)
        extent.__dict__.update({"carrier": inst, "bits": e})
        intent = new(Subset)
        intent.__dict__.update({"carrier": typ, "bits": t})
        concept = new(FormalConcept)
        concept.__dict__.update({"extent": extent, "intent": intent})
        out.append(concept)
    return tuple(out)


def concepts_of(a: Classification) -> tuple[FormalConcept, ...]:
    """Formal concepts in lectic order of extents, without any packaging.

    The concepts are enumerated once per classification, as the closure
    under intersection of the lines of the smaller side, and kept as
    ``Classification.concepts``; every later call reads them back.  The
    closure makes at most n_small x |concepts| big-int ANDs and deriving the
    closed sets reads min(|set|, n_small) lines each: 6.1 ANDs and 3.4 line
    reads per concept on the random 14-40 x 14-40 contexts of density
    0.25-0.3 of the lattice-wide benchmark.  No power order is built, so
    this also serves classifications with many types.  Past 2^carrier_bound()
    concepts, whose order would take the bits of a power order, raises
    ``SizeLimitError``; the bound is read on every call, cached or not.
    """
    bound = carrier_bound()
    concepts = a.concepts
    if len(concepts) > (limit := 1 << min(bound, 64)):
        raise _too_many_concepts(bound, limit)
    return concepts


def _inclusion_rows(extents, n_instances: int) -> tuple[int, ...]:
    """Row k: the extents holding extent k, as the AND over its objects of the
    mask of extents containing the object, so no pair of sets is compared."""
    containing = [0] * n_instances
    bit = 1
    for e in extents:
        while e:
            low = e & -e
            containing[low.bit_length() - 1] |= bit
            e ^= low
        bit <<= 1
    out = []
    for e in extents:
        row = bit - 1
        while e:
            low = e & -e
            row &= containing[low.bit_length() - 1]
            e ^= low
        out.append(row)
    return tuple(out)


@lru_cache(maxsize=256)
def _concept_labels(k: int) -> FinSet:
    """The carrier c0, ..., c{k-1}, one object per size.  Other sizes take
    their labels from the next power of two, so the cached sizes share
    their label strings and each costs about one pointer per label."""
    if k & (k - 1):
        return FinSet(_concept_labels(1 << k.bit_length()).elements[:k])
    return FinSet(tuple(f"c{i}" for i in range(k)))


def concept_poset(a: Classification) -> tuple[Poset, tuple[FormalConcept, ...]]:
    """The concept order (by extent inclusion) over carrier labels c0, c1, ...

    Inclusion of distinct extents is a partial order, so it is not re-validated.
    """
    concepts = concepts_of(a)
    labels = _concept_labels(len(concepts))
    rows = _inclusion_rows([c.extent.bits for c in concepts], a.instances.size)
    leq = _trusted(Relation, source=labels, target=labels, rows=rows)
    return _trusted(Poset, carrier=labels, leq=leq), concepts


def concept_lattice(a: Classification) -> ConceptLattice:
    """All formal concepts of ``a``, indexed in lectic order of extents.

    Instance i embeds at the concept of the closure of {i}, type t at the
    concept whose extent is column t: the concept order plus one closure per
    instance, and no power order.  Assembled unchecked: both embeddings look
    up closed extents among the listed ones, so they are total and in range.
    """
    lattice, concepts = concept_poset(a)
    pos = {c.extent.bits: k for k, c in enumerate(concepts)}
    cols = a.incidence.columns
    full = a.instances.full_mask
    iota = _trusted(FinFunction, source=a.instances, target=lattice.carrier, table=tuple(
        pos[meet_bits(cols, row, full)] for row in a.incidence.rows))
    tau = _trusted(FinFunction, source=a.types, target=lattice.carrier,
                   table=tuple(pos[col] for col in cols))
    return _trusted(ConceptLattice, instances=a.instances, types=a.types, lattice=lattice,
                    concepts=concepts, iota_embed=iota, tau_embed=tau)


def _closure_failure(lat: ConceptLattice, recovered: Classification) -> str | None:
    """Why the listed extents are not the closed sets of ``recovered``, or None.

    The order must be extent inclusion, and the full instance set and E & column
    m, for each closed listed E and type m, must be listed: by induction on sets
    of types every closed set is then listed.  An unclosed E is skipped.
    """
    extents = [c.extent.bits for c in lat.concepts]
    if lat.lattice.leq.rows != _inclusion_rows(extents, lat.instances.size):
        return "concept order is not extent inclusion"
    listed, cols = set(extents), recovered.incidence.columns
    closed = [e for e in extents if recovered.extent_of(recovered.intent_of(e)) == e]
    for e in [lat.instances.full_mask] + [e & col for e in closed for col in cols]:
        if e not in listed:
            return f"closed extent {Subset(lat.instances, e)} is not a listed concept"
    return None


def _power_adjunctions(lat: ConceptLattice) -> tuple[Adjunction, Adjunction]:
    """The extent reflection and the intent coreflection, read off the
    derivation of ``classification_of(lat)``: its power orders are their outer
    orders and its tables the closure and the concept of a set of types.

    Raises ``NotAConceptLatticeError`` on a ``_closure_failure``; past it every
    closure is listed, and the four maps (closure, extent, derived intent,
    concept of a set of types) are monotone by the Galois connection.
    """
    recovered = classification_of(lat)
    if failure := _closure_failure(lat, recovered):
        raise NotAConceptLatticeError(failure)
    deriv = derivation(recovered)
    intent_of, extent_of = deriv.left.func.table, deriv.right.func.table
    extents = [c.extent.bits for c in lat.concepts]
    pos = {e: k for k, e in enumerate(extents)}
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
        """The extensional condition, inst(x) in ext(c) iff x in ext(right c), and the
        intensional one, y in int(left c) iff typ(y) in int(c): the concept squares."""
        return concept_square_failures(
            self.inst_map, self.typ_map, self.source.concepts, self.target.concepts,
            self.connection.left.func.table, self.connection.right.func.table)


def _right_recipes(f: Infomorphism, source_concepts):
    """Per source concept, the two recipes of its right image's extent: the
    instance-map preimage of its extent, and the target extent of the
    type-map image of its intent."""
    b = f.target
    pre = preimage_rows(f.inst_map, [c.extent.bits for c in source_concepts])
    return zip(pre, (b.extent_of(image_bits(f.typ_map, c.intent.bits)) for c in source_concepts))


def _first_disagreement(f: Infomorphism, source_concepts, target_concepts) -> str | None:
    """The first concept at which the two recipes of a table disagree, target
    concepts (left table) before source concepts (right table), or None."""
    a = f.source
    pulled = preimage_rows(f.typ_map, [c.intent.bits for c in target_concepts])
    for c, intent in zip(target_concepts, pulled):
        if a.extent_of(intent) != a.extent_of(a.intent_of(image_bits(f.inst_map, c.extent.bits))):
            return f"concept transport formulas disagree at target concept with extent {c.extent}"
    for c, (pre, derived) in zip(source_concepts, _right_recipes(f, source_concepts)):
        if pre != derived:
            return f"concept transport formulas disagree at source concept with extent {c.extent}"
    return None


def concept_transport(f: Infomorphism, source_concepts,
                      target_concepts) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The concept-level connection of ``f`` as two index tables over ``concepts_of`` output.

    The left table sends each target concept to the source concept whose
    extent derives from its intent pulled back along the type map; equally,
    the closure of its extent pushed forward along the instance map.  The
    right table sends each source concept to the target concept whose extent
    is the instance-map preimage of its extent; equally, the derivation of
    its intent pushed forward along the type map.  The two recipes of a
    table agree everywhere exactly when ``f`` is valid: the right recipes at
    the attribute concept of y give inst(x) I y => x I typ(y), and the left
    ones at the object concept of x the converse.

    So validity, one batched preimage of the source columns compared with
    the target columns they map to, is the gate.  On a valid ``f`` both
    tables are lookups: a left image has the type-map preimage of the target
    intent as its intent, and a right image the instance-map preimage of the
    source extent as its extent.  The tables need no check: they are adjoint
    (closure(img E) <= A iff E <= pre(A) for a closed A) and preserve extents
    and intents.  On an invalid ``f`` the recipes are scanned concept by
    concept, target concepts first, and this raises at the first
    disagreement.
    """
    a, b = f.source, f.target
    target_cols = b.incidence.columns
    if preimage_rows(f.inst_map, a.incidence.columns) != [target_cols[t] for t in f.typ_map.table]:
        raise CarrierMismatchError(_first_disagreement(f, source_concepts, target_concepts))
    by_intent = {c.intent.bits: k for k, c in enumerate(source_concepts)}
    by_extent = {c.extent.bits: k for k, c in enumerate(target_concepts)}
    pulled = preimage_rows(f.typ_map, [c.intent.bits for c in target_concepts])
    pre = preimage_rows(f.inst_map, [c.extent.bits for c in source_concepts])
    return tuple(by_intent[i] for i in pulled), tuple(by_extent[e] for e in pre)


def concept_square_failures(inst_map: FinFunction, typ_map: FinFunction, source_concepts,
                            target_concepts, left_table, right_table) -> list[str]:
    """Extent and intent preservation of a transport, as failure strings.

    The right image of a source concept has the instance-map preimage of its
    extent as extent; the left image of a target concept has the type-map
    preimage of its intent as intent.
    """
    failures = []
    extents = preimage_rows(inst_map, [c.extent.bits for c in source_concepts])
    for k, extent in enumerate(extents):
        if target_concepts[right_table[k]].extent.bits != extent:
            failures.append(f"extent preservation fails at concept c{k}")
            break
    intents = preimage_rows(typ_map, [c.intent.bits for c in target_concepts])
    for k, intent in enumerate(intents):
        if source_concepts[left_table[k]].intent.bits != intent:
            failures.append(f"intent preservation fails at concept c{k}")
            break
    return failures


def concept_morphism_of(f: Infomorphism) -> ConceptMorphism:
    """Lift an infomorphism to the connection between the two concept lattices;
    the tables of ``concept_transport`` are an adjunction, so not re-checked."""
    if (witness := f.fundamental_witness()) is not None:
        raise CarrierMismatchError(f"invalid infomorphism; witness {witness}")
    la = concept_lattice(f.source)
    lb = concept_lattice(f.target)
    left, right = concept_transport(f, la.concepts, lb.concepts)
    connection = Adjunction(lb.lattice, la.lattice, _monotone(lb.lattice, la.lattice, left),
                            _monotone(la.lattice, lb.lattice, right))
    return ConceptMorphism(la, lb, connection, f.inst_map, f.typ_map)


def compose_concept_morphisms(h1: ConceptMorphism, h2: ConceptMorphism) -> ConceptMorphism:
    """h1 : L1 <=> L2 then h2 : L2 <=> L3; connections compose contravariantly."""
    if h1.target.lattice != h2.source.lattice:
        raise CarrierMismatchError("concept morphisms are not composable")
    conn = compose_adjunctions(h2.connection, h1.connection)
    return ConceptMorphism(h1.source, h2.target, conn,
                           h2.inst_map.then(h1.inst_map), h1.typ_map.then(h2.typ_map))


def derivation_square(f: Infomorphism) -> tuple[Adjunction, Adjunction, Adjunction, Adjunction]:
    """The commuting square (g1, g2, a, b) of a valid infomorphism, where
    g1 = deriv(target), g2 = deriv(source), a = dir(inst map), b = inv(typ map);
    a and b are ``image_tables``, adjoint along any function."""
    da = derivation(f.source)
    db = derivation(f.target)
    ip_a, ip_b, a_op, b_op = da.source, db.source, da.target, db.target
    inst_images, inst_preimages = image_tables(f.inst_map)
    typ_images, typ_preimages = image_tables(f.typ_map)
    dir_inst = Adjunction(ip_b, ip_a, _monotone(ip_b, ip_a, inst_images),
                          _monotone(ip_a, ip_b, inst_preimages))
    inv_typ = Adjunction(b_op, a_op, _monotone(b_op, a_op, typ_preimages),
                         _monotone(a_op, b_op, typ_images))
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
    embedded_instances = image_bits(lat.iota_embed, lat.instances.full_mask)
    embedded_types = image_bits(lat.tau_embed, lat.types.full_mask)
    for k, col in enumerate(leq.columns):
        below = embedded_instances & col
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

    Decided on the extents, the embeddings and ``classification_of(lat)``,
    with no power order; a ``_closure_failure`` is reported alone.  The
    reflection and the coreflection fail exactly when a listed extent is not
    closed.  Else the extents are a closure system, a complete lattice, and
    density follows unless an embedding is misplaced, so neither is checked.
    """
    recovered = classification_of(lat)
    if failure := _closure_failure(lat, recovered):
        return [failure]
    pos = {c.extent.bits: k for k, c in enumerate(lat.concepts)}

    def concept(e: int) -> int:
        return pos[recovered.extent_of(recovered.intent_of(e))]

    failures = []
    if any(concept(c.extent.bits) != k for k, c in enumerate(lat.concepts)):
        if not is_complete_lattice(lat.lattice):
            failures.append("concept order is not a complete lattice")
        failures += ["extent adjunction is not a reflection",
                     "intent adjunction is not a coreflection"]
    if lat.iota_embed.table != tuple(concept(1 << i) for i in range(lat.instances.size)):
        failures.append("iota embedding differs from the singleton restriction")
    if lat.tau_embed.table != tuple(pos[col] for col in recovered.incidence.columns):
        failures.append("tau embedding differs from the singleton restriction")
    if failures:
        failures.extend(_check_density(lat))
    for c in lat.concepts:
        if recovered.intent_of(c.extent.bits) != c.intent.bits or \
           recovered.extent_of(c.intent.bits) != c.extent.bits:
            failures.append(f"bipole condition fails for {c.label()}")
            break
    return failures


def concept_lattice_from_parts(instances, types, lattice, concepts,
                               iota_embed, tau_embed) -> ConceptLattice:
    """Manual constructor; rejects any density or bipole violation eagerly."""
    lat = ConceptLattice(instances, types, lattice, tuple(concepts), iota_embed, tau_embed)
    if failures := validate_concept_lattice(lat):
        raise NotAConceptLatticeError("; ".join(failures))
    return lat


@dataclass(frozen=True)
class LatticeIsomorphism:
    forward: FinFunction
    backward: FinFunction


def lattice_roundtrip_iso(lat: ConceptLattice) -> LatticeIsomorphism:
    """Explicit order-iso between the lattice rebuilt from the classification and ``lat``.

    Raises when ``lat`` is not a genuine concept lattice (density failures
    and the like).  Once validation passes, the listed extents are exactly the
    closed sets, each once (the order is extent inclusion and antisymmetric),
    so the two tables, which keep extents, are inverse bijections, and both
    orders are extent inclusion.
    """
    if failures := validate_concept_lattice(lat):
        raise NotAConceptLatticeError("; ".join(failures))
    rebuilt = concept_lattice(classification_of(lat))
    labels, rebuilt_labels = lat.lattice.carrier, rebuilt.lattice.carrier
    pos = {c.extent.bits: k for k, c in enumerate(lat.concepts)}
    forward = FinFunction(rebuilt_labels, labels, tuple(pos[c.extent.bits] for c in rebuilt.concepts))
    ext_pos = {c.extent.bits: k for k, c in enumerate(rebuilt.concepts)}
    backward = FinFunction(labels, rebuilt_labels,
                           tuple(ext_pos[c.extent.bits] for c in lat.concepts))
    return LatticeIsomorphism(forward, backward)


def _json_list(items: list[str], pad: str) -> str:
    """A list of JSON-encoded items laid out as ``json.dumps(..., indent=2)`` lays
    out a list whose closing bracket sits at indent ``pad``."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def lattice_to_json(lat: ConceptLattice) -> str:
    """The lattice as the JSON text that ``conceptua lattice`` writes, trailing newline
    included: objects and attributes by label, each concept's extent and intent by
    index, and the cover pairs, indented as ``json.dumps(..., indent=2)`` would."""
    concepts = [
        '{\n      "extent": '
        + _json_list([str(k) for k in _bits(c.extent.bits)], "      ")
        + ',\n      "intent": '
        + _json_list([str(k) for k in _bits(c.intent.bits)], "      ")
        + "\n    }"
        for c in lat.concepts
    ]
    cover = [f"[\n      {i},\n      {j}\n    ]" for i, j in hasse_edges(lat.lattice)]
    return ('{\n  "objects": '
            + _json_list([_json_string(x) for x in lat.instances.elements], "  ")
            + ',\n  "attributes": '
            + _json_list([_json_string(x) for x in lat.types.elements], "  ")
            + ',\n  "concepts": ' + _json_list(concepts, "  ")
            + ',\n  "cover": ' + _json_list(cover, "  ")
            + "\n}\n")


def lattice_to_dot(lat: ConceptLattice, name: str = "lattice") -> str:
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for k, c in enumerate(lat.concepts):
        lines.append(f"  n{k} [label={_dot_quote(c.label())}];")
    for i, j in hasse_edges(lat.lattice):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
