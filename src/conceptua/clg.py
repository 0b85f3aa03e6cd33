"""Concept lattices and concept morphisms.

``concept_lattice`` enumerates the formal concepts of a classification as
the intersection closure of the lines of its smaller side (every intent is
an intersection of object intents, every extent one of attribute extents),
at most n_small x |concepts| ANDs, sorts them once into lectic order of
extents and packages them with the join-dense instance embedding and the
meet-dense type embedding, which by the basic theorem determine the
classification: ``classification_of`` recovers it bit-exactly.

A concept is its extent and its intent, held as two ints.  The enumeration
runs once per classification and is kept on it as two int tuples
(``Classification._concept_bits``), shared by ``concepts_of``,
``concept_poset`` and ``concept_lattice``; a ``ConceptLattice`` holds them as
its ``extents`` and ``intents``.  The concept order, the embeddings,
validation, concept transport and the two writers read those ints.
``FormalConcept`` is a view, built by ``_formal_concepts`` when
``Classification.concepts``, ``ConceptLattice.concepts`` or ``concepts_of``
is first read, so ``conceptua lattice``, concept morphisms and the
institution style check build none.  The extent reflection and the intent
coreflection are the polar factorization of derivation on the lattice's own
axis; their outer orders are the two power orders, so they are built only
when first read, and validation reads neither.
"""

from functools import lru_cache

from .errors import CarrierMismatchError, NotAConceptLatticeError, SizeLimitError
from .finrel import (
    FinFunction,
    FinSet,
    Relation,
    Subset,
    _Value,
    _bits,
    _cached,
    _trusted,
    image_bits,
    image_tables,
    meet_bits,
    preimage_rows,
)
from .galois import (
    Adjunction,
    _polar_maps,
    compose_adjunctions,
    diagonalize,
    polar_factorize,
)
from .order import (
    Poset,
    _bits_in_bytes,
    _monotone,
    carrier_bound,
    hasse_edges,
    is_complete_lattice,
    opposite,
    poset_join,
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


class FormalConcept(_Value):
    """An (extent, intent) pair, each the derivation of the other."""

    __match_args__ = ("extent", "intent")
    __slots__ = __match_args__

    def __init__(self, extent: Subset, intent: Subset):
        self._fill(self, extent, intent)

    def label(self) -> str:
        return f"{self.extent}|{self.intent}"


class ConceptLattice(_Value):
    """Concepts by extent inclusion, as their extents and intents, and their
    embeddings; the ``FormalConcept`` view and the adjunctions built on first
    read."""

    __match_args__ = ("instances", "types", "lattice", "extents", "intents", "iota_embed",
                      "tau_embed")
    # The instance dict holds only the cached ``concepts`` and ``_adjunctions``.
    __slots__ = (*__match_args__, "__dict__")

    def __init__(self, instances: FinSet, types: FinSet, lattice: Poset,
                 extents: tuple[int, ...], intents: tuple[int, ...], iota_embed: FinFunction,
                 tau_embed: FinFunction):
        self._fill(self, instances, types, lattice, extents, intents, iota_embed, tau_embed)

    @_cached
    def concepts(self) -> tuple[FormalConcept, ...]:
        """The concepts as ``FormalConcept`` values, built on first read."""
        return _formal_concepts(self.instances, self.types, self.extents, self.intents)

    @_cached
    def _adjunctions(self) -> tuple[Adjunction, Adjunction]:
        return _power_adjunctions(self)

    extent_reflection = property(lambda self: self._adjunctions[0])
    intent_coreflection = property(lambda self: self._adjunctions[1])

    @property
    def size(self) -> int:
        return self.lattice.size

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


def _concepts_lectic(a: Classification) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Every formal concept of ``a``, as two int tuples, the extents and the
    intents, in lectic order of extents.

    The closed sets are the intersection closure of the lines of the smaller
    side (the rows when there are no more instances than types, else the
    columns), the empty intersection being the full mask of the other side:
    one pass per line adds its meet with every set found so far, at most
    n_small x |concepts| ANDs in all.  Each closed set's derivation is the
    AND of the other side's lines over its bits or, when it has at least
    n_small bits, the scan of the small side's lines for the ones that hold
    it: min(|set|, n_small) lines.  The (extent, intent) pairs are then
    sorted once by the bit reversal of their extents and split into the two
    tuples, which ``a`` keeps as ``_concept_bits``.  No ``FormalConcept`` is
    built here: ``_formal_concepts`` builds them when the public tuple is
    first read.

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
    extents, intents = zip(*pairs)
    return extents, intents


def _formal_concepts(instances: FinSet, types: FinSet, extents,
                     intents) -> tuple[FormalConcept, ...]:
    """The concepts with these extents and intents as ``FormalConcept``
    values: the view that ``Classification.concepts`` and
    ``ConceptLattice.concepts`` build when first read.

    Each concept and its two subsets are valid by construction and built
    here, in one loop, not by ``finrel._trusted``: each field is written to
    its slot through the same slot descriptors (``Subset.carrier.__set__``
    and so on) that the classes' fillers hold, without a filler call per
    value.  Building 1000 concepts takes 0.71 ms that way, 0.80 ms through
    the fillers and 1.45 ms through ``_trusted`` (best of 7, Python 3.11.7,
    2 vCPUs); a concept and its subsets hold 217 B on contranominal-16.
    """
    new = object.__new__
    set_carrier, set_bits = Subset.carrier.__set__, Subset.bits.__set__
    set_extent, set_intent = FormalConcept.extent.__set__, FormalConcept.intent.__set__
    out = []
    for e, t in zip(extents, intents):
        extent, intent, concept = new(Subset), new(Subset), new(FormalConcept)
        set_carrier(extent, instances)
        set_bits(extent, e)
        set_carrier(intent, types)
        set_bits(intent, t)
        set_extent(concept, extent)
        set_intent(concept, intent)
        out.append(concept)
    return tuple(out)


def _checked_bits(a: Classification) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``a._concept_bits``; past 2^carrier_bound() concepts, whose order would
    take the bits of a power order, raises ``SizeLimitError``.  The bound is
    read on every call, cached or not."""
    bound = carrier_bound()
    bits = a._concept_bits
    if len(bits[0]) > (limit := 1 << min(bound, 64)):
        raise _too_many_concepts(bound, limit)
    return bits


def concepts_of(a: Classification) -> tuple[FormalConcept, ...]:
    """Formal concepts in lectic order of extents, without any packaging.

    The concepts are enumerated once per classification, as the closure
    under intersection of the lines of the smaller side, and kept on it as
    two int tuples (``Classification._concept_bits``); the ``FormalConcept``
    tuple returned here is built from them on the first call and kept as
    ``Classification.concepts``, and every later call reads it back.  The
    closure makes at most n_small x |concepts| big-int ANDs and deriving the
    closed sets reads min(|set|, n_small) lines each: 6.1 ANDs and 3.4 line
    reads per concept on the random 14-40 x 14-40 contexts of density
    0.25-0.3 of the lattice-wide benchmark.  No power order is built, so
    this also serves classifications with many types.  Past 2^carrier_bound()
    concepts, whose order would take the bits of a power order, raises
    ``SizeLimitError``; the bound is read on every call, cached or not.
    """
    _checked_bits(a)
    return a.concepts


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


def _concept_order(extents, n_instances: int) -> Poset:
    """Extent inclusion over carrier labels c0, c1, ...: a partial order on
    distinct extents, so not re-validated."""
    labels = _concept_labels(len(extents))
    leq = _trusted(Relation, labels, labels, _inclusion_rows(extents, n_instances))
    return _trusted(Poset, labels, leq)


def concept_poset(a: Classification) -> tuple[Poset, tuple[FormalConcept, ...]]:
    """The concept order (by extent inclusion) over carrier labels c0, c1, ...,
    and the concepts (``concepts_of``)."""
    extents, _ = _checked_bits(a)
    return _concept_order(extents, a.instances.size), a.concepts


def concept_lattice(a: Classification) -> ConceptLattice:
    """All formal concepts of ``a``, indexed in lectic order of extents.

    Instance i embeds at the concept whose intent is row i, type t at the
    concept whose extent is column t: the concept order plus two lookups,
    and no power order.  Assembled unchecked: object intents and attribute
    extents are closed, so both embeddings are total and in range.  The
    lattice shares ``a``'s extents and intents.
    """
    extents, intents = _checked_bits(a)
    lattice = _concept_order(extents, a.instances.size)
    by_intent = {t: k for k, t in enumerate(intents)}
    by_extent = {e: k for k, e in enumerate(extents)}
    iota = _trusted(FinFunction, a.instances, lattice.carrier, tuple(
        by_intent[row] for row in a.incidence.rows))
    tau = _trusted(FinFunction, a.types, lattice.carrier, tuple(
        by_extent[col] for col in a.incidence.columns))
    return _trusted(ConceptLattice, a.instances, a.types, lattice, extents, intents, iota, tau)


def _parts_failure(lat: ConceptLattice) -> str | None:
    """Why the extents and intents do not fit the lattice, or None: there must
    be one of each per concept, a subset of the instances or of the types."""
    for name, masks, side, what in (("extent", lat.extents, lat.instances, "instances"),
                                    ("intent", lat.intents, lat.types, "types")):
        if len(masks) != lat.size:
            return f"{len(masks)} {name}s listed for a lattice of {lat.size} concepts"
        for k, mask in enumerate(masks):
            if not 0 <= mask <= side.full_mask:
                return f"{name} of concept c{k} is not a subset of the {side.size} {what}"
    return None


def _closure_failure(lat: ConceptLattice, recovered: Classification) -> str | None:
    """Why the listed extents are not the closed sets of ``recovered``, or None.

    The parts must fit (``_parts_failure``), the order must be extent
    inclusion, and the full instance set and E & column m, for each closed
    listed E and type m, must be listed: by induction on sets of types every
    closed set is then listed.  An unclosed E is skipped.
    """
    if failure := _parts_failure(lat):
        return failure
    extents = lat.extents
    if lat.lattice.leq.rows != _inclusion_rows(extents, lat.instances.size):
        return "concept order is not extent inclusion"
    listed, cols = set(extents), recovered.incidence.columns
    closed = [e for e in extents if recovered.extent_of(recovered.intent_of(e)) == e]
    for e in [lat.instances.full_mask] + [e & col for e in closed for col in cols]:
        if e not in listed:
            return f"closed extent {Subset(lat.instances, e)} is not a listed concept"
    return None


def _power_adjunctions(lat: ConceptLattice) -> tuple[Adjunction, Adjunction]:
    """The extent reflection and the intent coreflection: the polar
    factorization of the derivation of ``classification_of(lat)`` on the
    lattice's own axis, whose closed elements are the listed extents.

    Raises ``NotAConceptLatticeError`` on a ``_closure_failure``; past it every
    closure is listed.
    """
    recovered = classification_of(lat)
    if failure := _closure_failure(lat, recovered):
        raise NotAConceptLatticeError(failure)
    return _polar_maps(derivation(recovered), lat.lattice, lat.extents)


def classification_of(lat: ConceptLattice) -> Classification:
    """Recover the incidence: instance i is of type t iff iota(i) <= tau(t).

    Row i is the preimage under tau of the up-set of iota(i).
    """
    up = lat.lattice.leq.rows
    rows = preimage_rows(lat.tau_embed, [up[k] for k in lat.iota_embed.table])
    return Classification(lat.instances, lat.types, Relation(lat.instances, lat.types, tuple(rows)))


class ConceptMorphism(_Value):
    """A conceptual connection between lattices plus instance/type transport.

    ``connection`` is target.lattice <=> source.lattice, ``inst_map`` takes
    target instances to source instances and ``typ_map`` source types to
    target types.
    """

    __match_args__ = ("source", "target", "connection", "inst_map", "typ_map")
    __slots__ = __match_args__

    def __init__(self, source: ConceptLattice, target: ConceptLattice, connection: Adjunction,
                 inst_map: FinFunction, typ_map: FinFunction):
        self._fill(self, source, target, connection, inst_map, typ_map)

    def check(self) -> list[str]:
        """The extensional condition, inst(x) in ext(c) iff x in ext(right c), and the
        intensional one, y in int(left c) iff typ(y) in int(c): the concept squares."""
        return concept_square_failures(
            self.inst_map, self.typ_map, self.source, self.target,
            self.connection.left.func.table, self.connection.right.func.table)


def _right_recipes(f: Infomorphism):
    """Per source concept, the two recipes of its right image's extent: the
    instance-map preimage of its extent, and the target extent of the
    type-map image of its intent."""
    b = f.target
    extents, intents = f.source._concept_bits
    pre = preimage_rows(f.inst_map, extents)
    return zip(pre, (b.extent_of(image_bits(f.typ_map, t)) for t in intents))


def _first_disagreement(f: Infomorphism) -> str | None:
    """The first concept at which the two recipes of a table disagree, target
    concepts (left table) before source concepts (right table), or None."""
    a, b = f.source, f.target
    target_extents, target_intents = b._concept_bits
    pulled = preimage_rows(f.typ_map, target_intents)
    for e, intent in zip(target_extents, pulled):
        if a.extent_of(intent) != a.extent_of(a.intent_of(image_bits(f.inst_map, e))):
            return ("concept transport formulas disagree at target concept with extent "
                    f"{Subset(b.instances, e)}")
    for e, (pre, derived) in zip(a._concept_bits[0], _right_recipes(f)):
        if pre != derived:
            return ("concept transport formulas disagree at source concept with extent "
                    f"{Subset(a.instances, e)}")
    return None


def concept_transport(f: Infomorphism) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The concept-level connection of ``f`` as two index tables over the
    concepts of both sides, in ``concepts_of`` order.

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
    disagreement.  Both sides' concepts are read as their extents and
    intents (``_checked_bits``), and no ``FormalConcept`` is built.
    """
    a, b = f.source, f.target
    source_extents, source_intents = _checked_bits(a)
    target_extents, target_intents = _checked_bits(b)
    target_cols = b.incidence.columns
    if preimage_rows(f.inst_map, a.incidence.columns) != [target_cols[t] for t in f.typ_map.table]:
        raise CarrierMismatchError(_first_disagreement(f))
    by_intent = {t: k for k, t in enumerate(source_intents)}
    by_extent = {e: k for k, e in enumerate(target_extents)}
    pulled = preimage_rows(f.typ_map, target_intents)
    pre = preimage_rows(f.inst_map, source_extents)
    return tuple(by_intent[i] for i in pulled), tuple(by_extent[e] for e in pre)


def concept_square_failures(inst_map: FinFunction, typ_map: FinFunction, source: ConceptLattice,
                            target: ConceptLattice, left_table, right_table) -> list[str]:
    """Extent and intent preservation of a transport between two concept
    lattices, as failure strings.

    The right image of a source concept has the instance-map preimage of its
    extent as extent; the left image of a target concept has the type-map
    preimage of its intent as intent.  Both are compared as ints.
    """
    failures = []
    for k, extent in enumerate(preimage_rows(inst_map, source.extents)):
        if target.extents[right_table[k]] != extent:
            failures.append(f"extent preservation fails at concept c{k}")
            break
    for k, intent in enumerate(preimage_rows(typ_map, target.intents)):
        if source.intents[left_table[k]] != intent:
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
    left, right = concept_transport(f)
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
    extents, intents = lat.extents, lat.intents
    join_intent = meet_bits(intents, members.bits, lat.types.full_mask)
    meet_extent = meet_bits(extents, members.bits, lat.instances.full_mask)
    return intents.index(join_intent), extents.index(meet_extent)


def _check_density(lat: ConceptLattice) -> list[str]:
    """Join-density of the instances; meet-density of the types is join-density
    in the opposite order."""
    failures = []
    for order, embed, side, text in (
            (lat.lattice, lat.iota_embed, lat.instances, "instance embedding is not join-dense"),
            (opposite(lat.lattice), lat.tau_embed, lat.types, "type embedding is not meet-dense")):
        embedded = image_bits(embed, side.full_mask)
        for k, col in enumerate(order.leq.columns):
            if poset_join(order, Subset(order.carrier, embedded & col)) != k:
                failures.append(f"{text} at c{k}")
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
    extents, intents = lat.extents, lat.intents
    pos = {e: k for k, e in enumerate(extents)}

    def concept(e: int) -> int:
        return pos[recovered.extent_of(recovered.intent_of(e))]

    failures = []
    if any(concept(e) != k for k, e in enumerate(extents)):
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
    for k, (e, t) in enumerate(zip(extents, intents)):
        if recovered.intent_of(e) != t or recovered.extent_of(t) != e:
            failures.append(f"bipole condition fails for {lat.concepts[k].label()}")
            break
    return failures


def concept_lattice_from_parts(instances, types, lattice, extents, intents,
                               iota_embed, tau_embed) -> ConceptLattice:
    """Manual constructor, over the constructor's fields.  Raises
    ``CarrierMismatchError`` on a ``_parts_failure``: when either tuple is not
    one mask per lattice element, or at the first extent or intent that is
    not a subset of the instances or the types.  Then rejects any density or
    bipole violation eagerly."""
    lat = ConceptLattice(instances, types, lattice, tuple(extents), tuple(intents), iota_embed,
                         tau_embed)
    if failure := _parts_failure(lat):
        raise CarrierMismatchError(failure)
    if failures := validate_concept_lattice(lat):
        raise NotAConceptLatticeError("; ".join(failures))
    return lat


def lattice_roundtrip_iso(lat: ConceptLattice) -> FinFunction:
    """Explicit order-iso from the lattice rebuilt from the classification onto ``lat``.

    Raises when ``lat`` is not a genuine concept lattice (density failures
    and the like).  Once validation passes, the listed extents are exactly the
    closed sets, each once (the order is extent inclusion and antisymmetric),
    so the table, which keeps extents, is a bijection, and both orders are
    extent inclusion.
    """
    if failures := validate_concept_lattice(lat):
        raise NotAConceptLatticeError("; ".join(failures))
    rebuilt = concept_lattice(classification_of(lat))
    pos = {e: k for k, e in enumerate(lat.extents)}
    return FinFunction(rebuilt.lattice.carrier, lat.lattice.carrier,
                       tuple(pos[e] for e in rebuilt.extents))


def lattice_to_json(lat: ConceptLattice) -> str:
    """The lattice as the JSON text that ``conceptua lattice`` writes, trailing newline
    included: objects and attributes by label, each concept's extent and intent by
    index, and the cover pairs, indented as ``json.dumps(..., indent=2)`` would.
    Each index's line is written once per lattice and joined per concept."""
    from .io import _json_list, _json_string

    # index k's line in an extent or intent list, laid out as _json_list lays it out
    lines = ["\n        " + str(k) for k in range(max(lat.instances.size, lat.types.size))]

    def indices(mask: int) -> str:
        return "[" + ",".join([lines[k] for k in _bits(mask)]) + "\n      ]" if mask else "[]"

    concepts = ['{\n      "extent": ' + indices(e) + ',\n      "intent": ' + indices(t) + "\n    }"
                for e, t in zip(lat.extents, lat.intents)]
    cover = [f"[\n      {i},\n      {j}\n    ]" for i, j in hasse_edges(lat.lattice)]
    return ('{\n  "objects": '
            + _json_list([_json_string(x) for x in lat.instances.elements], "  ")
            + ',\n  "attributes": '
            + _json_list([_json_string(x) for x in lat.types.elements], "  ")
            + ',\n  "concepts": ' + _json_list(concepts, "  ")
            + ',\n  "cover": ' + _json_list(cover, "  ")
            + "\n}\n")


def _dot_escape(text: str) -> str:
    """``text`` with backslashes, then double quotes, escaped as a DOT quoted string needs."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def lattice_to_dot(lat: ConceptLattice) -> str:
    """The lattice as the DOT text that ``conceptua lattice`` writes: one node per
    concept, labelled extent|intent as ``FormalConcept.label`` writes it in a
    quoted string, and one edge per cover pair.  Each instance and type label
    is escaped once per lattice, and a node joins the escaped labels of its
    extent and intent."""
    inst = [_dot_escape(x) for x in lat.instances.elements]
    typ = [_dot_escape(x) for x in lat.types.elements]
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for k, (e, t) in enumerate(zip(lat.extents, lat.intents)):
        lines.append(f'  n{k} [label="{{' + ",".join([inst[i] for i in _bits(e)]) + "}|{"
                     + ",".join([typ[j] for j in _bits(t)]) + '}"];')
    for i, j in hasse_edges(lat.lattice):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
