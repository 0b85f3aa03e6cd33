"""Concept-lattice validation by the basic theorem, against the power-order code it replaces.

The oracle is the earlier ``validate_concept_lattice`` with its
``_power_adjunctions`` and ``_check_density``, copied in: it built both
adjunctions through the power orders of ``derivation`` and checked the
complete-lattice, reflection, embedding and density conditions on them.
Both give the same failure list on every seeded context up to 6 x 6, on
seeded corruptions of nine kinds, and on the raw lattices the other test
modules build; ``_power_adjunctions`` gives the same tables or the same
error.  One difference is allowed: the set that "closed extent ... is not a
listed concept" names.  The oracle names the first missing closure in the
order of type subsets, the new check the first missing E & column m; each
must be closed in ``classification_of(lat)`` and not listed.
"""

import random
import re

import pytest

import conceptua.clg as clg
from conceptua.clg import (
    ConceptLattice,
    _inclusion_rows,
    classification_of,
    concept_lattice,
    validate_concept_lattice,
)
from conceptua.clsn import Classification, derivation
from conceptua.errors import NotAConceptLatticeError
from conceptua.finrel import FinFunction, FinSet, Relation, Subset, image_bits
from conceptua.galois import Adjunction, is_coreflection, is_reflection
from conceptua.order import Poset, _monotone, is_complete_lattice, opposite, poset_join, poset_meet
from conceptua.verify import random_classification
from test_clg import diamond_lattice_parts, relabelled_parts
from test_lazy_adjunctions import context as lazy_context, nominal_2_parts, random_rows, replaced

# ------------------------------------------------------------------ the oracle


def oracle_power_adjunctions(lat):
    extents = [c.extent.bits for c in lat.concepts]
    if lat.lattice.leq.rows != _inclusion_rows(extents, lat.instances.size):
        raise NotAConceptLatticeError("concept order is not extent inclusion")
    deriv = derivation(classification_of(lat))
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


def oracle_check_density(lat):
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


def oracle_validate(lat):
    try:
        reflection, coreflection = oracle_power_adjunctions(lat)
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
    failures.extend(oracle_check_density(lat))
    recovered = classification_of(lat)
    for c in lat.concepts:
        if recovered.intent_of(c.extent.bits) != c.intent.bits or \
           recovered.extent_of(c.intent.bits) != c.extent.bits:
            failures.append(f"bipole condition fails for {c.label()}")
            break
    return failures


# ------------------------------------------------------------------ comparison

CLOSED = re.compile(r"closed extent (\{.*?\}) is not a listed concept")


def normalized(message):
    return CLOSED.sub("closed extent {...} is not a listed concept", message)


def assert_names_an_unlisted_closed_set(lat, message):
    """Each "closed extent" message names a closed, unlisted set of ``lat``."""
    recovered = classification_of(lat)
    listed = {c.extent.bits for c in lat.concepts}
    closed = {recovered.extent_of(y) for y in range(1 << lat.types.size)}
    for named in CLOSED.findall(message):
        assert named in {str(Subset(lat.instances, e)) for e in closed - listed}, message


def adjunction_outcome(build, lat):
    """The four tables of the two adjunctions, or the normalized error."""
    try:
        ext, intent = build(lat)
    except NotAConceptLatticeError as exc:
        return normalized(str(exc))
    return [m.func.table for m in (ext.left, ext.right, intent.left, intent.right)]


def assert_agrees_with_oracle(lat):
    expected = oracle_validate(lat)
    actual = validate_concept_lattice(lat)
    assert [normalized(f) for f in actual] == [normalized(f) for f in expected]
    for failure in actual:
        assert_names_an_unlisted_closed_set(lat, failure)
    assert adjunction_outcome(clg._power_adjunctions, lat) == \
        adjunction_outcome(oracle_power_adjunctions, lat)
    return actual


# ------------------------------------------------------------------ corruptions


def carrier(prefix, n):
    return FinSet(tuple(f"{prefix}{i}" for i in range(n)))


def seeded_contexts():
    """Three seeded contexts of each shape up to 6 x 6, densities 0.2 to 0.8."""
    rng = random.Random(611)
    out = []
    for n_inst in range(7):
        for n_typ in range(7):
            inst, typ = carrier("g", n_inst), carrier("m", n_typ)
            for density in (0.2, 0.5, 0.8):
                rows = tuple(sum(1 << t for t in range(n_typ) if rng.random() < density)
                             for _ in range(n_inst))
                out.append(Classification(inst, typ, Relation(inst, typ, rows)))
    return out


def by_inclusion(lat, extents, intents, iota, tau):
    """A raw lattice on distinct extents, ordered by inclusion, with the given embeddings."""
    labels = carrier("c", len(extents))
    rows = _inclusion_rows(extents, lat.instances.size)
    return ConceptLattice(lat.instances, lat.types, Poset(labels, Relation(labels, labels, rows)),
                          tuple(extents), tuple(intents), FinFunction(lat.instances, labels, tuple(iota)),
                          FinFunction(lat.types, labels, tuple(tau)))


def moved(rng, table, size):
    """``table`` with one entry sent to a random position."""
    table = list(table)
    if table:
        table[rng.randrange(len(table))] = rng.randrange(size)
    return table


def corrupted(kind, lat, rng):
    """``lat`` with one defect of ``kind``; None when ``lat`` admits none."""
    extents = [c.extent.bits for c in lat.concepts]
    intents = [c.intent.bits for c in lat.concepts]
    iota, tau, k = lat.iota_embed.table, lat.tau_embed.table, rng.randrange(lat.size)
    unlisted = [e for e in range(1 << lat.instances.size) if e not in set(extents)]
    if kind == "none":
        return lat
    if kind == "order":
        labels = lat.lattice.carrier
        wrong = rng.choice([Poset.discrete(labels), Poset.chain(*labels.elements),
                            opposite(lat.lattice)])
        return replaced(lat, lattice=wrong)
    if kind == "dropped concept":
        if lat.size == 1:
            return None
        keep = [j for j in range(lat.size) if j != k]
        where = {j: n for n, j in enumerate(keep)}
        relink = [where.get(j, rng.randrange(len(keep))) for j in range(lat.size)]
        return by_inclusion(lat, [extents[j] for j in keep], [intents[j] for j in keep],
                            [relink[j] for j in iota], [relink[j] for j in tau])
    if kind == "wrong intent":
        intents[k] = rng.getrandbits(lat.types.size) if lat.types.size else 0
        return by_inclusion(lat, extents, intents, iota, tau)
    if kind == "unclosed extent":
        if not unlisted:
            return None
        extents[k] = rng.choice(unlisted)
        return by_inclusion(lat, extents, intents, iota, tau)
    if kind == "added extent":
        if not unlisted:
            return None
        intent = rng.getrandbits(lat.types.size) if lat.types.size else 0
        return by_inclusion(lat, extents + [rng.choice(unlisted)], intents + [intent], iota, tau)
    if kind in ("iota", "both"):
        iota = moved(rng, iota, lat.size)
    if kind in ("tau", "both"):
        tau = moved(rng, tau, lat.size)
    return by_inclusion(lat, extents, intents, iota, tau)


KINDS = ["none", "order", "dropped concept", "wrong intent", "unclosed extent",
         "added extent", "iota", "tau", "both"]


def test_every_seeded_context_up_to_6x6_validates_as_the_oracle_does():
    for a in seeded_contexts():
        assert assert_agrees_with_oracle(concept_lattice(a)) == []


@pytest.mark.parametrize("kind", KINDS)
def test_seeded_corruptions_fail_as_the_oracle_says(kind):
    rng = random.Random(KINDS.index(kind))
    seen = set()
    for a in seeded_contexts():
        for _ in range(2):
            raw = corrupted(kind, concept_lattice(a), rng)
            if raw is not None:
                seen.update(assert_agrees_with_oracle(raw))
    if kind != "none":
        assert seen  # the kind produces failures the comparison sees


def test_corruptions_reach_every_failure_string():
    """Across the kinds, the comparison meets every failure the validation reports."""
    rng = random.Random(7)
    seen = set()
    for a in seeded_contexts()[::4]:
        for kind in KINDS:
            raw = corrupted(kind, concept_lattice(a), rng)
            if raw is not None:
                seen.update(re.sub(r" (at c\d+|for .*|\{.*\}.*)$", "", normalized(f))
                            for f in validate_concept_lattice(raw))
    assert seen >= {
        "concept order is not extent inclusion", "closed extent",
        "concept order is not a complete lattice", "extent adjunction is not a reflection",
        "intent adjunction is not a coreflection",
        "iota embedding differs from the singleton restriction",
        "tau embedding differs from the singleton restriction",
        "instance embedding is not join-dense", "type embedding is not meet-dense",
        "bipole condition fails"}


# ------------------------------------------------- raw lattices of other modules
# Rebuilt with the other modules' own builders, as their tests build them.


def raw_lattices_of_other_tests():
    raws = [ConceptLattice(**nominal_2_parts())]
    parts = nominal_2_parts()
    labels = parts["lattice"].carrier
    parts["lattice"] = Poset(labels, Relation(labels, labels, (0b1111, 0b1110, 0b1100, 0b1000)))
    raws.append(ConceptLattice(**parts))  # order other than extent inclusion
    parts = nominal_2_parts()
    labels = carrier("c", 3)
    raws.append(ConceptLattice(  # the bottom {} dropped
        parts["instances"], parts["types"],
        Poset(labels, Relation(labels, labels, (0b101, 0b110, 0b100))), parts["extents"][1:],
        parts["intents"][1:],
        FinFunction(parts["instances"], labels, (0, 1)),
        FinFunction(parts["types"], labels, (0, 1))))
    inst, typ = carrier("i", 2), carrier("t", 1)
    labels = carrier("c", 2)
    raws.append(ConceptLattice(  # {i0} listed but not closed
        inst, typ, Poset(labels, Relation(labels, labels, (0b11, 0b10))),
        (0b01, 0b11), (0b1, 0b1),
        FinFunction(inst, labels, (0, 1)), FinFunction(typ, labels, (1,))))
    both = carrier("g", 2)
    lat = concept_lattice(Classification(both, both, Relation(both, both, (0b11, 0b00))))
    raws.append(replaced(lat, intents=tuple(  # a wrong listed intent
        t if e != 0b01 else 0b01 for e, t in zip(lat.extents, lat.intents))))
    lat = concept_lattice(lazy_context(random_rows(8, 0.4, 5), 8, 8))
    raws.append(replaced(lat, lattice=Poset.discrete(lat.lattice.carrier)))
    raws.append(ConceptLattice(**diamond_lattice_parts(["top", "x", "y", "bot"])))
    parts = diamond_lattice_parts(["bot", "x", "y", "top"])
    parts["iota_embed"] = FinFunction(parts["instances"], parts["lattice"].carrier, (3, 3))
    raws.append(ConceptLattice(**parts))  # both instances at the top: not join-dense
    rng = random.Random(31)
    for _ in range(40):
        lat = concept_lattice(random_classification(rng, 4))
        perm = list(range(lat.size))
        rng.shuffle(perm)
        raws.append(ConceptLattice(**relabelled_parts(lat, perm)))
    rng = random.Random(521)
    for _ in range(40):  # arbitrary embeddings, as in test_row_checks
        lat = concept_lattice(random_classification(rng, 5))
        labels = lat.lattice.carrier
        raws.append(replaced(
            lat, iota_embed=FinFunction(lat.instances, labels, tuple(
                rng.randrange(lat.size) for _ in range(lat.instances.size))),
            tau_embed=FinFunction(lat.types, labels, tuple(
                rng.randrange(lat.size) for _ in range(lat.types.size)))))
    return raws


def test_raw_lattices_of_the_other_tests_fail_as_the_oracle_says():
    verdicts = [assert_agrees_with_oracle(raw) for raw in raw_lattices_of_other_tests()]
    assert [] in verdicts and any(verdicts)
