"""Concept enumeration and the concept order against the code they replace.

``clg._concepts_lectic`` (the intersection closure of the lines of the
smaller side) and ``clg._inclusion_rows`` (inline bit loops) run here beside
the code they replaced, copied in as the oracles: FCbO, the later
Close-by-One over the smaller side with one closure per distinct child
intent, and the earlier ``_inclusion_rows``.  They are compared on every
shape up to 6 x 6 at three densities, on seeded 40 x 14, 14 x 40, 60 x 12
and 12 x 200 contexts, on contranominal-10 and -12, on empty carriers and
on the truth classifications of 1-4 variables, whose intents are wide.  The
concepts, their order and their carriers must be identical, and the size
bound must trip at the same concept count with the same text whichever
side is larger.
"""

import random

import pytest

from conceptua import clg
from conceptua.clg import FormalConcept, _too_many_concepts, concept_poset, concepts_of
from conceptua.clsn import Classification, involution_classification
from conceptua.errors import SizeLimitError
from conceptua.finrel import FinSet, Relation, Subset, _bits, derive_bits, meet_bits
from conceptua.institution import Signature, classification_of_signature
from conceptua.order import carrier_bound

DENSITIES = (0.2, 0.5, 0.8)


def carrier(prefix, n):
    return FinSet(tuple(f"{prefix}{i}" for i in range(n)))


def context(n_inst, n_typ, rows):
    inst, typ = carrier("g", n_inst), carrier("m", n_typ)
    return Classification(inst, typ, Relation(inst, typ, tuple(rows)))


def random_context(rng, n_inst, n_typ, density):
    return context(n_inst, n_typ, [
        sum(1 << j for j in range(n_typ) if rng.random() < density) for _ in range(n_inst)])


def contranominal(n):
    full = (1 << n) - 1
    return context(n, n, [full & ~(1 << i) for i in range(n)])


# -------------------------------------------------------------------- oracles


def fcbo_concepts(a):
    """The earlier ``_concepts_lectic``: FCbO over the instances, handing
    failed closures down, each closure one ``derive_bits``."""
    inst, typ = a.instances, a.types
    n = inst.size
    rows = a.incidence.rows
    cols = a.incidence.columns
    full_g, full_m = inst.full_mask, typ.full_mask
    extent = derive_bits(cols, rows, full_m, full_g)
    bound = carrier_bound()
    limit = 1 << min(bound, 64)
    out = []
    stack = [(extent, derive_bits(rows, cols, extent, full_m), 0, [0] * n)]
    while stack:
        extent, intent, start, failed = stack.pop()
        out.append((extent, intent))
        if len(out) > limit:
            raise _too_many_concepts(bound, limit)
        children = []
        handed = failed  # copied on the first new failure
        candidates = (full_g & ~extent) >> start << start
        while candidates:
            j = candidates.bit_length() - 1
            bit = 1 << j
            candidates ^= bit
            outside = (bit - 1) & ~extent
            if failed[j] & outside:
                continue
            child_intent = intent & rows[j]
            child = derive_bits(cols, rows, child_intent, full_g)
            if child & outside:
                if handed is failed:
                    handed = failed.copy()
                handed[j] = child
            else:
                children.append((child, child_intent, j + 1))
        stack.extend((e, b, y, handed) for e, b, y in reversed(children))
    return tuple(FormalConcept(Subset(inst, e), Subset(typ, t)) for e, t in out)


def cbo_pairs(rows, cols, full_row, full_col, bound):
    """The earlier ``_lectic_pairs``: Close-by-One with the candidates of a
    concept grouped by child intent, one AND-of-columns closure per group,
    a child kept when its lowest added object is a candidate of its group."""
    limit = 1 << min(bound, 64)
    extent = full_row
    for col in cols:
        extent &= col
    intent = full_col
    for g, row in enumerate(rows):
        if extent >> g & 1:
            intent &= row
    out = []
    stack = [(0, extent, intent)]
    while stack:
        start, extent, intent = stack.pop()
        out.append((extent, intent))
        if len(out) > limit:
            raise _too_many_concepts(bound, limit)
        groups = dict.fromkeys(map(intent.__and__, rows[start:]))
        groups.pop(intent, None)
        for child_intent in groups:
            child = full_row
            bits = child_intent
            while bits:
                low = bits & -bits
                child &= cols[low.bit_length() - 1]
                bits ^= low
            added = child ^ extent
            j = (added & -added).bit_length()  # the lowest added object, plus one
            if j > start and rows[j - 1] & intent == child_intent:
                stack.append((j, child, child_intent))
    return out


def cbo_concepts(a):
    """The earlier ``_concepts_lectic``: ``cbo_pairs`` over the smaller side,
    on the transpose when there are more instances than types, its pairs then
    swapped and sorted by the bit reversal of the extent."""
    inst, typ = a.instances, a.types
    rows, cols = a.incidence.rows, a.incidence.columns
    n, bound = inst.size, carrier_bound()
    if n > typ.size:
        pairs = [(e, t) for t, e in cbo_pairs(cols, rows, typ.full_mask, inst.full_mask, bound)]
        spelled = f"0{n}b"
        pairs.sort(key=lambda pair: format(pair[0], spelled)[::-1])
    else:
        pairs = cbo_pairs(rows, cols, inst.full_mask, typ.full_mask, bound)
    return tuple(FormalConcept(Subset(inst, e), Subset(typ, t)) for e, t in pairs)


def generator_inclusion_rows(extents, n_instances):
    """The earlier ``_inclusion_rows``: ``_bits`` and one ``meet_bits`` per row."""
    containing = [0] * n_instances
    for h, e in enumerate(extents):
        for g in _bits(e):
            containing[g] |= 1 << h
    full = (1 << len(extents)) - 1
    return tuple(meet_bits(containing, e, full) for e in extents)


# ---------------------------------------------------------------- comparisons


def assert_same_concepts(a):
    """New and old enumerations agree on ``a`` and on its transpose, with the
    same carriers, and the concept order rows agree with the old rows."""
    for c in (a, involution_classification(a)):
        found = clg._concepts_lectic(c)
        assert found == fcbo_concepts(c) == cbo_concepts(c)
        assert all(k.extent.carrier is c.instances and k.intent.carrier is c.types
                   for k in found)
        extents = [k.extent.bits for k in found]
        assert clg._inclusion_rows(extents, c.instances.size) == \
            generator_inclusion_rows(extents, c.instances.size)


def small_contexts():
    """Every shape up to 6 x 6, empty carriers included, at three densities."""
    rng = random.Random(1801)
    for n in range(7):
        for m in range(7):
            for density in DENSITIES:
                yield random_context(rng, n, m, density)


def test_every_shape_up_to_6x6_at_three_densities():
    for a in small_contexts():
        assert_same_concepts(a)


@pytest.mark.parametrize("shape", [(40, 14), (14, 40), (60, 12), (12, 200)])
def test_seeded_wide_and_tall_contexts(shape):
    rng = random.Random(1802 + shape[0])
    for density in (0.25, 0.3):
        assert_same_concepts(random_context(rng, *shape, density))


def test_contranominal_10():
    a = contranominal(10)
    assert len(clg._concepts_lectic(a)) == 1 << 10
    assert_same_concepts(a)


def test_contranominal_12():
    a = contranominal(12)
    assert len(clg._concepts_lectic(a)) == 1 << 12
    assert_same_concepts(a)


@pytest.mark.parametrize("n_inst, n_typ", [(0, 0), (0, 5), (5, 0)])
def test_empty_carriers(n_inst, n_typ):
    a = context(n_inst, n_typ, [0] * n_inst)
    assert [(c.extent.bits, c.intent.bits) for c in clg._concepts_lectic(a)] == \
        [(a.instances.full_mask, a.types.full_mask)]
    assert_same_concepts(a)


@pytest.mark.parametrize("n_vars, depth", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_truth_classifications(n_vars, depth):
    """Models against sentence types: intents of up to |types| bits, many
    more than the instances (8 models x 101 types at 3 variables)."""
    a = classification_of_signature(Signature.of(*"pqrs"[:n_vars]), depth)
    assert a.types.size > a.instances.size == 1 << n_vars
    assert_same_concepts(a)


def test_inclusion_rows_match_on_arbitrary_extent_lists():
    """``_closure_failure`` also reads rows of extents that are no closure
    system: repeated, unordered, empty."""
    rng = random.Random(1803)
    for _ in range(300):
        n = rng.randint(0, 7)
        extents = [rng.getrandbits(n) if n else 0 for _ in range(rng.randint(0, 12))]
        assert clg._inclusion_rows(extents, n) == generator_inclusion_rows(extents, n)


def size_error(enumerate_, a):
    try:
        enumerate_(a)
    except SizeLimitError as exc:
        return str(exc)
    return None


def test_size_bound_trips_at_the_same_count_whichever_side_is_larger(monkeypatch):
    """At each bound the error, or its absence, and its text are those of the
    old enumeration, on a context with more instances and on its transpose."""
    rng = random.Random(1804)
    tall = random_context(rng, 9, 5, 0.5)
    wide = involution_classification(tall)
    count = len(concepts_of(tall))
    assert count == len(concepts_of(wide)) > 8
    for bound in range(count.bit_length() + 1):
        monkeypatch.setenv("CONCEPTUA_MAX_CARRIER", str(bound))
        expected = size_error(fcbo_concepts, tall)
        assert (expected is None) == (count <= 1 << bound)
        for a in (tall, wide):
            assert size_error(clg._concepts_lectic, a) == expected == size_error(fcbo_concepts, a)


def test_concept_order_labels_are_one_carrier_per_size():
    """Two classifications with as many concepts share one label carrier,
    equal to the labels built afresh.  Other sizes get their own carrier,
    and sizes up to the same power of two share their label strings."""
    a = random_context(random.Random(1805), 6, 5, 0.5)
    twin = Classification(a.instances, a.types, Relation(a.instances, a.types, a.incidence.rows))
    k = len(concepts_of(a))
    labels = concept_poset(a)[0].carrier
    assert labels is concept_poset(twin)[0].carrier
    assert labels == FinSet(tuple(f"c{i}" for i in range(k)))
    for n in (2, 3, 4):
        assert concept_poset(contranominal(n))[0].carrier.elements == \
            tuple(f"c{i}" for i in range(1 << n))
    staircases = [concept_poset(context(n, n, [(1 << i + 1) - 1 for i in range(n)]))[0].carrier
                  for n in (5, 6, 7)]
    assert [c.elements for c in staircases] == [tuple(f"c{i}" for i in range(n)) for n in (5, 6, 7)]
    assert all(c.elements[4] is staircases[0].elements[4] for c in staircases)
