"""The bitset kernels against the definitions they replace.

Concept enumeration, the concept order, the cover relation, the power-set
derivation tables, the generator-only adjunction version of
``check_infomorphism`` and the mediator count of the pushout check each run
here beside a slow oracle: the earlier code path or the plain definition.
"""

import itertools
import random

import pytest

from conceptua import clg
from conceptua.clg import FormalConcept, concept_lattice, concept_poset, concepts_of, \
    validate_concept_lattice
from conceptua.clsn import Classification, Infomorphism, check_infomorphism, derivation
from conceptua.finrel import (
    FinFunction,
    FinSet,
    Relation,
    Subset,
    derive_bits,
    derive_forward,
    derive_reverse,
    image_bits,
    meet_bits,
    meet_table,
    preimage_bits,
)
from conceptua.galois import check_adjunction
from conceptua.institution import (
    MergeResult,
    MergeSpan,
    Signature,
    SignatureMorphism,
    TheoryObject,
    merge_theories,
    verify_pushout_universal,
)
from conceptua.order import Preorder, _all_preorders, hasse_edges


def carrier(prefix, n):
    return FinSet(tuple(f"{prefix}{i}" for i in range(n)))


def context(n_inst, n_typ, rows):
    inst, typ = carrier("g", n_inst), carrier("m", n_typ)
    return Classification(inst, typ, Relation(inst, typ, tuple(rows)))


def random_context(rng, n_inst, n_typ, density=0.5):
    return context(n_inst, n_typ, [
        sum(1 << j for j in range(n_typ) if rng.random() < density) for _ in range(n_inst)])


def seeded_contexts(count, max_side, seed):
    """Degenerate shapes first (0 x n, n x 0, empty and full incidence), then random ones."""
    out = [context(0, 0, []), context(0, 4, []), context(4, 0, [0] * 4),
           context(5, 4, [0] * 5), context(4, 5, [0b11111] * 4), context(1, 1, [1])]
    rng = random.Random(seed)
    while len(out) < count:
        n, m = rng.randint(1, max_side), rng.randint(1, max_side)
        out.append(random_context(rng, n, m, rng.choice((0.2, 0.5, 0.8))))
    return out


def contranominal(n):
    full = (1 << n) - 1
    return context(n, n, [full & ~(1 << i) for i in range(n)])


# ------------------------------------------------------------ concept enumeration


def nextclosure_concepts(a):
    """The earlier NextClosure: every closure through ``Subset`` and ``derive_*``."""
    n = a.instances.size

    def close(bits):
        fwd = derive_forward(a.incidence, Subset(a.instances, bits))
        return derive_reverse(a.incidence, fwd).bits

    def lectic_next(closed):
        for i in range(n - 1, -1, -1):
            if closed >> i & 1:
                continue
            candidate = close((closed & ((1 << i) - 1)) | (1 << i))
            if (candidate & ((1 << i) - 1)) == (closed & ((1 << i) - 1)) and candidate >> i & 1:
                return candidate
        return None

    extents = [close(0)]
    while (nxt := lectic_next(extents[-1])) is not None:
        extents.append(nxt)
    return tuple(FormalConcept(Subset(a.instances, e),
                               derive_forward(a.incidence, Subset(a.instances, e)))
                 for e in extents)


def test_concepts_of_matches_derive_nextclosure_on_seeded_contexts():
    contexts = seeded_contexts(48, 9, seed=404)
    for a in contexts:
        assert concepts_of(a) == nextclosure_concepts(a)


def int_nextclosure(a):
    """The earlier NextClosure on plain ints, without its size guard: the
    successor of extent A is the closure of (A below i) + i for the largest i
    outside A whose closure adds nothing below i."""
    n = a.instances.size
    rows = a.incidence.rows
    cols = a.incidence.columns
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


def fcbo_pairs(a):
    return [(c.extent.bits, c.intent.bits) for c in clg._concepts_lectic(a)]


def test_fcbo_matches_int_nextclosure_on_seeded_contexts():
    for a in seeded_contexts(48, 9, seed=404):
        assert fcbo_pairs(a) == int_nextclosure(a)


@pytest.mark.parametrize("n", [12, 14])
def test_fcbo_matches_int_nextclosure_on_contranominal(n):
    a = contranominal(n)
    pairs = fcbo_pairs(a)
    assert len(pairs) == 1 << n
    assert pairs == int_nextclosure(a)


def test_fcbo_matches_int_nextclosure_on_random_40x40():
    a = random_context(random.Random(414), 40, 40, 0.3)
    assert fcbo_pairs(a) == int_nextclosure(a)


def test_fcbo_matches_int_nextclosure_on_wide_shapes():
    """100 contexts of the shapes and densities of the lattice-wide workload."""
    rng = random.Random(415)
    shapes = ((24, 24), (40, 14), (14, 40), (30, 18), (18, 30))
    for k in range(100):
        a = random_context(rng, *shapes[k % 5], (0.25, 0.3)[k // 5 % 2])
        assert fcbo_pairs(a) == int_nextclosure(a)


class CountingLine(int):
    """An incidence line that counts the ANDs it is the left operand of."""

    def __and__(self, other):
        self.counts["ands"] += 1
        return int.__and__(self, other)


class CountingLines(tuple):
    """Incidence lines that count the lines read from them, by index and by
    iteration, and the ANDs made with them on the left."""

    def __new__(cls, lines):
        counts = {"ands": 0, "indexed": 0, "iterated": 0}
        counting = [CountingLine(line) for line in lines]
        for line in counting:
            line.counts = counts
        out = super().__new__(cls, counting)
        out.counts = counts
        return out

    def __getitem__(self, key):
        if isinstance(key, int):
            self.counts["indexed"] += 1
        return tuple.__getitem__(self, key)

    def __iter__(self):
        for line in tuple.__iter__(self):
            self.counts["iterated"] += 1
            yield line


def test_enumeration_work_is_bounded_by_the_concepts_and_the_smaller_side():
    """The closure makes at most n_small x |concepts| ANDs with the lines of
    the smaller side, and deriving the closed sets reads at most
    sum(min(|c|, n_small)) lines: the other side's lines over the bits of c
    by index, or a scan of the n_small lines.  The closure iterates the
    small side once, so the iterations past that first n_small are scans,
    one AND each.  Checked on both orientations: 10 x 8 closes over the
    columns and 8 x 10 over the rows."""
    for n_inst, n_typ in ((10, 8), (8, 10)):
        a = random_context(random.Random(416), n_inst, n_typ, 0.4)
        rows, cols = CountingLines(a.incidence.rows), CountingLines(a.incidence.columns)
        counted = Relation(a.instances, a.types, a.incidence.rows)
        object.__setattr__(counted, "rows", rows)
        counted.__dict__["columns"] = cols
        found = [(c.extent.bits, c.intent.bits)
                 for c in clg._concepts_lectic(Classification(a.instances, a.types, counted))]
        assert found == int_nextclosure(a)
        assert len(found) > 10
        small, other = (rows, cols) if n_inst <= n_typ else (cols, rows)
        n_small = len(small)
        closed = [t if small is rows else e for e, t in found]
        scans = small.counts["iterated"] - n_small
        closure_ands = small.counts["ands"] - scans
        assert 0 < closure_ands <= n_small * len(found)
        derivation_reads = other.counts["indexed"] + scans
        assert 0 < other.counts["indexed"] and 0 < scans
        assert derivation_reads <= sum(min(c.bit_count(), n_small) for c in closed)
        assert other.counts["ands"] == small.counts["indexed"] == 0


# ----------------------------------------------------------------- concept order


def test_concept_poset_rows_are_pairwise_extent_inclusion():
    for a in seeded_contexts(40, 8, seed=405):
        poset, concepts = concept_poset(a)
        assert concepts == concepts_of(a)
        for i, c1 in enumerate(concepts):
            assert poset.leq.rows[i] == sum(
                1 << j for j, c2 in enumerate(concepts) if c1.extent.bits & ~c2.extent.bits == 0)


# ---------------------------------------------------------------------- covers


def cubic_hasse_edges(p):
    """The O(n^3) definition: j strictly above i with nothing strictly between."""
    n = p.size
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or not p.le_idx(i, j) or p.le_idx(j, i):
                continue
            if any(k != i and k != j and p.le_idx(i, k) and p.le_idx(k, j)
                   and not p.le_idx(k, i) and not p.le_idx(j, k) for k in range(n)):
                continue
            edges.append((i, j))
    return edges


def test_hasse_edges_match_cubic_definition_on_all_preorders_up_to_4():
    count = 0
    for p in _all_preorders(4):
        assert hasse_edges(p) == cubic_hasse_edges(p)
        count += 1
    assert count == 1 + 1 + 4 + 29 + 355


def test_hasse_edges_match_cubic_definition_on_random_preorders():
    rng = random.Random(406)
    seen_equivalent = 0
    for _ in range(150):
        n = rng.randint(1, 12)
        c = carrier("e", n)
        pairs = [(c.elements[rng.randrange(n)], c.elements[rng.randrange(n)])
                 for _ in range(rng.randint(0, 2 * n))]
        p = Preorder.from_pairs(c, pairs)
        seen_equivalent += not p.is_poset()
        assert hasse_edges(p) == cubic_hasse_edges(p)
    assert seen_equivalent > 20  # the sample holds many non-antisymmetric preorders


def test_hasse_edges_match_cubic_definition_on_concept_orders():
    for a in seeded_contexts(20, 7, seed=407):
        poset, _ = concept_poset(a)
        assert hasse_edges(poset) == cubic_hasse_edges(poset)


# ------------------------------------------------------------ power-set tables


def test_meet_table_matches_meet_bits_and_derivation():
    rng = random.Random(408)
    for a in seeded_contexts(30, 6, seed=408):
        cols = [a.incidence.fiber10(j).bits for j in range(a.types.size)]
        fwd = meet_table(a.incidence.rows, a.types.full_mask)
        rev = meet_table(cols, a.instances.full_mask)
        assert fwd == [derive_forward(a.incidence, Subset(a.instances, x)).bits
                       for x in range(1 << a.instances.size)]
        assert rev == [derive_reverse(a.incidence, Subset(a.types, y)).bits
                       for y in range(1 << a.types.size)]
        x = rng.randrange(1 << a.instances.size)
        assert meet_bits(a.incidence.rows, x, a.types.full_mask) == fwd[x]


def relation_sides(n_rows, n_cols, rows):
    rows = tuple(rows)
    cols = tuple(sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(n_cols))
    return rows, cols


def assert_derive_bits_matches_meet_bits(rows, cols, masks_of_rows, masks_of_cols):
    """Both derivations, from both sides of the relation, on the given masks."""
    full_cols, full_rows = (1 << len(cols)) - 1, (1 << len(rows)) - 1
    for x in masks_of_rows:
        assert derive_bits(rows, cols, x, full_cols) == meet_bits(rows, x, full_cols)
    for y in masks_of_cols:
        assert derive_bits(cols, rows, y, full_rows) == meet_bits(cols, y, full_rows)


def test_derive_bits_matches_meet_bits_on_every_relation_up_to_3x3():
    """Every mask of both sides, so each side of the size threshold is taken."""
    checked = 0
    for n_rows, n_cols in itertools.product(range(4), repeat=2):
        for rows in itertools.product(range(1 << n_cols), repeat=n_rows):
            sides = relation_sides(n_rows, n_cols, rows)
            assert_derive_bits_matches_meet_bits(*sides, range(1 << n_rows), range(1 << n_cols))
            checked += 1
    assert checked == sum(1 << (r * c) for r in range(4) for c in range(4))


def threshold_masks(rng, n, threshold):
    """0, the full mask, and masks of |threshold| - 1, |threshold| and
    |threshold| + 1 bits (where they fit), plus a few random ones."""
    masks = [0, (1 << n) - 1] + [rng.getrandbits(n) if n else 0 for _ in range(4)]
    for k in (threshold - 1, threshold, threshold + 1):
        if 0 <= k <= n:
            masks.append(sum(1 << i for i in rng.sample(range(n), k)))
    return masks


def test_derive_bits_matches_meet_bits_on_seeded_relations():
    rng = random.Random(417)
    shapes = [(4, 60), (60, 4)] * 10 + [(rng.randint(0, 30), rng.randint(0, 30))
                                        for _ in range(180)]
    crossed = set()
    for n_rows, n_cols in shapes:
        density = rng.choice((0.1, 0.5, 0.9))
        rows = [sum(1 << j for j in range(n_cols) if rng.random() < density)
                for _ in range(n_rows)]
        rows, cols = relation_sides(n_rows, n_cols, rows)
        row_masks = threshold_masks(rng, n_rows, n_cols)
        col_masks = threshold_masks(rng, n_cols, n_rows)
        assert_derive_bits_matches_meet_bits(rows, cols, row_masks, col_masks)
        crossed |= {x.bit_count() < n_cols for x in row_masks}
    assert len(shapes) == 200 and crossed == {True, False}


def test_derivation_and_concept_lattice_tables_pass_the_full_checks():
    for a in seeded_contexts(40, 6, seed=409):
        d = derivation(a)
        assert check_adjunction(d.left, d.right) is not None
        lat = concept_lattice(a)
        assert validate_concept_lattice(lat) == []

        def close(bits):
            return derive_reverse(a.incidence, derive_forward(a.incidence,
                                                              Subset(a.instances, bits))).bits

        pos = {c.extent.bits: k for k, c in enumerate(lat.concepts)}
        assert lat.extent_reflection.left.func.table == tuple(
            pos[close(x)] for x in range(1 << a.instances.size))
        assert lat.intent_coreflection.right.func.table == tuple(
            pos[derive_reverse(a.incidence, Subset(a.types, y)).bits]
            for y in range(1 << a.types.size))


def eager_adjunction_tables(a):
    """The earlier ``concept_lattice``: both power orders and all four tables at once."""
    from conceptua.order import power_order

    lattice, concepts = concept_poset(a)
    pos = {c.extent.bits: k for k, c in enumerate(concepts)}
    ipower = power_order(a.instances)
    tpower_op = power_order(a.types, reverse=True)
    intent_of = meet_table(a.incidence.rows, a.types.full_mask)
    extent_of = meet_table([a.incidence.fiber10(j).bits for j in range(a.types.size)],
                           a.instances.full_mask)
    embed_src = tuple(pos[extent_of[m]] for m in intent_of)
    embed_tgt = tuple(pos[e] for e in extent_of)
    return {
        "orders": (ipower, lattice, tpower_op),
        "tables": (embed_src, tuple(c.extent.bits for c in concepts),
                   tuple(c.intent.bits for c in concepts), embed_tgt),
        "iota": tuple(embed_src[1 << i] for i in range(a.instances.size)),
        "tau": tuple(embed_tgt[1 << t] for t in range(a.types.size)),
    }


def test_lazy_adjunctions_equal_the_eager_tables_on_seeded_contexts():
    for a in seeded_contexts(40, 6, seed=409) + seeded_contexts(20, 9, seed=404):
        lat = concept_lattice(a)
        eager = eager_adjunction_tables(a)
        assert (lat.iota_embed.table, lat.tau_embed.table) == (eager["iota"], eager["tau"])
        ext, inten = lat.extent_reflection, lat.intent_coreflection
        assert (ext.source, ext.target, inten.target) == eager["orders"]
        assert (ext.left.func.table, ext.right.func.table, inten.left.func.table,
                inten.right.func.table) == eager["tables"]


# -------------------------------------------------------- infomorphism versions


def exhaustive_versions(f):
    """All three versions by definition, the adjunction one over every subset."""
    a, b = f.source, f.target
    relation = all(
        a.incidence.holds_idx(f.inst_map.table[x], y) == b.incidence.holds_idx(x, f.typ_map.table[y])
        for x in range(b.instances.size) for y in range(a.types.size))
    morphism = all(
        preimage_bits(f.inst_map, a.incidence.fiber10(y).bits)
        == b.incidence.fiber10(f.typ_map.table[y]).bits for y in range(a.types.size)
    ) and all(
        preimage_bits(f.typ_map, b.incidence.rows[x]) == a.incidence.rows[f.inst_map.table[x]]
        for x in range(b.instances.size))

    def intent(c, bits):
        return derive_forward(c.incidence, Subset(c.instances, bits)).bits

    def extent(c, bits):
        return derive_reverse(c.incidence, Subset(c.types, bits)).bits

    adjunction = all(
        intent(a, image_bits(f.inst_map, xbits)) == preimage_bits(f.typ_map, intent(b, xbits))
        for xbits in range(1 << b.instances.size)
    ) and all(
        preimage_bits(f.inst_map, extent(a, ybits)) == extent(b, image_bits(f.typ_map, ybits))
        for ybits in range(1 << a.types.size))
    return relation, morphism, adjunction


def all_functions(source, target):
    for table in itertools.product(range(target.size), repeat=source.size):
        yield FinFunction(source, target, table)


def verdicts(f):
    rep = check_infomorphism(f)
    return rep.relation_version, rep.morphism_version, rep.adjunction_version


def test_infomorphism_verdicts_match_exhaustive_oracle_on_every_map_pair():
    rng = random.Random(410)
    shapes = [((3, 3), (3, 3)), ((3, 3), (3, 3)), ((3, 2), (2, 3)), ((1, 3), (3, 1))]
    shapes += [((rng.randint(1, 3), rng.randint(1, 3)), (rng.randint(1, 3), rng.randint(1, 3)))
               for _ in range(8)]
    valid = 0
    for shape_a, shape_b in shapes:
        a, b = random_context(rng, *shape_a), random_context(rng, *shape_b)
        for src, tgt in ((a, b), (a, a)):
            for inst_map in all_functions(tgt.instances, src.instances):
                for typ_map in all_functions(src.types, tgt.types):
                    f = Infomorphism(src, tgt, inst_map, typ_map)
                    expected = exhaustive_versions(f)
                    assert verdicts(f) == expected
                    valid += all(expected)
    assert valid > 0


def test_infomorphism_verdicts_match_exhaustive_oracle_on_random_maps_up_to_5x5():
    rng = random.Random(411)
    invalid = 0
    for _ in range(200):
        a = random_context(rng, rng.randint(1, 5), rng.randint(1, 5))
        b = random_context(rng, rng.randint(1, 5), rng.randint(1, 5))
        inst_map = FinFunction(b.instances, a.instances, tuple(
            rng.randrange(a.instances.size) for _ in range(b.instances.size)))
        typ_map = FinFunction(a.types, b.types, tuple(
            rng.randrange(b.types.size) for _ in range(a.types.size)))
        f = Infomorphism(a, b, inst_map, typ_map)
        expected = exhaustive_versions(f)
        assert verdicts(f) == expected
        invalid += not all(expected)
    assert invalid > 150


# ----------------------------------------------------------- pushout mediators


def enumerated_pushout_failures(span, result, targets):
    """The earlier search: every candidate mediator out of the pushout, enumerated."""
    def maps(source, target):
        for table in itertools.product(range(target.size), repeat=source.size):
            yield SignatureMorphism(source, target, FinFunction(source.vars, target.vars, table))

    failures = []
    for tgt in targets:
        for m1 in maps(span.left_map.target, tgt):
            for m2 in maps(span.right_map.target, tgt):
                if span.left_map.then(m1).map.table != span.right_map.then(m2).map.table:
                    continue
                mediators = [h for h in maps(result.signature, tgt)
                             if result.left_injection.then(h).map.table == m1.map.table
                             and result.right_injection.then(h).map.table == m2.map.table]
                if len(mediators) != 1:
                    failures.append(f"cocone into {tgt.vars.elements} has {len(mediators)} mediators")
    return failures


def random_span(rng, n_base, n_left, n_right):
    base = Signature.of(*(f"b{i}" for i in range(n_base)))
    left = Signature.of(*(f"l{i}" for i in range(n_left)))
    right = Signature.of(*(f"r{i}" for i in range(n_right)))

    def leg(target):
        return SignatureMorphism(base, target, FinFunction(base.vars, target.vars, tuple(
            rng.randrange(target.size) for _ in range(base.size))))

    return MergeSpan(base, leg(left), leg(right),
                     TheoryObject.of_mask(left, rng.getrandbits(1 << n_left)),
                     TheoryObject.of_mask(right, rng.getrandbits(1 << n_right)))


TARGETS = [Signature.of(*"xyz"[:k]) for k in range(1, 4)]


def test_mediator_count_matches_enumeration_on_random_spans():
    rng = random.Random(412)
    for _ in range(25):
        n_left, n_right = rng.randint(1, 2), rng.randint(1, 2)
        span = random_span(rng, rng.randint(0, min(n_left, n_right)), n_left, n_right)
        result = merge_theories(span)
        assert verify_pushout_universal(span, result, TARGETS) == []
        assert enumerated_pushout_failures(span, result, TARGETS) == []


def test_mediator_count_matches_enumeration_on_broken_cocones():
    rng = random.Random(413)
    for _ in range(10):
        span = random_span(rng, 1, 2, 2)
        good = merge_theories(span)
        # One extra pushout variable leaves |target| mediators per cocone;
        # sending both sides to one variable leaves conflicts with none.
        extra = Signature.of(*good.signature.vars.elements, "extra")
        widened = MergeResult(
            extra,
            SignatureMorphism(good.left_injection.source, extra, FinFunction(
                good.left_injection.source.vars, extra.vars, good.left_injection.map.table)),
            SignatureMorphism(good.right_injection.source, extra, FinFunction(
                good.right_injection.source.vars, extra.vars, good.right_injection.map.table)),
            TheoryObject.of_mask(extra, 0), True)
        point = Signature.of("o")
        collapsed = MergeResult(
            point,
            SignatureMorphism(span.left_map.target, point, FinFunction(
                span.left_map.target.vars, point.vars, (0,) * span.left_map.target.size)),
            SignatureMorphism(span.right_map.target, point, FinFunction(
                span.right_map.target.vars, point.vars, (0,) * span.right_map.target.size)),
            TheoryObject.of_mask(point, 0), True)
        for result in (widened, collapsed):
            got = verify_pushout_universal(span, result, TARGETS)
            assert got
            assert got == enumerated_pushout_failures(span, result, TARGETS)


# -------------------------------------------------------------- time budgets


def test_contranominal_12_covers_within_budget(time_budget):
    with time_budget(10):
        poset, concepts = concept_poset(contranominal(12))
        edges = hasse_edges(poset)
    assert len(concepts) == 4096
    assert len(edges) == 24576
    assert all(concepts[j].extent.bits == concepts[i].extent.bits | concepts[j].extent.bits
               and (concepts[j].extent.bits & ~concepts[i].extent.bits).bit_count() == 1
               for i, j in edges)


def test_random_40x40_pipeline_within_budget(time_budget):
    a = random_context(random.Random(414), 40, 40, 0.3)
    with time_budget(10):
        concepts = concepts_of(a)
        poset, poset_concepts = concept_poset(a)
        edges = hasse_edges(poset)
    assert poset_concepts == concepts
    assert len(concepts) > 1000
    assert len(edges) >= len(concepts) - 1


def test_time_budget_fails_an_overrun(time_budget):
    with pytest.raises(pytest.fail.Exception, match="time budget"):
        with time_budget(0.05):
            while True:
                pass
