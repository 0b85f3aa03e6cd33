"""Concept lattices: enumeration, round trips, morphisms, joins/meets."""

import random

import pytest

from conceptua.errors import NotAConceptLatticeError
from conceptua.finrel import FinFunction, FinSet, Relation, Subset, finset
from conceptua.galois import polar_factorize
from conceptua.order import Poset, Preorder, poset_join, poset_meet
from conceptua.clsn import (
    Classification,
    derivation,
    enumerate_infomorphisms,
    identity_infomorphism,
    order_as_classification,
)
from conceptua.clg import (
    ConceptLattice,
    FormalConcept,
    classification_of,
    compose_concept_morphisms,
    concept_lattice,
    concept_lattice_from_parts,
    concept_morphism_of,
    concepts_of,
    diagonal_of_infomorphism,
    lattice_joins_meets,
    lattice_roundtrip_iso,
    lattice_to_dot,
    lattice_to_json,
    validate_concept_lattice,
)
from conceptua.verify import random_classification

WORKED = Classification.of(["1", "2"], ["a", "b"], [("1", "a"), ("1", "b"), ("2", "b")])


def brute_force_concepts(a: Classification):
    """All-subsets oracle over plain Python sets, independent of the bitset
    derivation code: every (extent, intent) pair with X'' = X."""
    import itertools as it

    objs = list(a.instances.elements)
    atts = list(a.types.elements)
    incident = set(a.incidence.pairs())

    def fwd(xs):
        return frozenset(t for t in atts if all((o, t) in incident for o in xs))

    def rev(ys):
        return frozenset(o for o in objs if all((o, t) in incident for t in ys))

    out = []
    for k in range(len(objs) + 1):
        for xs in it.combinations(objs, k):
            intent = fwd(frozenset(xs))
            if rev(intent) == frozenset(xs):
                ext_bits = sum(1 << objs.index(o) for o in xs)
                int_bits = sum(1 << atts.index(t) for t in intent)
                out.append((ext_bits, int_bits))
    return sorted(out)


def contranominal(n):
    objs = [str(i) for i in range(n)]
    atts = [f"a{i}" for i in range(n)]
    return Classification.of(objs, atts,
                             [(o, t) for o in objs for t in atts
                              if objs.index(o) != atts.index(t)])


def nominal(n):
    objs = [str(i) for i in range(n)]
    atts = [f"a{i}" for i in range(n)]
    return Classification.of(objs, atts,
                             [(o, t) for o in objs for t in atts
                              if objs.index(o) == atts.index(t)])


# -------------------------------------------------------------- enumeration


def test_worked_context_concepts():
    lat = concept_lattice(WORKED)
    got = [(c.extent.labels(), c.intent.labels()) for c in lat.concepts]
    assert got == [(("1",), ("a", "b")), (("1", "2"), ("b",))]


def test_contranominal_3_is_boolean():
    lat = concept_lattice(contranominal(3))
    assert lat.size == 8
    assert sorted(c.extent.bits for c in lat.concepts) == list(range(8))


def test_nominal_3_has_five_concepts():
    assert concept_lattice(nominal(3)).size == 5


def test_counts_match_brute_force_oracle():
    rng = random.Random(0)
    for _ in range(100):
        a = random_classification(rng, 5)
        lat = concept_lattice(a)
        assert sorted((c.extent.bits, c.intent.bits) for c in lat.concepts) == \
            brute_force_concepts(a)


def test_concepts_are_in_lectic_order_of_extents():
    # lectic: the first differing instance (by index) belongs to the later set
    def lectic_key(bits, n):
        return tuple((bits >> i) & 1 for i in range(n))

    rng = random.Random(1)
    for _ in range(50):
        a = random_classification(rng, 5)
        lat = concept_lattice(a)
        n = a.instances.size
        keys = [lectic_key(c.extent.bits, n) for c in lat.concepts]
        assert keys == sorted(keys)


def test_empty_1x1_context_has_two_concepts():
    # the bipole definition forces both (empty, {t}) and ({1}, empty)
    a = Classification.of(["1"], ["t"], [])
    lat = concept_lattice(a)
    assert lat.size == 2
    assert brute_force_concepts(a) == [(0, 0b1), (0b1, 0)]
    # the round trip still recovers the all-false incidence exactly
    assert classification_of(lat) == a
    assert classification_of(lat).incidence.count() == 0


def test_extent_monotone_intent_antitone_and_intersection_closed():
    rng = random.Random(21)
    for _ in range(60):
        a = random_classification(rng, 5)
        lat = concept_lattice(a)
        extents = {c.extent.bits for c in lat.concepts}
        intents = {c.intent.bits for c in lat.concepts}
        for i in range(lat.size):
            for j in range(lat.size):
                if lat.lattice.le_idx(i, j):
                    assert lat.extent(i) <= lat.extent(j)
                    assert lat.intent(j) <= lat.intent(i)
                assert (lat.extent(i).bits & lat.extent(j).bits) in extents
                assert (lat.intent(i).bits & lat.intent(j).bits) in intents


def test_degenerate_contexts():
    empty = Classification.of([], [], [])
    lat = concept_lattice(empty)
    assert lat.size == 1
    assert classification_of(lat) == empty
    no_types = Classification.of(["1", "2"], [], [])
    lat2 = concept_lattice(no_types)
    assert lat2.size == 1
    assert lat2.concepts[0].extent.bits == 0b11
    assert classification_of(lat2) == no_types


def test_iota_tau_are_bimodule_embeddings():
    # the instance embedding is the meet-collapse of the instance-of bimodule,
    # and the type embedding the join-collapse of the of-type bimodule
    from conceptua.finrel import Relation
    from conceptua.order import (
        OrderBimodule,
        bimodule_01_embedding,
        bimodule_10_embedding,
    )

    rng = random.Random(22)
    for _ in range(25):
        a = random_classification(rng, 4)
        lat = concept_lattice(a)
        inst_disc = Preorder.discrete(lat.instances)
        typ_disc = Preorder.discrete(lat.types)
        instance_of = Relation(lat.instances, lat.lattice.carrier, tuple(
            sum(1 << k for k in range(lat.size) if lat.instance_of(i, k))
            for i in range(lat.instances.size)))
        of_type = Relation(lat.lattice.carrier, lat.types, tuple(
            sum(1 << t for t in range(lat.types.size) if lat.of_type(k, t))
            for k in range(lat.size)))
        iota = bimodule_01_embedding(OrderBimodule(inst_disc, lat.lattice, instance_of))
        assert iota.func.table == lat.iota_embed.table
        tau = bimodule_10_embedding(OrderBimodule(lat.lattice, typ_disc, of_type))
        assert tau.func.table == lat.tau_embed.table


def test_every_concept_is_a_bipole():
    from conceptua.finrel import derive_forward, derive_reverse

    rng = random.Random(2)
    for _ in range(50):
        a = random_classification(rng, 5)
        for c in concept_lattice(a).concepts:
            assert derive_forward(a.incidence, c.extent) == c.intent
            assert derive_reverse(a.incidence, c.intent) == c.extent


# --------------------------------------------------------------- round trip


def test_classification_roundtrip_on_500_random_contexts():
    rng = random.Random(3)
    for _ in range(500):
        a = random_classification(rng, 6)
        assert classification_of(concept_lattice(a)) == a


def test_order_as_classification_roundtrip():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 5)
        carrier = FinSet(tuple(f"e{i}" for i in range(n)))
        pairs = [(carrier.elements[rng.randrange(n)], carrier.elements[rng.randrange(n)])
                 for _ in range(rng.randint(0, 2 * n))]
        a = order_as_classification(Preorder.from_pairs(carrier, pairs))
        assert classification_of(concept_lattice(a)) == a


def test_generated_lattice_passes_all_invariants():
    rng = random.Random(5)
    for _ in range(40):
        a = random_classification(rng, 4)
        assert validate_concept_lattice(concept_lattice(a)) == []


def test_lattice_equals_polar_factorization_of_derivation():
    rng = random.Random(6)
    for _ in range(40):
        a = random_classification(rng, 4)
        lat = concept_lattice(a)
        pf = polar_factorize(derivation(a))
        assert lat.size == len(pf.bipoles)
        # same concepts: polar bipoles are (extent bits, intent index in the
        # reversed type power, which is also the intent bits)
        assert sorted(c.extent.bits for c in lat.concepts) == \
            sorted(b for b, _ in pf.bipoles)
        for (ext_bits, int_bits) in pf.bipoles:
            k = [c.extent.bits for c in lat.concepts].index(ext_bits)
            assert lat.concepts[k].intent.bits == int_bits


# --------------------------------------------------------- concept morphisms


def test_identity_infomorphism_gives_identity_connection():
    rng = random.Random(7)
    for _ in range(20):
        a = random_classification(rng, 3)
        h = concept_morphism_of(identity_infomorphism(a))
        assert h.connection.left.func.table == tuple(range(h.source.size))
        assert h.connection.right.func.table == tuple(range(h.source.size))
        assert h.check() == []


def test_concept_morphism_dual_formulas_on_200_random_infomorphisms():
    rng = random.Random(8)
    done = 0
    while done < 200:
        a = random_classification(rng, 4)
        b = random_classification(rng, 4)
        try:
            infos = enumerate_infomorphisms(a, b, max_results=3000)
        except Exception:
            continue
        if not infos:
            continue
        f = rng.choice(infos)
        h = concept_morphism_of(f)  # raises if the dual formulas disagree
        assert h.check() == []
        done += 1


def test_connection_agrees_with_derivation_square_diagonal():
    # squares from random infomorphisms between contexts up to 4x4
    rng = random.Random(9)
    done = 0
    while done < 30:
        a = random_classification(rng, 4)
        b = random_classification(rng, 4)
        try:
            infos = enumerate_infomorphisms(a, b, max_results=2000)
        except Exception:
            continue
        if not infos:
            continue
        f = rng.choice(infos)
        h = concept_morphism_of(f)
        d = diagonal_of_infomorphism(f)
        pf_a = polar_factorize(derivation(a))
        pf_b = polar_factorize(derivation(b))
        exts_b = [c.extent.bits for c in h.target.concepts]
        exts_a = [c.extent.bits for c in h.source.concepts]
        for k, (closed_bits, _) in enumerate(pf_b.bipoles):
            via_d = pf_a.bipoles[d.left.func.table[k]][0]
            via_h = exts_a[h.connection.left.func.table[exts_b.index(closed_bits)]]
            assert via_d == via_h
        done += 1


def test_concept_morphisms_compose_functorially():
    rng = random.Random(10)
    done = 0
    while done < 15:
        a = random_classification(rng, 2)
        b = random_classification(rng, 2)
        c = random_classification(rng, 2)
        fs = enumerate_infomorphisms(a, b)
        gs = enumerate_infomorphisms(b, c)
        if not fs or not gs:
            continue
        from conceptua.clsn import compose_infomorphisms

        f, g = rng.choice(fs), rng.choice(gs)
        direct = concept_morphism_of(compose_infomorphisms(f, g))
        composed = compose_concept_morphisms(concept_morphism_of(f), concept_morphism_of(g))
        assert direct.connection.left.func.table == composed.connection.left.func.table
        assert direct.connection.right.func.table == composed.connection.right.func.table
        done += 1


# ------------------------------------------------------------- joins/meets


def test_joins_meets_empty_set_gives_bottom_and_top():
    lat = concept_lattice(contranominal(3))
    join_k, meet_k = lattice_joins_meets(lat, Subset.empty(lat.lattice.carrier))
    assert join_k == poset_join(lat.lattice, Subset.empty(lat.lattice.carrier))
    assert lat.concepts[join_k].extent.bits == 0  # bottom
    assert lat.concepts[meet_k].extent.bits == lat.instances.full_mask  # top


def test_join_of_contranominal_atoms_is_top():
    lat = concept_lattice(contranominal(3))
    atoms = [k for k, c in enumerate(lat.concepts) if c.extent.size == 1]
    assert len(atoms) == 3
    members = Subset(lat.lattice.carrier, sum(1 << k for k in set(atoms)))
    join_k, _ = lattice_joins_meets(lat, members)
    assert lat.concepts[join_k].extent.bits == lat.instances.full_mask


def test_joins_meets_agree_with_bound_search_on_500_cases():
    rng = random.Random(11)
    for _ in range(500):
        a = random_classification(rng, 4)
        lat = concept_lattice(a)
        members = Subset(lat.lattice.carrier, rng.randrange(1 << lat.size))
        join_k, meet_k = lattice_joins_meets(lat, members)
        assert join_k == poset_join(lat.lattice, members)
        assert meet_k == poset_meet(lat.lattice, members)


# ----------------------------------------------------- manual constructions


def diamond_lattice_parts(order_labels):
    """A hand-built 4-element diamond with instances/types at the two atoms.

    ``order_labels`` maps the roles (bot, x, y, top) to carrier positions so
    tests can scramble the element order.
    """
    roles = {"bot": order_labels.index("bot"), "x": order_labels.index("x"),
             "y": order_labels.index("y"), "top": order_labels.index("top")}
    carrier = FinSet(tuple(order_labels))
    rows = [0] * 4
    leq_pairs = [("bot", "bot"), ("bot", "x"), ("bot", "y"), ("bot", "top"),
                 ("x", "x"), ("x", "top"), ("y", "y"), ("y", "top"), ("top", "top")]
    for lo, hi in leq_pairs:
        rows[roles[lo]] |= 1 << roles[hi]
    lattice = Poset(carrier, Relation(carrier, carrier, tuple(rows)))

    instances = finset("i1", "i2")
    types = finset("t1", "t2")
    concepts = [None] * 4
    concepts[roles["bot"]] = FormalConcept(Subset.of(instances, []), Subset.of(types, ["t1", "t2"]))
    concepts[roles["x"]] = FormalConcept(Subset.of(instances, ["i1"]), Subset.of(types, ["t1"]))
    concepts[roles["y"]] = FormalConcept(Subset.of(instances, ["i2"]), Subset.of(types, ["t2"]))
    concepts[roles["top"]] = FormalConcept(Subset.of(instances, ["i1", "i2"]), Subset.of(types, []))

    iota = FinFunction(instances, carrier, (roles["x"], roles["y"]))
    tau = FinFunction(types, carrier, (roles["x"], roles["y"]))
    return dict(
        instances=instances, types=types, lattice=lattice, concepts=tuple(concepts),
        iota_embed=iota, tau_embed=tau,
    )


def test_manual_diamond_lattice_is_accepted_with_nontrivial_iso():
    parts = diamond_lattice_parts(["top", "x", "y", "bot"])
    lat = concept_lattice_from_parts(**parts)
    iso = lattice_roundtrip_iso(lat)
    assert iso.forward.table != tuple(range(4))  # scrambled order forces a real iso
    # verified both ways
    assert iso.forward.then(iso.backward).table == tuple(range(4))
    assert iso.backward.then(iso.forward).table == tuple(range(4))


def test_roundtrip_iso_is_identity_on_generated_lattices():
    rng = random.Random(12)
    for _ in range(30):
        a = random_classification(rng, 4)
        lat = concept_lattice(a)
        iso = lattice_roundtrip_iso(lat)
        assert iso.forward.table == tuple(range(lat.size))


def relabelled_parts(lat, perm):
    """The parts of ``lat`` with concept k moved to carrier position perm[k]."""
    n = lat.size
    inv = [0] * n
    for k, j in enumerate(perm):
        inv[j] = k
    carrier = FinSet(tuple(f"d{j}" for j in range(n)))
    rows = tuple(sum(1 << perm[m] for m in range(n) if lat.lattice.le_idx(inv[j], m))
                 for j in range(n))
    return dict(
        instances=lat.instances, types=lat.types,
        lattice=Poset(carrier, Relation(carrier, carrier, rows)),
        concepts=tuple(lat.concepts[inv[j]] for j in range(n)),
        iota_embed=FinFunction(lat.instances, carrier,
                               tuple(perm[k] for k in lat.iota_embed.table)),
        tau_embed=FinFunction(lat.types, carrier, tuple(perm[k] for k in lat.tau_embed.table)),
    )


def test_roundtrip_iso_is_mutually_inverse_on_relabelled_lattices():
    rng = random.Random(31)
    for _ in range(40):
        lat = concept_lattice(random_classification(rng, 4))
        perm = list(range(lat.size))
        rng.shuffle(perm)
        moved = concept_lattice_from_parts(**relabelled_parts(lat, perm))
        iso = lattice_roundtrip_iso(moved)
        assert iso.forward.table == tuple(perm)
        assert iso.forward.then(iso.backward).table == tuple(range(lat.size))
        assert iso.backward.then(iso.forward).table == tuple(range(lat.size))


def test_non_join_dense_embedding_is_rejected():
    parts = diamond_lattice_parts(["bot", "x", "y", "top"])
    # break join-density: embed both instances at the top
    top_idx = 3
    parts["iota_embed"] = FinFunction(parts["instances"], parts["lattice"].carrier,
                                      (top_idx, top_idx))
    with pytest.raises(NotAConceptLatticeError):
        concept_lattice_from_parts(**parts)
    raw = ConceptLattice(**parts)
    failures = validate_concept_lattice(raw)
    assert any("join-dense" in f for f in failures)
    with pytest.raises(NotAConceptLatticeError):
        lattice_roundtrip_iso(raw)


# ------------------------------------------------------------------- export


def test_lattice_json_and_dot_export():
    lat = concept_lattice(WORKED)
    data = lattice_to_json(lat)
    assert data["objects"] == ["1", "2"]
    assert data["attributes"] == ["a", "b"]
    assert data["concepts"] == [
        {"extent": [0], "intent": [0, 1]},
        {"extent": [0, 1], "intent": [1]},
    ]
    assert data["cover"] == [[0, 1]]
    dot = lattice_to_dot(lat)
    assert 'label="{1}|{a,b}"' in dot
    assert "n0 -> n1;" in dot


def test_concepts_of_matches_concept_lattice():
    rng = random.Random(13)
    for _ in range(30):
        a = random_classification(rng, 5)
        assert concepts_of(a) == concept_lattice(a).concepts
