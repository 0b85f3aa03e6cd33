"""The laws that ``verify``'s suites run as private helpers.

Each helper is given a fault through its arguments and must name it with its
witness.  The one-pass pseudo-epi/mono probes are compared with the pairwise
definition they replace, kept here as the oracle.
"""

import ast
import itertools
import random
import re

import pytest

from conceptua import verify
from conceptua.clg import ConceptLattice, concept_lattice
from conceptua.clsn import Classification, derivation
from conceptua.finrel import FinFunction
from conceptua.galois import Adjunction, involution, polar_factorize
from conceptua.institution import Signature, SignatureMorphism, flatten
from conceptua.order import MonotoneMap, _all_preorders, all_monotone_maps
from conceptua.verify import (
    _category_law_failures,
    _embedding_failures,
    _involution_failures,
    _is_pseudo_epimorphism,
    _is_pseudo_monomorphism,
    clsn_suite,
    institution_suite,
    random_classification,
    random_context_adjunction,
)

from test_imports import MODULES


# ------------------------------------------------------------ category laws


def suite_diagram():
    """The institution suite's diagram: three signatures, two inclusions and
    their composite.  Its signature morphisms are the three identities (index
    i on signature i), the two inclusions (3, 4) and their composite (5)."""
    s0, s1, s2 = Signature.of(), Signature.of("q"), Signature.of("q", "r")
    m01 = SignatureMorphism.of(s0, s1, {})
    m12 = SignatureMorphism.of(s1, s2, {"q": "q"})
    return flatten([s0, s1, s2], [m01, m12, m01.then(m12)])


def test_category_laws_hold_on_the_suite_diagram():
    cat = suite_diagram()
    assert (len(cat.objects), len(cat.morphisms)) == (22, 140)
    assert _category_law_failures(cat.objects, cat.sig_morphisms, cat.morphisms) == []


def test_every_composable_signature_triple_underlies_a_morphism_triple():
    # what makes associativity on the composite table exhaustive
    for cat in (suite_diagram(), flatten([Signature.of("q")], [])):
        sig = cat.sig_morphisms
        by_source = {}
        for m in cat.morphisms:
            by_source.setdefault(m[0], []).append(m)
        under = {(m1[2], m2[2], m3[2]) for m1 in cat.morphisms for m2 in by_source.get(m1[1], ())
                 for m3 in by_source.get(m2[1], ())}
        composable = {(i, j, k) for i, j, k in itertools.product(range(len(sig)), repeat=3)
                      if sig[i][1] == sig[j][0] and sig[j][1] == sig[k][0]}
        assert under == composable


def test_a_missing_composite_is_named():
    cat = suite_diagram()
    dropped = next(m for m in cat.morphisms if m[2] == 5)
    morphs = [m for m in cat.morphisms if m != dropped]
    [witness] = _category_law_failures(cat.objects, cat.sig_morphisms, morphs)
    m1, m2 = map(ast.literal_eval,
                 re.fullmatch(r"composite of (\(.*\)) and (\(.*\)) is missing", witness).groups())
    assert (m1[0], m2[1]) == dropped[:2]


def test_an_object_without_its_identity_is_named():
    cat = suite_diagram()
    morphs = [m for m in cat.morphisms if m != (7, 7, cat.objects[7][0])]
    assert len(morphs) == len(cat.morphisms) - 1
    assert _category_law_failures(cat.objects, cat.sig_morphisms, morphs) == [
        "missing identity on object 7"]


def test_an_unlisted_signature_composite_is_named():
    cat = suite_diagram()
    # the composite signature morphism and every morphism over it are gone
    morphs = [m for m in cat.morphisms if m[2] != 5]
    [witness] = _category_law_failures(cat.objects, cat.sig_morphisms[:5], morphs)
    assert witness.startswith("morphism list not closed under composition: ")


# ------------------------------------------------------ pseudo-epi/mono probes


def pairwise_equiv(f, g):
    rows = f.target.leq.rows
    return all(rows[a] >> b & 1 and rows[b] >> a & 1 for a, b in zip(f.func.table, g.func.table))


def pairwise_is_pseudo_epimorphism(e):
    """No parallel pair into a probe preorder merges under e, pair by pair."""
    for c in _all_preorders(2):
        maps = list(all_monotone_maps(e.target, c))
        for f in maps:
            for g in maps:
                if pairwise_equiv(e.then(f), e.then(g)) and not pairwise_equiv(f, g):
                    return False
    return True


def pairwise_is_pseudo_monomorphism(m):
    for c in _all_preorders(2):
        maps = list(all_monotone_maps(c, m.source))
        for f in maps:
            for g in maps:
                if pairwise_equiv(f.then(m), g.then(m)) and not pairwise_equiv(f, g):
                    return False
    return True


def probe_outcomes(maps):
    fast = [(_is_pseudo_epimorphism(f), _is_pseudo_monomorphism(f)) for f in maps]
    slow = [(pairwise_is_pseudo_epimorphism(f), pairwise_is_pseudo_monomorphism(f)) for f in maps]
    assert fast == slow
    return fast


def test_probes_match_pairwise_on_polar_legs():
    rng = random.Random(40)
    legs = []
    for _ in range(40):
        pf = polar_factorize(random_context_adjunction(rng, 2))
        for adj in (pf.extent_reflection, pf.intent_coreflection):
            legs += [adj.left, adj.right]
    outcomes = probe_outcomes(legs)
    assert {epi for epi, _ in outcomes} == {mono for _, mono in outcomes} == {True, False}


def canonical(p):
    """p's rows under the relabelling that makes them least: one key per isomorphism class."""
    n = p.size
    return n, min(tuple(sum(1 << perm[j] for j in range(n) if p.le_idx(i, j))
                        for i in sorted(range(n), key=perm.__getitem__))
                  for perm in itertools.permutations(range(n)))


def test_probes_match_pairwise_on_all_maps_between_preorders_up_to_3():
    # both probes ask categorical questions, so one preorder per isomorphism
    # class (14 of the 35 labelled preorders) covers every map
    orders = list({canonical(p): p for p in _all_preorders(3)}.values())
    assert len(orders) == 14
    maps = [f for p in orders for q in orders for f in all_monotone_maps(p, q)]
    outcomes = probe_outcomes(maps)
    assert {epi for epi, _ in outcomes} == {mono for _, mono in outcomes} == {True, False}


# ------------------------------------------------------------------ duality


def test_a_non_involutive_dual_fails_the_involution_law(monkeypatch):
    a = Classification.of(["1", "2"], ["a", "b"], [("1", "a"), ("1", "b"), ("2", "b")])
    pf = polar_factorize(derivation(a))
    e, m = pf.extent_reflection, pf.intent_coreflection
    assert _involution_failures(e, m) == []

    def skewed(g):
        # the involution with its right map sent to one point: not involutive
        d = involution(g)
        const = FinFunction(d.target.carrier, d.source.carrier, (0,) * d.target.size)
        return Adjunction(d.source, d.target, d.left, MonotoneMap(d.target, d.source, const))

    monkeypatch.setattr(verify, "involution", skewed)
    assert _involution_failures(e, m) == [
        "involution is not involutive on the first adjunction",
        "involution is not involutive on the second adjunction"]


# -------------------------------------------------------- bimodule embeddings


def test_a_shifted_embedding_fails_the_bimodule_law():
    rng = random.Random(22)
    for _ in range(10):
        lat = concept_lattice(random_classification(rng, 4))
        assert _embedding_failures(lat) == []
        if lat.size == 1:
            continue
        shift = rng.randrange(1, lat.size)
        moved = FinFunction(lat.instances, lat.lattice.carrier,
                            tuple((k + shift) % lat.size for k in lat.iota_embed.table))
        bad = ConceptLattice(lat.instances, lat.types, lat.lattice, lat.extents, lat.intents, moved,
                             lat.tau_embed)
        assert _embedding_failures(bad) == [
            f"iota_embed {moved.table} is not the row-meet embedding "
            f"{lat.iota_embed.table} of the instance-of bimodule"]
        moved = FinFunction(lat.types, lat.lattice.carrier,
                            tuple((k + shift) % lat.size for k in lat.tau_embed.table))
        bad = ConceptLattice(lat.instances, lat.types, lat.lattice, lat.extents, lat.intents,
                             lat.iota_embed, moved)
        assert _embedding_failures(bad) == [
            f"tau_embed {moved.table} is not the column-join embedding "
            f"{lat.tau_embed.table} of the of-type bimodule"]


# ------------------------------------------------------------------- guards


def test_only_verify_imports_random():
    importers = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "random" for name in names):
                importers.add(path.name)
    assert importers == {"verify.py"}


@pytest.mark.parametrize("seed", range(5, 10))
def test_clsn_and_institution_counts_beyond_the_golden_seeds(seed):
    clsn, inst = clsn_suite(seed, 100), institution_suite(seed, 100)
    assert clsn.ok and inst.ok, clsn.failures + inst.failures
    assert (clsn.cases, inst.cases) == (252, 34)
