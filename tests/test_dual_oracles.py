"""Joins, meets, the down-set coreflection and the density check, each written
once for both duals, against the mirror-image code they replace.

The oracles are the earlier ``poset_join`` (a scan of the upper bounds),
``poset_meet`` (the lower bounds by ``derive_reverse``, then one AND of their
rows), ``downset_coreflection`` (its own loop over meets) and
``_check_density`` (a join-dense loop, then a meet-dense loop), copied in.
Results, orders, failure lists and error texts must be identical.
"""

import random

import pytest

from conceptua.clg import _check_density, concept_lattice
from conceptua.finrel import FinSet, Relation, Subset, _bits, derive_reverse, image_bits, \
    meet_bits
from conceptua.galois import Adjunction, _subposet_inclusion, downset_coreflection, \
    polar_factorize, upset_reflection
from conceptua.order import Poset, Preorder, _all_preorders, _check_subset, _monotone, opposite, \
    power_order, poset_join, poset_meet, same_order
from conceptua.clsn import derivation
from conceptua.verify import random_classification
from test_validation_oracle import KINDS, corrupted, seeded_contexts

# ------------------------------------------------------------------ the oracles


def oracle_poset_join(p, x):
    _check_subset(p, x)
    rows = p.leq.rows
    upper = meet_bits(rows, x.bits, p.carrier.full_mask)
    for i in _bits(upper):
        if upper & ~rows[i] == 0:
            return i
    return None


def oracle_poset_meet(p, x):
    _check_subset(p, x)
    rows = p.leq.rows
    lower = derive_reverse(p.leq, x).bits
    meets = lower & meet_bits(rows, lower, p.carrier.full_mask)
    return (meets & -meets).bit_length() - 1 if meets else None


def oracle_downset_coreflection(p, m):
    kept = [i for i in range(p.size) if p.le_idx(i, m)]
    incl = _subposet_inclusion(p, kept)
    sub = incl.source
    pos = {i: k for k, i in enumerate(kept)}
    table = []
    for i in range(p.size):
        j = oracle_poset_meet(p, Subset(p.carrier, (1 << i) | (1 << m)))
        if j is None:
            raise ValueError("meet with the base element does not exist")
        table.append(pos[j])
    return Adjunction(sub, p, incl, _monotone(p, sub, table))


def oracle_check_density(lat):
    failures = []
    leq = lat.lattice.leq
    embedded_instances = image_bits(lat.iota_embed, lat.instances.full_mask)
    embedded_types = image_bits(lat.tau_embed, lat.types.full_mask)
    for k, col in enumerate(leq.columns):
        below = embedded_instances & col
        if oracle_poset_join(lat.lattice, Subset(lat.lattice.carrier, below)) != k:
            failures.append(f"instance embedding is not join-dense at c{k}")
            break
    for k in range(lat.size):
        above = embedded_types & leq.rows[k]
        if oracle_poset_meet(lat.lattice, Subset(lat.lattice.carrier, above)) != k:
            failures.append(f"type embedding is not meet-dense at c{k}")
            break
    return failures


# ------------------------------------------------------------------ joins and meets


def test_joins_and_meets_match_on_every_subset_of_every_preorder_up_to_4():
    missing = 0
    for p in _all_preorders(4):
        for bits in range(1 << p.size):
            x = Subset(p.carrier, bits)
            join, meet = poset_join(p, x), poset_meet(p, x)
            assert join == oracle_poset_join(p, x)
            assert meet == oracle_poset_meet(p, x)
            missing += (join is None) + (meet is None)
    assert missing  # the comparison meets subsets with no join or no meet


# ------------------------------------------------------------------ down-sets


def seeded_lattices():
    """Power orders both ways, chains, concept orders of seeded contexts and
    the axes of seeded polar factorizations."""
    rng = random.Random(38)
    lattices = [power_order(FinSet(tuple(f"e{i}" for i in range(n))), reverse)
                for n in range(4) for reverse in (False, True)]
    lattices += [Preorder.chain(*(f"x{i}" for i in range(n))) for n in range(1, 5)]
    lattices += [concept_lattice(random_classification(rng, 5)).lattice for _ in range(40)]
    lattices += [polar_factorize(derivation(random_classification(rng, 4))).axis
                 for _ in range(20)]
    return lattices


def test_downset_coreflection_matches_on_every_element_of_seeded_lattices():
    for p in seeded_lattices():
        for m in range(p.size):
            got, want = downset_coreflection(p, m), oracle_downset_coreflection(p, m)
            assert same_order(got.source, want.source) and same_order(got.target, want.target)
            assert type(got.source) is type(want.source)
            assert type(got.target) is type(want.target)
            for new, old in ((got.left, want.left), (got.right, want.right)):
                assert same_order(new.source, old.source) and same_order(new.target, old.target)
                assert new.func == old.func


def raised(build, *args):
    with pytest.raises(ValueError) as exc:
        build(*args)
    return str(exc.value)


def test_missing_bounds_and_preorders_raise_the_same_texts():
    v = FinSet(("v0", "v1", "v2"))  # the V shape: v1 and v2 above v0, with no join
    vee = Poset(v, Relation(v, v, (0b111, 0b010, 0b100)))
    wedge = opposite(vee)
    assert raised(downset_coreflection, wedge, 1) == \
        raised(oracle_downset_coreflection, wedge, 1) == \
        "meet with the base element does not exist"
    assert raised(upset_reflection, vee, 1) == "join with the base element does not exist"
    c = FinSet(("e0", "e1"))
    pre = Preorder(c, Relation(c, c, (0b11, 0b11)))
    assert raised(downset_coreflection, pre, 0) == \
        raised(oracle_downset_coreflection, pre, 0) == \
        "order relation is not antisymmetric"


# ------------------------------------------------------------------ density


@pytest.mark.parametrize("kind", KINDS)
def test_density_failures_match_on_seeded_corruptions(kind):
    rng = random.Random(KINDS.index(kind) + 38)
    seen = set()
    for a in seeded_contexts():
        for _ in range(2):
            raw = corrupted(kind, concept_lattice(a), rng)
            if raw is not None:
                failures = _check_density(raw)
                assert failures == oracle_check_density(raw)
                seen.update(f.split(" at ")[0] for f in failures)
    instance, meet = "instance embedding is not join-dense", "type embedding is not meet-dense"
    reached = {"order": set(), "iota": {instance}, "tau": {meet}, "both": {instance, meet}}
    if kind == "none":
        assert not seen
    elif kind in reached:
        assert seen and seen >= reached[kind]
