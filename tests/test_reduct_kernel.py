"""Reducts, model carriers and theory JSON without ``Model`` objects, against
the per-model recipes they replace.

The base institution tabulates a signature morphism's reduct as the
preimage table of ``image_tables``, labels models by the subset-label
recurrence it shares with ``power_order``, and reads a theory's models off
the bits of its mask.  Each runs here beside the earlier recipe, copied in
as the oracle, which built one ``Model`` per model: on every signature
morphism between signatures of 0-3 variables and on seeded morphisms of up
to 6 variables.  ``image_tables`` fills its tables by doubling, and runs
beside the lowest-bit recurrence it replaced on seeded functions of up to
10 elements, and ``meet_table`` beside its own lowest-bit recurrence on
seeded lines, 0 to 12 of them.  A count of ``Model`` constructions shows that the
transport, merge and serialization paths of the base institution build
none, while a subclass that overrides ``reduct`` still has it called once
per target model.
"""

import itertools
import random

import pytest

from conceptua.finrel import FinFunction, FinSet, image_tables, meet_table
from conceptua.institution import (
    MergeSpan,
    Model,
    PropositionalInstitution,
    Signature,
    SignatureMorphism,
    TheoryObject,
    all_models,
    check_satisfaction_condition,
    fiber_transport_adjunction,
    flatten,
    inverse_transport,
    merge_theories,
    model_carrier,
    style_interconvert,
    theory_to_json,
    transport_theory,
)
from conceptua.order import power_order
from conceptua.verify import _category_law_failures

SIGNATURES = [Signature.of(*"pqr"[:n]) for n in range(4)]


def morphisms(max_vars):
    """Every signature morphism between signatures of 0..max_vars variables."""
    sigs = SIGNATURES[:max_vars + 1]
    for source, target in itertools.product(sigs, sigs):
        for table in itertools.product(range(target.size), repeat=source.size):
            yield SignatureMorphism(source, target, FinFunction(source.vars, target.vars, table))


def seeded_morphisms(count, max_vars=6, seed=34):
    """Seeded morphisms between signatures of 0..max_vars variables."""
    rng = random.Random(seed)
    for _ in range(count):
        n_tgt = rng.randint(0, max_vars)
        n_src = rng.randint(0, max_vars) if n_tgt else 0
        source = Signature.of(*(f"s{i}" for i in range(n_src)))
        target = Signature.of(*(f"t{i}" for i in range(n_tgt)))
        table = tuple(rng.randrange(n_tgt) for _ in range(n_src))
        yield rng, SignatureMorphism(source, target, FinFunction(source.vars, target.vars, table))


# ---------------------------------------------------------- per-model oracles


def oracle_model_carrier(sig):
    """The earlier ``model_carrier``: one ``Model`` per model, read by its label."""
    return FinSet(tuple(m.label() for m in all_models(sig)))


def oracle_reduct_function(inst, sigma):
    """The earlier ``reduct_function``: one ``reduct`` call per target model."""
    return FinFunction(oracle_model_carrier(sigma.target), oracle_model_carrier(sigma.source), tuple(
        inst.reduct(sigma, m).valuation.bits for m in all_models(sigma.target)))


def oracle_theory_to_json(t):
    """The earlier ``theory_to_json``: every model built, those of the theory read."""
    models = all_models(t.signature)
    return {
        "signature": list(t.signature.vars.elements),
        "models": [list(models[i].valuation.labels()) for i in t.model_class.indices()],
    }


def oracle_join_table(lines):
    """The earlier ``finrel._join_table``: entry y joins entry y minus its
    lowest bit with that bit's line."""
    table = [0] * (1 << len(lines))
    for y in range(1, len(table)):
        rest = y & (y - 1)
        table[y] = table[rest] | lines[(y ^ rest).bit_length() - 1]
    return table


def oracle_meet_table(lines, full):
    """The earlier ``finrel.meet_table``: entry y meets entry y minus its
    lowest bit with that bit's line."""
    table = [full] * (1 << len(lines))
    for y in range(1, len(table)):
        rest = y & (y - 1)
        table[y] = table[rest] & lines[(y ^ rest).bit_length() - 1]
    return table


# ------------------------------------------------------------------ the oracles


def test_image_tables_match_the_lowest_bit_recurrence_on_seeded_functions():
    rng = random.Random(3434)
    for _ in range(200):
        m = rng.randint(0, 10)
        n = rng.randint(0, 10) if m else 0
        f = FinFunction(FinSet(tuple(f"a{i}" for i in range(n))),
                        FinSet(tuple(f"b{j}" for j in range(m))),
                        tuple(rng.randrange(m) for _ in range(n)))
        fibers = [sum(1 << i for i, t in enumerate(f.table) if t == j) for j in range(m)]
        assert image_tables(f) == (oracle_join_table([1 << t for t in f.table]),
                                   oracle_join_table(fibers))


def test_meet_table_matches_the_lowest_bit_recurrence_on_seeded_lines():
    rng = random.Random(3535)
    for n in range(13):
        for width in (0, 1, 5, 64, 200):
            full = (1 << width) - 1
            lines = tuple(rng.getrandbits(width) for _ in range(n))
            assert meet_table(lines, full) == oracle_meet_table(lines, full)
            assert meet_table(list(lines), full) == oracle_meet_table(lines, full)


def test_reduct_tables_and_carriers_match_the_recipes_on_every_small_morphism():
    inst = PropositionalInstitution()
    checked = 0
    for sigma in morphisms(3):
        r, expected = inst.reduct_function(sigma), oracle_reduct_function(inst, sigma)
        assert r == expected
        assert r.source.elements == expected.source.elements
        assert r.target.elements == expected.target.elements
        checked += 1
    assert checked == 60


def test_theory_json_matches_the_recipe_on_every_small_theory():
    for sig in SIGNATURES:
        assert model_carrier(sig) == oracle_model_carrier(sig)
        for mask in range(1 << (1 << sig.size)):
            t = TheoryObject.of_mask(sig, mask)
            assert theory_to_json(t) == oracle_theory_to_json(t)


def test_reducts_carriers_and_json_match_the_recipes_on_seeded_morphisms():
    inst = PropositionalInstitution()
    sizes = set()
    for rng, sigma in seeded_morphisms(120):
        assert inst.reduct_function(sigma) == oracle_reduct_function(inst, sigma)
        for sig in (sigma.source, sigma.target):
            assert model_carrier(sig).elements == oracle_model_carrier(sig).elements
            for mask in (0, (1 << (1 << sig.size)) - 1, rng.getrandbits(1 << sig.size)):
                t = TheoryObject.of_mask(sig, mask)
                assert theory_to_json(t) == oracle_theory_to_json(t)
        sizes.add((sigma.source.size, sigma.target.size))
    assert (6, 6) in sizes and (0, 0) in sizes and len(sizes) > 30


def test_model_carrier_shares_the_power_order_labels():
    for n in range(7):
        sig = Signature.of(*(f"x{i}" for i in range(n)))
        assert model_carrier(sig).elements == power_order(sig.vars).carrier.elements


def test_model_carrier_cache_is_bounded():
    assert model_carrier.cache_info().maxsize == 32
    for n in range(40):
        model_carrier(Signature.of(f"bounded{n}"))
    assert model_carrier.cache_info().currsize <= 32


# ------------------------------------------------------------- Model counts


@pytest.fixture
def model_builds(monkeypatch):
    """Grows by one entry for every ``Model`` built, through ``__init__`` or
    ``_trusted``: both write the fields through the class's ``_fill``."""
    built = []
    fill = Model._fill

    def counting(obj, *values):
        built.append(values)
        return fill(obj, *values)

    monkeypatch.setattr(Model, "_fill", staticmethod(counting))
    return built


def test_the_counter_sees_every_model(model_builds):
    all_models(Signature.of("a", "b", "c"))
    assert len(model_builds) == 8
    PropositionalInstitution().reduct(SignatureMorphism.identity(SIGNATURES[1]),
                                      all_models(SIGNATURES[1])[1])
    assert len(model_builds) == 11


def test_transport_merge_and_serialization_build_no_model(model_builds):
    model_carrier.cache_clear()
    base = Signature.of("count_b")
    left = Signature.of("count_b", "count_l")
    right = Signature.of("count_r", "count_b", "count_s")
    sigma = SignatureMorphism.of(left, right, {"count_b": "count_b", "count_l": "count_s"})
    t_left = TheoryObject.of_mask(left, 0b0110)
    t_right = TheoryObject.of_mask(right, 0b10110100)
    moved = transport_theory(sigma, t_left)
    back = inverse_transport(sigma, t_right)
    fiber_transport_adjunction(sigma)
    flat = flatten([left, right], [sigma])
    flat_failures = _category_law_failures(flat.objects, flat.sig_morphisms, flat.morphisms)
    span = MergeSpan(base, SignatureMorphism.of(base, left, {"count_b": "count_b"}),
                     SignatureMorphism.of(base, right, {"count_b": "count_b"}), t_left, t_right)
    result = merge_theories(span)
    data = theory_to_json(result.theory)
    labels = model_carrier(Signature.of(*(f"count{i}" for i in range(6))))
    check_satisfaction_condition(sigma, depth=2)
    style_interconvert(sigma, 2)
    assert model_builds == []
    # the calls above did their work
    assert moved.mask and back.mask and not flat_failures and labels.size == 64
    assert data["signature"] == ["C.count_b", "L.count_l", "R.count_r", "R.count_s"]
    assert len(data["models"]) == result.theory.mask.bit_count() > 0


class CountingReduct(PropositionalInstitution):
    """The honest reduct, with the model numbers it is called on."""

    def __init__(self):
        self.calls = []

    def reduct(self, sigma, m):
        self.calls.append(m.valuation.bits)
        return super().reduct(sigma, m)


def test_an_overridden_reduct_is_called_once_per_target_model(model_builds):
    for sigma in morphisms(3):
        inst = CountingReduct()
        r = inst.reduct_function(sigma)
        n = 1 << sigma.target.size
        assert inst.calls == list(range(n))
        assert r == PropositionalInstitution().reduct_function(sigma)
        # all_models builds each target model, and each reduct builds one more
        assert len(model_builds) == 2 * n
        model_builds.clear()
        check_satisfaction_condition(sigma, depth=2, institution=inst)
        assert inst.calls == list(range(n)) * 2
        model_builds.clear()
