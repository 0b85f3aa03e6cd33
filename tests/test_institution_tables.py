"""Institution operations on truth tables against the per-model code they replace.

Theory transport, inverse transport, the satisfaction-condition check and
the rows of a signature's classification each run here beside the earlier
loop that built one model and one reduct per target model, copied in as
the oracle. Transports are compared for every theory of every signature
morphism between signatures of up to 3 variables, the satisfaction check
on every morphism between signatures of up to 2 variables, honest and with
a corrupted reduct. Results, failure lists and counts must be identical.
The row check that the two concept transports of ``style_interconvert``
are adjoint runs beside the earlier check over every pair of concepts.
"""

import itertools
import random

import pytest

import conceptua.institution as institution
from conceptua.errors import SizeLimitError
from conceptua.finrel import FinFunction, FinSet, Subset
from conceptua.institution import (
    Model,
    PropositionalInstitution,
    SatisfactionConfig,
    SatisfactionReport,
    Signature,
    SignatureMorphism,
    TheoryObject,
    all_models,
    check_satisfaction_condition,
    classification_of_signature,
    enumerate_sentences,
    fiber_transport_adjunction,
    flatten,
    inverse_transport,
    model_carrier,
    render_sentence,
    satisfies,
    style_interconvert,
    theory_fiber,
    transport_theory,
    translate_sentence,
)

SIGNATURES = [Signature.of(*"pqr"[:n]) for n in range(4)]


def morphisms(max_vars):
    """Every signature morphism between signatures of 0..max_vars variables."""
    sigs = SIGNATURES[:max_vars + 1]
    for source, target in itertools.product(sigs, sigs):
        for table in itertools.product(range(target.size), repeat=source.size):
            yield SignatureMorphism(source, target, FinFunction(source.vars, target.vars, table))


class Corrupted(PropositionalInstitution):
    """Flips the first source variable of every reduct."""

    def reduct(self, sigma, m):
        honest = super().reduct(sigma, m)
        flipped = honest.valuation.bits ^ 1 if sigma.source.size else 0
        return Model(sigma.source, Subset(sigma.source.vars, flipped))


# ---------------------------------------------------------- per-model oracles


def oracle_transport(sigma, t):
    """The earlier ``transport_theory``: one reduct per target model."""
    inst = PropositionalInstitution()
    mask = 0
    for m_idx, m in enumerate(all_models(sigma.target)):
        if t.mask >> inst.reduct(sigma, m).valuation.bits & 1:
            mask |= 1 << m_idx
    return TheoryObject.of_mask(sigma.target, mask)


def oracle_inverse_transport(sigma, t):
    """The earlier ``inverse_transport``: one reduct per model of the theory."""
    inst = PropositionalInstitution()
    mask = 0
    models = all_models(sigma.target)
    for m_idx in Subset(model_carrier(sigma.target), t.mask).indices():
        mask |= 1 << inst.reduct(sigma, models[m_idx]).valuation.bits
    return TheoryObject.of_mask(sigma.source, mask)


def oracle_satisfaction(sigma, config, inst):
    """The earlier ``check_satisfaction_condition`` loop over models and sentences."""
    report = SatisfactionReport()
    sentences = enumerate_sentences(sigma.source, config.depth)
    if config.max_sentences is not None and len(sentences) > config.max_sentences:
        import random

        rng = random.Random(config.seed)
        sentences = rng.sample(sentences, config.max_sentences)
    models = all_models(sigma.target)
    report.models_checked = len(models)
    report.sentences_checked = len(sentences)
    for m in models:
        reduced = inst.reduct(sigma, m)
        for s in sentences:
            lhs = satisfies(reduced, s)
            rhs = satisfies(m, translate_sentence(sigma, s))
            if lhs != rhs:
                report.failures.append(
                    f"model {m.label()} sentence {render_sentence(s)}: "
                    f"reduct-side {lhs}, translate-side {rhs}"
                )
    return report


def oracle_classification_rows(sig, depth):
    """The earlier ``classification_of_signature`` rows: one satisfies call per cell."""
    sentences = enumerate_sentences(sig, depth)
    rows = []
    for m in all_models(sig):
        mask = 0
        for j, s in enumerate(sentences):
            if satisfies(m, s):
                mask |= 1 << j
        rows.append(mask)
    return tuple(rows)


# ------------------------------------------------------------------ transports


def test_transports_match_per_model_oracle_on_every_theory():
    checked = 0
    for sigma in morphisms(3):
        for t in theory_fiber(sigma.source).theories:
            assert transport_theory(sigma, t) == oracle_transport(sigma, t)
        for t in theory_fiber(sigma.target).theories:
            assert inverse_transport(sigma, t) == oracle_inverse_transport(sigma, t)
        checked += 1
    assert checked == 60


def test_fiber_adjunction_tables_match_per_model_oracle():
    for sigma in morphisms(3):
        adj = fiber_transport_adjunction(sigma)
        left = tuple(oracle_transport(sigma, t).mask for t in theory_fiber(sigma.source).theories)
        right = tuple(oracle_inverse_transport(sigma, t).mask
                      for t in theory_fiber(sigma.target).theories)
        assert adj.left.func.table == left
        assert adj.right.func.table == right


def test_reduct_function_tabulates_reduct():
    inst = Corrupted()
    for sigma in morphisms(2):
        r = inst.reduct_function(sigma)
        assert r.source == model_carrier(sigma.target)
        assert r.target == model_carrier(sigma.source)
        assert r.table == tuple(inst.reduct(sigma, m).valuation.bits
                                for m in all_models(sigma.target))


# ---------------------------------------------------------------- satisfaction


@pytest.mark.parametrize("inst", [PropositionalInstitution(), Corrupted()],
                         ids=["honest", "corrupted"])
@pytest.mark.parametrize("config", [SatisfactionConfig(depth=3),
                                    SatisfactionConfig(depth=3, max_sentences=5, seed=2)],
                         ids=["all", "sampled"])
def test_satisfaction_check_matches_per_model_oracle(inst, config):
    any_failure = False
    for sigma in morphisms(2):
        got = check_satisfaction_condition(sigma, config, inst)
        want = oracle_satisfaction(sigma, config, inst)
        assert got.failures == want.failures
        assert got.models_checked == want.models_checked
        assert got.sentences_checked == want.sentences_checked
        any_failure |= bool(want.failures)
    assert any_failure == isinstance(inst, Corrupted)


# -------------------------------------------------------------- classification


def test_classification_rows_match_per_model_oracle():
    for sig in SIGNATURES:
        for depth in range(4):
            a = classification_of_signature(sig, depth)
            assert a.instances == FinSet(tuple(m.label() for m in all_models(sig)))
            assert a.types.elements == tuple(
                render_sentence(s) for s in enumerate_sentences(sig, depth))
            assert a.incidence.rows == oracle_classification_rows(sig, depth)


# ------------------------------------------------------------------ fiber cap


def test_flatten_on_four_variables_trips_the_fiber_cap(time_budget):
    with time_budget(1):
        with pytest.raises(SizeLimitError, match=r"2\^\(2\^4\)"):
            flatten([Signature.of("p", "q", "r", "s")], [])


# -------------------------------------------------------- style interconversion


def oracle_adjointness_failures(a, b, source_concepts, target_concepts, left_table,
                                right_table):
    """The earlier check over every (target, source) concept pair, first failure kept."""
    return [
        f"transports are not adjoint at concepts c{k}, c{k2}"
        for k, cb in enumerate(target_concepts) for k2, ca in enumerate(source_concepts)
        if (source_concepts[left_table[k]].extent.bits & ~ca.extent.bits == 0)
        != (cb.extent.bits & ~target_concepts[right_table[k2]].extent.bits == 0)
    ][:1]


def style_cases():
    """The 23 morphisms from 0-2 to 1-3 variables, each at depths 1-3."""
    for source, target in itertools.product(SIGNATURES[:3], SIGNATURES[1:]):
        for table in itertools.product(range(target.size), repeat=source.size):
            sigma = SignatureMorphism(source, target, FinFunction(source.vars, target.vars, table))
            for depth in (1, 2, 3):
                yield sigma, depth


@pytest.mark.parametrize("inst", [PropositionalInstitution(), Corrupted()],
                         ids=["honest", "corrupted"])
def test_style_reports_match_pairwise_adjointness_oracle(monkeypatch, inst):
    cases = list(style_cases())
    got = [style_interconvert(sigma, depth, inst) for sigma, depth in cases]
    monkeypatch.setattr(institution, "_adjointness_failures", oracle_adjointness_failures)
    want = [style_interconvert(sigma, depth, inst) for sigma, depth in cases]
    assert len(cases) == 69
    assert got == want
    assert all(r.conc_adj for r in got) == (not isinstance(inst, Corrupted))


def test_adjointness_rows_match_pairwise_oracle_on_perturbed_transports(monkeypatch):
    """The honest transports of every case, then each with one entry of one table moved."""
    recorded = []
    real = institution._adjointness_failures

    def recording(*args):
        recorded.append(args)
        return real(*args)

    monkeypatch.setattr(institution, "_adjointness_failures", recording)
    for sigma, depth in style_cases():
        style_interconvert(sigma, depth)
    assert len(recorded) == 69
    rng = random.Random(418)
    failing = set()
    for a, b, source_concepts, target_concepts, left, right in recorded:
        assert real(a, b, source_concepts, target_concepts, left, right) == []
        assert oracle_adjointness_failures(a, b, source_concepts, target_concepts, left, right) == []
        for _ in range(4):
            left2, right2 = list(left), list(right)
            table, size = rng.choice([(left2, len(source_concepts)), (right2, len(target_concepts))])
            table[rng.randrange(len(table))] = rng.randrange(size)
            got = real(a, b, source_concepts, target_concepts, left2, right2)
            assert got == oracle_adjointness_failures(a, b, source_concepts, target_concepts,
                                                      left2, right2)
            failing.update(got)
    assert len(failing) > 20
