"""Institution operations on truth tables against the per-model code they replace.

Theory transport, inverse transport, the satisfaction-condition check and
the rows of a signature's classification each run here beside the earlier
loop that built one model and one reduct per target model, copied in as
the oracle. Transports are compared for every theory of every signature
morphism between signatures of up to 3 variables, the satisfaction check
on every morphism between signatures of up to 2 variables, honest and with
a corrupted reduct, and on two endomorphisms of 3 variables, where it may
walk only the translated sentences' truth tables. Results, failure lists
and counts must be identical. The transport tables of ``flatten``, read
from ``image_tables``, are compared with the ``preimage_rows`` form they
replaced on every morphism between signatures of up to 3 variables, and
``flatten`` runs beside the earlier one, which numbered its objects through
an (i, mask) dict, on seeded diagrams: objects, signature morphisms and
morphisms must be identical.
The style report runs beside the earlier ``style_interconvert``, which
re-checked adjointness and the concept squares after the transport
returned, on the honest and three corrupted institutions; every pair of
tables the transport returns passes the pairwise adjointness check.  The
earlier ``concept_square_failures``, on the concepts' subsets, is the
oracle of the one on the lattices' ints (``test_concept_bits``).
"""

import itertools
import random

import pytest

import conceptua.clg as clg
import conceptua.institution as institution
from conceptua.clg import concept_lattice, concept_square_failures, concepts_of
from conceptua.clsn import Infomorphism, check_infomorphism
from conceptua.errors import CarrierMismatchError, SizeLimitError
from conceptua.finrel import FinFunction, FinSet, Subset, image_bits, image_tables, preimage_bits, \
    preimage_rows
from conceptua.institution import (
    Model,
    PropositionalInstitution,
    SatisfactionReport,
    Signature,
    SignatureMorphism,
    StyleReport,
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
    truth_table,
)
from test_concept_bits import oracle_square_failures

SIGNATURES = [Signature.of(*"pqr"[:n]) for n in range(4)]


def morphisms(max_vars):
    """Every signature morphism between signatures of 0..max_vars variables."""
    sigs = SIGNATURES[:max_vars + 1]
    for source, target in itertools.product(sigs, sigs):
        for table in itertools.product(range(target.size), repeat=source.size):
            yield SignatureMorphism(source, target, FinFunction(source.vars, target.vars, table))


def theories(sig):
    """Every theory of the signature, in fiber order: theory T is element T."""
    return [TheoryObject.of_mask(sig, mask) for mask in range(theory_fiber(sig).size)]


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


def oracle_satisfaction(sigma, depth, inst):
    """The earlier ``check_satisfaction_condition`` loop over models and sentences."""
    report = SatisfactionReport()
    sentences = enumerate_sentences(sigma.source, depth)
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
        for t in theories(sigma.source):
            assert transport_theory(sigma, t) == oracle_transport(sigma, t)
        for t in theories(sigma.target):
            assert inverse_transport(sigma, t) == oracle_inverse_transport(sigma, t)
        checked += 1
    assert checked == 60


def test_fiber_adjunction_tables_match_per_model_oracle():
    for sigma in morphisms(3):
        adj = fiber_transport_adjunction(sigma)
        left = tuple(oracle_transport(sigma, t).mask for t in theories(sigma.source))
        right = tuple(oracle_inverse_transport(sigma, t).mask for t in theories(sigma.target))
        assert adj.left.func.table == left
        assert adj.right.func.table == right


def test_flatten_transport_tables_match_the_preimage_rows_form():
    """``flatten`` reads each transport table from ``image_tables``, one OR
    per entry; the ``preimage_rows`` form it used before, one bit loop per
    theory mask, is the oracle on every morphism between signatures of up to
    3 variables."""
    inst = PropositionalInstitution()
    sigmas = list(morphisms(3))
    assert len(sigmas) == 60
    for sigma in sigmas:
        r = inst.reduct_function(sigma)
        assert image_tables(r)[1] == preimage_rows(r, range(theory_fiber(sigma.source).size))


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
@pytest.mark.parametrize("depth", [3], ids=["all"])
def test_satisfaction_check_matches_per_model_oracle(inst, depth):
    any_failure = False
    for sigma in morphisms(2):
        got = check_satisfaction_condition(sigma, depth, inst)
        want = oracle_satisfaction(sigma, depth, inst)
        assert got.failures == want.failures
        assert got.models_checked == want.models_checked
        assert got.sentences_checked == want.sentences_checked
        any_failure |= bool(want.failures)
    assert any_failure == isinstance(inst, Corrupted)


@pytest.mark.parametrize("depth", [3], ids=["all"])
def test_satisfaction_check_walks_only_the_translated_sentences(depth, monkeypatch):
    """The source tables come from the enumeration, so the check walks one
    truth table per checked sentence, that of its translation."""
    calls = []
    real = institution.truth_table

    def counting(sig, s):
        calls.append(sig)
        return real(sig, s)

    big = SIGNATURES[3]
    cases = [SignatureMorphism.identity(big),
             SignatureMorphism(big, big, FinFunction(big.vars, big.vars, (0, 0, 0)))]
    for inst in (PropositionalInstitution(), Corrupted()):
        for sigma in cases:
            enumerate_sentences(sigma.source, depth)
            monkeypatch.setattr(institution, "truth_table", counting)
            got = check_satisfaction_condition(sigma, depth, inst)
            monkeypatch.setattr(institution, "truth_table", real)
            want = oracle_satisfaction(sigma, depth, inst)
            assert got.failures == want.failures
            assert (got.models_checked, got.sentences_checked) == (
                want.models_checked, want.sentences_checked)
            assert calls == [sigma.target] * want.sentences_checked
            calls.clear()
    assert check_satisfaction_condition(cases[0], depth=3).sentences_checked == 101


# -------------------------------------------------------------- classification


def test_classification_rows_match_per_model_oracle():
    for sig in SIGNATURES:
        for depth in range(4):
            a = classification_of_signature(sig, depth)
            assert a.instances == FinSet(tuple(m.label() for m in all_models(sig)))
            assert a.types.elements == tuple(
                render_sentence(s) for s in enumerate_sentences(sig, depth))
            assert a.incidence.rows == oracle_classification_rows(sig, depth)


def test_classification_columns_are_the_truth_table_of_each_sentence():
    """The columns are the tables the enumeration computed; each must be the
    ``truth_table`` walk of its sentence, for 0-4 variables at depths 1-3."""
    for sig in SIGNATURES + [Signature.of(*"pqrs")]:
        for depth in (1, 2, 3):
            sentences = enumerate_sentences(sig, depth)
            columns = classification_of_signature(sig, depth).incidence.columns
            assert columns == tuple(truth_table(sig, s) for s in sentences)
            assert institution._sentences_and_tables(sig, depth) == (sentences, columns)


# ------------------------------------------------------------------ fiber cap


def test_flatten_on_four_variables_trips_the_fiber_cap(time_budget):
    with time_budget(1):
        with pytest.raises(SizeLimitError, match=r"2\^\(2\^4\)"):
            flatten([Signature.of("p", "q", "r", "s")], [])


# ------------------------------------------------------------------ flattening


def oracle_flatten(signatures, morphisms):
    """The earlier ``flatten``, which numbered objects through an (i, mask) dict."""
    signatures = tuple(signatures)
    sig_index = {sig: i for i, sig in enumerate(signatures)}
    sig_morphs = [(i, i, SignatureMorphism.identity(sig)) for i, sig in enumerate(signatures)]
    for sm in morphisms:
        if sm.source not in sig_index or sm.target not in sig_index:
            raise CarrierMismatchError("signature morphism endpoint not among the signatures")
        entry = (sig_index[sm.source], sig_index[sm.target], sm)
        if entry not in sig_morphs:
            sig_morphs.append(entry)
    sizes = tuple(theory_fiber(sig).size for sig in signatures)
    objects, obj_index = [], {}
    for i, size in enumerate(sizes):
        for mask in range(size):
            obj_index[(i, mask)] = len(objects)
            objects.append((i, mask))
    if len(objects) > 5000:
        raise SizeLimitError(f"flattened category would be too large: {len(objects)} "
                             "objects, above the fixed cap of 5000")
    inst = PropositionalInstitution()
    morphs = []
    for mi, (si, ti, sm) in enumerate(sig_morphs):
        table = image_tables(inst.reduct_function(sm))[1]
        for mask in range(sizes[si]):
            for target_mask in range(sizes[ti]):
                if target_mask & ~table[mask] == 0:
                    morphs.append((obj_index[(si, mask)], obj_index[(ti, target_mask)], mi))
    return tuple(objects), tuple(sig_morphs), tuple(morphs)


def seeded_diagrams(rng, count):
    """Diagrams of 1-4 signatures of 0-2 variables, named apart, with 0-5
    seeded morphisms between them, repeats included."""
    for _ in range(count):
        sigs = [Signature.of(*(f"{'abcd'[i]}{v}" for v in range(rng.randint(0, 2))))
                for i in range(rng.randint(1, 4))]
        arrows = []
        for _ in range(rng.randint(0, 5)):
            s, t = rng.choice(sigs), rng.choice(sigs)
            if t.size or not s.size:
                table = tuple(rng.randrange(t.size) for _ in range(s.size))
                arrows.append(SignatureMorphism(s, t, FinFunction(s.vars, t.vars, table)))
        yield sigs, arrows + arrows[:1]


def test_flatten_numbers_objects_as_the_index_dict_did():
    for sigs, arrows in seeded_diagrams(random.Random(38), 60):
        cat = flatten(sigs, arrows)
        assert (cat.objects, cat.sig_morphisms, cat.morphisms) == oracle_flatten(sigs, arrows)
    between_2_and_3 = [s for s in morphisms(3) if s.source.size + s.target.size == 5]
    arrows = random.Random(3).sample(between_2_and_3, 4)
    cat = flatten(SIGNATURES[2:], arrows)
    assert (cat.objects, cat.sig_morphisms, cat.morphisms) == oracle_flatten(SIGNATURES[2:], arrows)


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


class ConstantReduct(PropositionalInstitution):
    """Sends every target model to the source model with no variable true."""

    def reduct(self, sigma, m):
        return Model(sigma.source, Subset(sigma.source.vars, 0))


class FlipOddModels(PropositionalInstitution):
    """Flips the first source variable of the reducts of odd-numbered models only."""

    def reduct(self, sigma, m):
        honest = super().reduct(sigma, m)
        flipped = honest.valuation.bits ^ (m.valuation.bits & 1 if sigma.source.size else 0)
        return Model(sigma.source, Subset(sigma.source.vars, flipped))


INSTITUTIONS = [PropositionalInstitution(), Corrupted(), ConstantReduct(), FlipOddModels()]
INSTITUTION_IDS = ["honest", "corrupted", "constant", "flip-odd"]


def oracle_concept_transport(f, source_concepts, target_concepts):
    """The earlier ``concept_transport``: one preimage per concept, recipes inline."""
    a, b = f.source, f.target
    pos_a = {c.extent.bits: k for k, c in enumerate(source_concepts)}
    pos_b = {c.extent.bits: k for k, c in enumerate(target_concepts)}
    left = []
    for c in target_concepts:
        ext = a.extent_of(preimage_bits(f.typ_map, c.intent.bits))
        if ext != a.extent_of(a.intent_of(image_bits(f.inst_map, c.extent.bits))):
            raise CarrierMismatchError(
                f"concept transport formulas disagree at target concept with extent {c.extent}")
        left.append(pos_a[ext])
    right = []
    for c in source_concepts:
        pre = preimage_bits(f.inst_map, c.extent.bits)
        if pre != b.extent_of(image_bits(f.typ_map, c.intent.bits)):
            raise CarrierMismatchError(
                f"concept transport formulas disagree at source concept with extent {c.extent}")
        right.append(pos_b[pre])
    return tuple(left), tuple(right)


def oracle_row_adjointness_failures(a, b, source_concepts, target_concepts, left_table,
                                    right_table):
    """The earlier row check that the two transports are adjoint: row k holds when
    the up-set of left(k) equals the k2 whose right image holds k's extent."""

    def holding(extents, holders, n_instances):
        containing = [0] * n_instances
        for h, e in enumerate(holders):
            for g in range(n_instances):
                if e >> g & 1:
                    containing[g] |= 1 << h
        rows = []
        for e in extents:
            row = (1 << len(holders)) - 1
            for g in range(n_instances):
                if e >> g & 1:
                    row &= containing[g]
            rows.append(row)
        return rows

    source_extents = [c.extent.bits for c in source_concepts]
    source_up = holding(source_extents, source_extents, a.instances.size)
    target_extents = [c.extent.bits for c in target_concepts]
    pulled_up = holding(target_extents, [target_extents[k] for k in right_table],
                        b.instances.size)
    for k, pulled in enumerate(pulled_up):
        if diff := source_up[left_table[k]] ^ pulled:
            k2 = (diff & -diff).bit_length() - 1
            return [f"transports are not adjoint at concepts c{k}, c{k2}"]
    return []


def oracle_style_interconvert(sigma, depth, inst):
    """The earlier ``style_interconvert``: after the transport returns, conc-adj
    re-checks adjointness and both concept squares, and conc-rel runs its own
    right recipe whatever the transport did."""
    witnesses = {}
    a = classification_of_signature(sigma.source, depth)
    b = classification_of_signature(sigma.target, depth)
    target_tables = {t: j for j, t in enumerate(b.incidence.columns)}
    rel_report, r, translated = institution._satisfaction(
        sigma, enumerate_sentences(sigma.source, depth), a.incidence.columns, inst)
    class_rel = rel_report.ok
    if not class_rel:
        witnesses["class_rel"] = rel_report.failures[0]
    typ_table = []
    translatable = True
    for t in translated:
        if t not in target_tables:
            translatable = False
            witnesses["class_adj"] = f"translated sentence table {t:#x} not reachable at depth {depth}"
            break
        typ_table.append(target_tables[t])
    class_adj = conc_adj = conc_rel = False
    if translatable:
        info = Infomorphism(a, b, r, FinFunction(a.types, b.types, tuple(typ_table)))
        class_adj = check_infomorphism(info).adjunction_version
        if not class_adj:
            witnesses.setdefault("class_adj", "derivation square fails")
        la_concepts = concepts_of(a)
        lb_concepts = concepts_of(b)
        try:
            left_table, right_table = oracle_concept_transport(info, la_concepts, lb_concepts)
        except CarrierMismatchError as exc:
            witnesses["conc_adj"] = str(exc)
        else:
            failures = oracle_row_adjointness_failures(
                a, b, la_concepts, lb_concepts, left_table, right_table
            ) or oracle_square_failures(info.inst_map, info.typ_map, la_concepts,
                                        lb_concepts, left_table, right_table)
            conc_adj = not failures
            if failures:
                witnesses["conc_adj"] = failures[0]
        conc_rel = True
        for k, c in enumerate(la_concepts):
            reduced = preimage_bits(info.inst_map, c.extent.bits)
            translated = b.extent_of(image_bits(info.typ_map, c.intent.bits))
            if reduced != translated:
                diff = reduced ^ translated
                m_idx = (diff & -diff).bit_length() - 1
                conc_rel = False
                witnesses["conc_rel"] = (
                    f"model {b.instances.elements[m_idx]} vs theory c{k}: reduct-side "
                    f"{bool(reduced >> m_idx & 1)}, translated {bool(translated >> m_idx & 1)}")
                break
    else:
        witnesses.setdefault("conc_adj", "translation not expressible at this depth")
        witnesses.setdefault("conc_rel", "translation not expressible at this depth")
    return StyleReport(class_rel, class_adj, conc_adj, conc_rel, witnesses)


@pytest.mark.parametrize("inst", INSTITUTIONS, ids=INSTITUTION_IDS)
def test_style_reports_match_earlier_style_oracle(inst):
    cases = list(style_cases())
    got = [style_interconvert(sigma, depth, inst) for sigma, depth in cases]
    want = [oracle_style_interconvert(sigma, depth, inst) for sigma, depth in cases]
    assert len(cases) == 69
    assert got == want
    assert all(r.conc_adj for r in got) == (type(inst) is PropositionalInstitution)


def test_style_oracle_reports_differ_between_institutions():
    """The corrupted reducts fail different styles with different witnesses."""
    reports = {name: [oracle_style_interconvert(sigma, depth, inst)
                      for sigma, depth in style_cases()]
               for name, inst in zip(INSTITUTION_IDS, INSTITUTIONS)}
    witnesses = {name: {key for r in rs for key in r.witnesses}
                 for name, rs in reports.items()}
    assert witnesses["honest"] == set()
    for name in INSTITUTION_IDS[1:]:
        assert {"class_rel", "conc_adj", "conc_rel"} <= witnesses[name]
        assert any(r.all_pass for r in reports[name])
    assert len({tuple(map(repr, rs)) for rs in reports.values()}) == 4


def test_returned_transports_pass_pairwise_adjointness_oracle(monkeypatch):
    """Every pair of tables the transport returns in a style check is adjoint,
    pair by pair and row by row, and preserves extents and intents."""
    recorded = []
    real = clg.concept_transport

    def recording(f):
        tables = real(f)
        recorded.append((f, concepts_of(f.source), concepts_of(f.target), *tables))
        return tables

    monkeypatch.setattr(clg, "concept_transport", recording)
    for inst in INSTITUTIONS:
        for sigma, depth in style_cases():
            style_interconvert(sigma, depth, inst)
    assert len(recorded) > 69
    for f, source_concepts, target_concepts, left, right in recorded:
        args = (f.source, f.target, source_concepts, target_concepts, left, right)
        assert oracle_adjointness_failures(*args) == []
        assert oracle_row_adjointness_failures(*args) == []
        assert concept_square_failures(f.inst_map, f.typ_map, concept_lattice(f.source),
                                       concept_lattice(f.target), left, right) == []
        assert oracle_square_failures(f.inst_map, f.typ_map, *args[2:]) == []
        assert (left, right) == oracle_concept_transport(f, source_concepts, target_concepts)
