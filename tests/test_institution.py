"""Propositional institution: satisfaction, fibers, transport, flattening, merge."""

import itertools
import random
import re

import pytest

import conceptua.clg as clg
import conceptua.institution as institution
from conceptua.errors import CarrierMismatchError, ParseError, SizeLimitError, UnknownElementError
from conceptua.finrel import FinFunction, Subset
from conceptua.galois import check_adjunction
from conceptua.order import is_complete_lattice
from conceptua.clg import concept_poset
from conceptua.verify import _category_law_failures
from conceptua.institution import (
    And,
    Bottom,
    Implies,
    MergeSpan,
    Model,
    Not,
    Or,
    PropositionalInstitution,
    Signature,
    SignatureMorphism,
    TheoryObject,
    Top,
    Var,
    all_models,
    check_satisfaction_condition,
    classification_of_signature,
    enumerate_sentences,
    fiber_transport_adjunction,
    flatten,
    inverse_transport,
    merge_theories,
    model_carrier,
    parse_sentence,
    render_sentence,
    satisfies,
    style_interconvert,
    theory_fiber,
    theory_from_json,
    theory_to_json,
    transport_theory,
    translate_sentence,
    truth_table,
    verify_pushout_universal,
)

from oracles import find_order_isomorphism, sentence_depth

SIG_P = Signature.of("p")
SIG_PQ = Signature.of("p", "q")


def model_of(sig, *true_vars):
    return Model(sig, Subset.of(sig.vars, true_vars))


# ------------------------------------------------------------- satisfaction


def test_satisfies_trivial_cases():
    m = model_of(SIG_P, "p")
    assert satisfies(m, Var("p"))
    assert satisfies(m, Top())
    assert not satisfies(m, Bottom())
    empty = model_of(SIG_PQ)
    assert satisfies(empty, Implies(Var("p"), Var("q")))  # vacuous


def test_satisfies_foreign_variable_errors():
    with pytest.raises(UnknownElementError):
        satisfies(model_of(SIG_P), Var("zz"))


def test_truth_table_matches_pointwise_evaluation():
    rng = random.Random(0)
    sentences = enumerate_sentences(SIG_PQ, 3)
    for s in sentences:
        table = truth_table(SIG_PQ, s)
        for m in all_models(SIG_PQ):
            assert bool(table >> m.valuation.bits & 1) == satisfies(m, s)


# ----------------------------------------------------------------- syntax


def test_parse_render_roundtrip():
    texts = [
        "(and (var p) (not (var q)))",
        "top",
        "bottom",
        "(implies (or (var p) bottom) top)",
    ]
    for text in texts:
        assert render_sentence(parse_sentence(text)) == text


def test_parse_errors():
    for bad in ["(and (var p))", "(frob top top)", "(var p) extra", "("]:
        with pytest.raises(ParseError):
            parse_sentence(bad)


def test_sentence_depth_convention():
    assert sentence_depth(Var("p")) == 1
    assert sentence_depth(Top()) == 1
    assert sentence_depth(Not(Var("p"))) == 2
    assert sentence_depth(And(Not(Var("p")), Var("q"))) == 3


def test_enumerate_sentences_deduplicates_by_truth_table():
    for depth in (1, 2, 3, 4):
        reps = enumerate_sentences(SIG_PQ, depth)
        tables = [truth_table(SIG_PQ, s) for s in reps]
        assert len(tables) == len(set(tables))
        assert all(sentence_depth(s) <= depth for s in reps)
    assert len(enumerate_sentences(SIG_PQ, 4)) == 16  # truth-table complete


# ---------------------------------------------------- satisfaction condition


def test_satisfaction_condition_identity():
    rep = check_satisfaction_condition(SignatureMorphism.identity(SIG_PQ), depth=3)
    assert rep.ok


def test_satisfaction_condition_inclusion_against_truth_tables():
    sigma = SignatureMorphism.of(Signature.of("q"), SIG_PQ, {"q": "q"})
    inst = PropositionalInstitution()
    phi = Var("q")
    for m in all_models(SIG_PQ):
        lhs = satisfies(inst.reduct(sigma, m), phi)
        rhs = satisfies(m, translate_sentence(sigma, phi))
        assert lhs == rhs
    assert check_satisfaction_condition(sigma, depth=4).ok


def test_satisfaction_condition_non_injective_collapse():
    sig_r = Signature.of("r")
    sigma = SignatureMorphism.of(SIG_PQ, sig_r, {"p": "r", "q": "r"})
    phi = And(Var("p"), Not(Var("q")))
    translated = translate_sentence(sigma, phi)
    assert render_sentence(translated) == "(and (var r) (not (var r)))"
    assert truth_table(sig_r, translated) == 0  # unsatisfiable
    assert check_satisfaction_condition(sigma, depth=4).ok


def test_satisfaction_condition_detects_corrupted_reduct():
    class Corrupted(PropositionalInstitution):
        def reduct(self, sigma, m):
            honest = super().reduct(sigma, m)
            flipped = honest.valuation.bits ^ 1 if sigma.source.size else 0
            return Model(sigma.source, Subset(sigma.source.vars, flipped))

    sigma = SignatureMorphism.of(SIG_P, SIG_PQ, {"p": "p"})
    rep = check_satisfaction_condition(sigma, 2, Corrupted())
    assert not rep.ok


# ---------------------------------------------------- signature classification


def test_classification_of_signature_small():
    a = classification_of_signature(SIG_P, 1)
    assert a.instances.elements == ("{}", "{p}")
    assert set(a.types.elements) == {"(var p)", "top", "bottom"}
    top_col = a.types.index("top")
    for i in range(a.instances.size):
        assert a.incidence.holds_idx(i, top_col)


def test_classification_size_bound():
    big = Signature.of(*[f"v{i}" for i in range(6)])
    with pytest.raises(SizeLimitError):
        classification_of_signature(big, 2)


def test_classification_of_signature_is_cached_per_signature_and_depth(monkeypatch):
    """A built classification renders each sentence once; a cached one none."""
    calls = []
    real = institution.render_sentence

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(institution, "render_sentence", counting)
    classification_of_signature.cache_clear()
    first = classification_of_signature(SIG_PQ, 2)
    assert calls
    calls.clear()
    assert classification_of_signature(Signature.of("p", "q"), 2) is first
    assert calls == []
    assert classification_of_signature(SIG_PQ, 3) is not first
    big = Signature.of(*[f"v{i}" for i in range(6)])
    for _ in range(2):
        with pytest.raises(SizeLimitError):
            classification_of_signature(big, 2)
    assert classification_of_signature.cache_info().currsize == 2


def test_concept_lattice_of_signature_classification_is_model_powerset():
    # at truth-table-complete depth every model class is an extent
    for sig, depth in [(Signature.of(), 1), (SIG_P, 2), (SIG_PQ, 4)]:
        a = classification_of_signature(sig, depth)
        poset, concepts = concept_poset(a)
        n_models = 1 << sig.size
        assert poset.size == 1 << n_models
        assert sorted(c.extent.bits for c in concepts) == list(range(1 << n_models))
        assert find_order_isomorphism(poset, theory_fiber(sig)) is not None


# ------------------------------------------------------------ theory fibers


def test_theory_fiber_counts():
    for n, expected in [(0, 2), (1, 4), (2, 16), (3, 256)]:
        fib = theory_fiber(Signature.of(*"pqr"[:n]))
        assert fib.size == expected
        assert is_complete_lattice(fib)


def test_theory_fiber_orientation_weaker_below():
    fib = theory_fiber(SIG_P)
    top_theory = TheoryObject.of_mask(SIG_P, 0b11)  # all models: weakest
    bottom_theory = TheoryObject.of_mask(SIG_P, 0)  # no models: inconsistent
    assert fib.le_idx(top_theory.mask, bottom_theory.mask)
    assert not fib.le_idx(bottom_theory.mask, top_theory.mask)


def test_theory_fiber_size_cap():
    with pytest.raises(SizeLimitError):
        theory_fiber(Signature.of(*"pqrst"))


def test_theory_fiber_four_variables_raise_within_budget(time_budget):
    with time_budget(1):
        with pytest.raises(SizeLimitError) as err:
            theory_fiber(Signature.of(*"pqrs"))
    message = str(err.value)
    assert "2^(2^4)" in message
    assert "512 MiB" in message
    assert "3 variables" in message
    assert theory_fiber.cache_info().maxsize == 32  # still cached for the smaller fibers


# --------------------------------------------------------------- transport


def test_transport_identity():
    t = TheoryObject.of_sentence(SIG_PQ, Var("p"))
    ident = SignatureMorphism.identity(SIG_PQ)
    assert transport_theory(ident, t).mask == t.mask
    assert inverse_transport(ident, t).mask == t.mask


def test_transport_q_theory_frozen_example():
    s1 = Signature.of("q")
    sigma = SignatureMorphism.of(s1, SIG_PQ, {"q": "q"})
    t_q = TheoryObject.of_sentence(s1, Var("q"))
    moved = transport_theory(sigma, t_q)
    labels = {all_models(SIG_PQ)[i].label() for i in moved.model_class.indices()}
    assert labels == {"{q}", "{p,q}"}


def test_transport_adjunction_for_all_small_morphisms():
    sigs = [Signature.of(*"pq"[:n]) for n in range(3)]
    for s1 in sigs:
        for s2 in sigs:
            for table in itertools.product(range(s2.size), repeat=s1.size):
                sigma = SignatureMorphism(s1, s2, FinFunction(s1.vars, s2.vars, table))
                adj = fiber_transport_adjunction(sigma)
                assert check_adjunction(adj.left, adj.right) is not None


# ---------------------------------------------------------------- flatten


def category_law_failures(cat):
    return _category_law_failures(cat.objects, cat.sig_morphisms, cat.morphisms)


def test_flatten_single_signature_is_fiber_poset():
    cat = flatten([Signature.of("q")], [])
    assert category_law_failures(cat) == []
    assert len(cat.objects) == 4
    # morphisms = comparable pairs in the 4-element fiber
    fib = theory_fiber(Signature.of("q"))
    comparable = sum(
        1 for i in range(4) for j in range(4) if fib.le_idx(i, j))
    assert len(cat.morphisms) == comparable


def test_flatten_two_signatures_with_inclusion():
    s1, s2 = Signature.of("q"), Signature.of("q", "r")
    sigma = SignatureMorphism.of(s1, s2, {"q": "q"})
    cat = flatten([s1, s2], [sigma])
    assert category_law_failures(cat) == []
    assert len(cat.objects) == 4 + 16
    transported = {mask: transport_theory(sigma, TheoryObject.of_mask(s1, mask)).mask
                   for mask in range(theory_fiber(s1).size)}
    expected_cross = sum(
        1 for mask, moved in transported.items()
        for target in range(16) if target & ~moved == 0)
    cross = sum(1 for (src, tgt, mi) in cat.morphisms
                if cat.sig_morphisms[mi][0] != cat.sig_morphisms[mi][1])
    assert cross == expected_cross


def test_flatten_three_signature_diagram_laws():
    s0, s1, s2 = Signature.of(), Signature.of("q"), Signature.of("q", "r")
    m01 = SignatureMorphism.of(s0, s1, {})
    m12 = SignatureMorphism.of(s1, s2, {"q": "q"})
    cat = flatten([s0, s1, s2], [m01, m12, m01.then(m12)])
    assert category_law_failures(cat) == []
    by_source = {}
    for m in cat.morphisms:
        by_source.setdefault(m[0], []).append(m)
    triples = sum(1 for m1 in cat.morphisms for m2 in by_source.get(m1[1], ())
                  for _ in by_source.get(m2[1], ()))
    assert triples > 0


def test_flatten_rejects_unlisted_endpoints():
    s1, s2 = Signature.of("q"), Signature.of("q", "r")
    sigma = SignatureMorphism.of(s1, s2, {"q": "q"})
    with pytest.raises(CarrierMismatchError):
        flatten([s1], [sigma])


# ------------------------------------------------------------------- merge


def merge_span_pq_q_qr():
    base = Signature.of("q")
    sa, sb = Signature.of("p", "q"), Signature.of("q", "r")
    return MergeSpan(base,
                     SignatureMorphism.of(base, sa, {"q": "q"}),
                     SignatureMorphism.of(base, sb, {"q": "q"}),
                     TheoryObject.of_sentence(sa, Var("q")),
                     TheoryObject.of_sentence(sb, And(Var("q"), Var("r"))))


def test_merge_disjoint_span():
    base = Signature.of()
    sp, sr = Signature.of("p"), Signature.of("r")
    span = MergeSpan(base,
                     SignatureMorphism.of(base, sp, {}),
                     SignatureMorphism.of(base, sr, {}),
                     TheoryObject.of_sentence(sp, Var("p")),
                     TheoryObject.of_sentence(sr, Var("r")))
    res = merge_theories(span)
    assert res.signature.vars.elements == ("L.p", "R.r")
    labels = {all_models(res.signature)[i].label() for i in res.theory.model_class.indices()}
    assert labels == {"{L.p,R.r}"}
    assert not res.inconsistent


def test_merge_identity_span_returns_original():
    t = TheoryObject.of_sentence(SIG_PQ, Implies(Var("p"), Var("q")))
    span = MergeSpan(SIG_PQ,
                     SignatureMorphism.identity(SIG_PQ),
                     SignatureMorphism.identity(SIG_PQ),
                     t, t)
    res = merge_theories(span)
    assert res.signature.size == 2
    assert res.theory.mask == t.mask


def test_merge_shared_variable_span_frozen():
    res = merge_theories(merge_span_pq_q_qr())
    assert res.signature.vars.elements == ("L.p", "C.q", "R.r")
    labels = {all_models(res.signature)[i].label() for i in res.theory.model_class.indices()}
    assert labels == {"{C.q,R.r}", "{L.p,C.q,R.r}"}


def test_merge_pushout_universal_property():
    span = merge_span_pq_q_qr()
    res = merge_theories(span)
    assert verify_pushout_universal(span, res) == []


def test_merge_inconsistent_flagged_not_raised():
    base = Signature.of("q")
    span = MergeSpan(base,
                     SignatureMorphism.identity(base),
                     SignatureMorphism.identity(base),
                     TheoryObject.of_sentence(base, Var("q")),
                     TheoryObject.of_sentence(base, Not(Var("q"))))
    res = merge_theories(span)
    assert res.inconsistent
    assert res.theory.mask == 0


# ------------------------------------------------------------ four styles


def test_style_interconvert_identity_passes():
    rep = style_interconvert(SignatureMorphism.identity(SIG_PQ), 3)
    assert rep.all_pass and rep.agree


def test_style_interconvert_inclusion_depth3_passes():
    sigma = SignatureMorphism.of(SIG_P, SIG_PQ, {"p": "p"})
    rep = style_interconvert(sigma, 3)
    assert rep.all_pass and rep.agree


def test_style_interconvert_corrupted_reduct_fails_all_four():
    class Corrupted(PropositionalInstitution):
        def reduct(self, sigma, m):
            honest = super().reduct(sigma, m)
            if sigma.source.size == 0:
                return honest
            flipped = honest.valuation.bits ^ 1
            return Model(sigma.source, Subset(sigma.source.vars, flipped))

    sigma = SignatureMorphism.of(SIG_P, SIG_PQ, {"p": "p"})
    rep = style_interconvert(sigma, 3, Corrupted())
    assert not rep.class_rel and not rep.class_adj
    assert not rep.conc_adj and not rep.conc_rel
    assert rep.agree  # they fail together


# ------------------------------------------------------------ functoriality


def normalize(sig, sentence, depth):
    reps = enumerate_sentences(sig, depth)
    table = truth_table(sig, sentence)
    for r in reps:
        if truth_table(sig, r) == table:
            return render_sentence(r)
    raise AssertionError("table not reachable at this depth")


def test_sentence_translation_functorial_on_representatives():
    s1, s2, s3 = Signature.of("p"), Signature.of("p", "q"), Signature.of("p", "q", "r")
    tau = SignatureMorphism.of(s1, s2, {"p": "p"})
    sigma = SignatureMorphism.of(s2, s3, {"p": "q", "q": "r"})
    composite = tau.then(sigma)
    for rep in enumerate_sentences(s1, 3):
        step = translate_sentence(sigma, translate_sentence(tau, rep))
        direct = translate_sentence(composite, rep)
        assert normalize(s3, step, 4) == normalize(s3, direct, 4)
    ident = SignatureMorphism.identity(s1)
    for rep in enumerate_sentences(s1, 3):
        assert translate_sentence(ident, rep) == rep


def test_reduct_functorial():
    s1, s2, s3 = Signature.of("p"), Signature.of("p", "q"), Signature.of("p", "q", "r")
    tau = SignatureMorphism.of(s1, s2, {"p": "p"})
    sigma = SignatureMorphism.of(s2, s3, {"p": "q", "q": "r"})
    inst = PropositionalInstitution()
    for m in all_models(s3):
        via_steps = inst.reduct(tau, inst.reduct(sigma, m))
        direct = inst.reduct(tau.then(sigma), m)
        assert via_steps == direct


# -------------------------------------------------------------------- files


def test_theory_json_roundtrip():
    t = TheoryObject.of_sentence(SIG_PQ, Or(Var("p"), Var("q")))
    data = theory_to_json(t)
    assert data["signature"] == ["p", "q"]
    back = theory_from_json(data)
    assert back.mask == t.mask and back.signature == t.signature


def test_model_carrier_labels():
    assert model_carrier(SIG_PQ).elements == ("{}", "{p}", "{q}", "{p,q}")


def test_deeply_nested_sentence_parses_and_evaluates():
    text = "(not " * 5000 + "(and (var p) (var q))" + ")" * 5000
    s = parse_sentence(text)
    assert truth_table(SIG_PQ, s) == truth_table(SIG_PQ, And(Var("p"), Var("q")))
    odd = parse_sentence("(not " + text + ")")
    assert truth_table(SIG_PQ, odd) == truth_table(SIG_PQ, Not(And(Var("p"), Var("q"))))


def nested_nots(depth, body):
    s = body
    for _ in range(depth):
        s = Not(s)
    return s


def test_sentence_functions_take_5000_nested_nots():
    s = nested_nots(5000, Var("p"))
    text = "(not " * 5000 + "(var p)" + ")" * 5000
    assert render_sentence(s) == text
    assert render_sentence(parse_sentence(text)) == text
    assert sentence_depth(s) == 5001
    assert satisfies(model_of(SIG_P, "p"), s)
    assert not satisfies(model_of(SIG_P, "p"), Not(s))
    sigma = SignatureMorphism.of(SIG_P, Signature.of("q"), {"p": "q"})
    assert render_sentence(translate_sentence(sigma, s)) == text.replace("(var p)", "(var q)")


def test_5000_deep_sentences_compare_hash_and_print(time_budget):
    chain = "(and " * 5000 + "(var p)" + " (var q))" * 5000
    with time_budget(5):
        for text in ("(not " * 5000 + "(var p)" + ")" * 5000, chain):
            s, t = parse_sentence(text), parse_sentence(text)
            differs = parse_sentence(text.replace("(var p)", "(var q)"))
            assert s == t and s is not t
            assert hash(s) == hash(t)
            assert s != differs and s != Var("p") and s != Not(s)
            assert len({s, t, differs}) == 2
        assert repr(nested_nots(5000, Var("p"))) == \
            "Not(body=" * 5000 + "Var(name='p')" + ")" * 5000
        assert repr(parse_sentence(chain)) == \
            "And(lhs=" * 5000 + "Var(name='p')" + ", rhs=Var(name='q'))" * 5000


def test_every_sentence_operation_takes_a_200000_deep_chain(time_budget):
    depth = 200_000
    s, t = nested_nots(depth, Var("p")), nested_nots(depth, Var("p"))
    sigma = SignatureMorphism.of(SIG_P, Signature.of("q"), {"p": "q"})
    with time_budget(10):
        assert render_sentence(s) == "(not " * depth + "(var p)" + ")" * depth
        assert repr(s) == "Not(body=" * depth + "Var(name='p')" + ")" * depth
        assert s == t and s is not t and s != Not(t)
        assert hash(s) == hash(t)
        assert sentence_depth(s) == depth + 1
        assert truth_table(SIG_P, s) == truth_table(SIG_P, Var("p"))
        assert sentence_depth(translate_sentence(sigma, s)) == depth + 1


def test_satisfies_short_circuits_like_and_or():
    m = model_of(SIG_P, "p")
    assert not satisfies(m, And(Bottom(), Var("zz")))
    assert satisfies(m, Or(Top(), Var("zz")))
    assert satisfies(m, Implies(Bottom(), Var("zz")))
    with pytest.raises(UnknownElementError):
        satisfies(m, And(Top(), Var("zz")))
    with pytest.raises(TypeError, match="not a sentence: 'x'"):
        satisfies(m, Or(Bottom(), "x"))


MALFORMED = [Or(Bottom(), "x"), Not(None), Implies("p", Var("p")), And(Top(), Not(3)), "x"]


@pytest.mark.parametrize("s", MALFORMED, ids=repr)
def test_every_sentence_operation_rejects_a_non_sentence_leaf(s):
    sigma = SignatureMorphism.identity(SIG_P)
    operations = [render_sentence, sentence_depth, lambda s: truth_table(SIG_P, s),
                  lambda s: translate_sentence(sigma, s), lambda s: satisfies(model_of(SIG_P), s),
                  lambda s: TheoryObject.of_sentence(SIG_P, s)]
    for operation in operations:
        with pytest.raises(TypeError, match="not a sentence"):
            operation(s)


def recursive_render(s):
    if isinstance(s, Var):
        return f"(var {s.name})"
    if isinstance(s, Not):
        return f"(not {recursive_render(s.body)})"
    if isinstance(s, (And, Or, Implies)):
        name = {And: "and", Or: "or", Implies: "implies"}[type(s)]
        return f"({name} {recursive_render(s.lhs)} {recursive_render(s.rhs)})"
    return "top" if isinstance(s, Top) else "bottom"


def recursive_depth(s):
    if isinstance(s, (Var, Top, Bottom)):
        return 1
    if isinstance(s, Not):
        return 1 + recursive_depth(s.body)
    return 1 + max(recursive_depth(s.lhs), recursive_depth(s.rhs))


def recursive_repr(s):
    if isinstance(s, Not):
        return f"Not(body={recursive_repr(s.body)})"
    if isinstance(s, (And, Or, Implies)):
        return f"{type(s).__name__}(lhs={recursive_repr(s.lhs)}, rhs={recursive_repr(s.rhs)})"
    return repr(s)


def random_sentence(rng, names, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([Var(name) for name in names] + [Top(), Bottom()])
    op = rng.choice([Not, And, Or, Implies])
    if op is Not:
        return Not(random_sentence(rng, names, depth - 1))
    return op(random_sentence(rng, names, depth - 1), random_sentence(rng, names, depth - 1))


def test_stack_sentence_functions_match_recursive_definitions():
    sigma = SignatureMorphism.of(SIG_PQ, SIG_PQ, {"p": "q", "q": "p"})
    sentences = enumerate_sentences(SIG_PQ, 3)
    deeper = [And(Not(a), Implies(b, Or(a, Not(b)))) for a, b in zip(sentences, sentences[1:])]
    rng = random.Random(1201)
    seeded = [random_sentence(rng, ["p", "q"], rng.randint(1, 9)) for _ in range(300)]
    for s in sentences + tuple(deeper) + tuple(seeded):
        text = recursive_render(s)
        assert render_sentence(s) == text
        assert repr(s) == recursive_repr(s)
        assert sentence_depth(s) == recursive_depth(s)
        assert parse_sentence(text) == s and hash(parse_sentence(text)) == hash(s)
        swapped = text.replace("var p", "var #").replace("var q", "var p")
        assert render_sentence(translate_sentence(sigma, s)) == swapped.replace("var #", "var q")
        for m in all_models(SIG_PQ):
            assert satisfies(m, s) == bool(truth_table(SIG_PQ, s) >> m.valuation.bits & 1)


@pytest.mark.parametrize("text, message", [
    ("", "unexpected end of sentence"),
    ("(", "unexpected end of sentence"),
    ("(var", "missing variable name"),
    ("(var p", "missing closing parenthesis"),
    ("(not)", "unexpected token ')'"),
    ("(and top)", "unexpected token ')'"),
    ("(and top top top)", "missing closing parenthesis"),
    ("(not (var p)", "missing closing parenthesis"),
    ("(nand top)", "unknown connective 'nand'"),
    ("top top", "trailing tokens after sentence"),
])
def test_parse_sentence_error_messages(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_sentence(text)


@pytest.mark.parametrize("data", [
    "pq", [], {"signature": "pq", "models": []}, {"signature": ["p"]},
    {"signature": ["p", "p"], "models": []}, {"signature": ["p"], "models": "p"},
    {"signature": ["p"], "models": [["q"]]}, {"signature": ["p"], "sentence": 1},
    {"signature": ["p"], "sentence": "(var q)"},
    {"signature": ["p"], "models": "x", "sentence": "(var p)"},
])
def test_theory_from_json_rejects_malformed(data):
    with pytest.raises(ParseError):
        theory_from_json(data)


# ------------------------------------------------------------- size caps


def oracle_enumerate_sentences(sig, depth):
    """The earlier enumeration: one ``truth_table`` per candidate sentence,
    every level built, with no cap."""
    reps, tables = [], set()

    def add(s):
        t = truth_table(sig, s)
        if t not in tables:
            tables.add(t)
            reps.append(s)

    if depth < 1:
        return ()
    for name in sig.vars.elements:
        add(Var(name))
    add(Top())
    add(Bottom())
    for _level in range(2, depth + 1):
        snapshot = list(reps)
        for s in snapshot:
            add(Not(s))
        for op in (And, Or, Implies):
            for lhs in snapshot:
                for rhs in snapshot:
                    add(op(lhs, rhs))
    return tuple(reps)


def test_enumeration_stopping_at_a_fixpoint_matches_every_level_built():
    for sig in (Signature.of(), Signature.of("p"), Signature.of("p", "q")):
        for depth in range(7):
            assert enumerate_sentences(sig, depth) == oracle_enumerate_sentences(sig, depth)
        assert enumerate_sentences(sig, 10**9) == enumerate_sentences(sig, 6)
    for sig, depths in ((Signature.of("p", "q", "r"), (1, 2, 3)),
                        (Signature.of("p", "q", "r", "s"), (2, 3))):
        for depth in depths:
            assert enumerate_sentences(sig, depth) == oracle_enumerate_sentences(sig, depth)


def test_sentence_level_cap_trips_before_building_the_level(time_budget):
    sig = Signature.of("p", "q", "r", "s", "t")
    with time_budget(5):
        with pytest.raises(SizeLimitError, match=r"level 4 over 5 variables would build 7321094"):
            enumerate_sentences(sig, 4)
    assert len(enumerate_sentences(sig, 3)) == 1562


def test_style_cap_trips_before_concepts_are_enumerated(monkeypatch):
    identity = SignatureMorphism.identity(Signature.of("p", "q", "r", "s"))
    work = (1 << 16) * 34
    monkeypatch.setattr(institution, "STYLE_MAX_WORK", work)
    assert style_interconvert(identity, 2).all_pass
    monkeypatch.setattr(institution, "STYLE_MAX_WORK", work - 1)
    monkeypatch.setattr(clg, "concepts_of", lambda a: pytest.fail("concepts enumerated"))
    with pytest.raises(SizeLimitError, match=r"2\^16 concepts x 34 sentence types = 2228224 "
                                             r"intent bits, above the fixed cap of "
                                             r"STYLE_MAX_WORK = 2228223"):
        style_interconvert(identity, 2)
