"""The written-out value classes against the ``@dataclass`` declarations they replace.

Each value class of ``finrel``, ``order``, ``galois``, ``clsn``, ``clg``,
``institution`` and ``verify`` used to be a dataclass.  The declarations are
copied in below as the oracle, fields and decorator options only, with the
one method that changed what the decorator generated (``FinSet.__eq__``).
On instances built by the library, each class must give what its oracle
gives for ``repr``, ``==``, ``hash``, ``__match_args__``, the ``__init__``
parameters and their defaults, and the errors of assigning and deleting an
attribute.  The connectives take ``==``, ``hash`` and ``repr`` from
``institution._Connective`` either way, so only what the decorator made for
them is compared.

Values are stored one way: every field, and every attribute derived from
the fields, in a slot of its name.  Only a class with a ``cached_property``
also has an instance dict, to hold the cached value.  Fields are written one way: by the
class's filler ``_fill``, behind both ``__init__`` and ``finrel._trusted``.
A sample rebuilt from its fields by ``finrel._trusted`` or by keyword
through its constructor, each concept that ``clg._formal_concepts`` builds
through the slot descriptors, and a sample copied or pickled, must be
indistinguishable from the value the public constructors build.  The
oracles keep their instance dict, so a mutable report, whose oracle takes
any new attribute, is compared on that with a slotted class of its name.

A child interpreter imports every layer and checks that no method of a
``conceptua`` class was compiled by ``dataclasses`` (whose generated code
has the file name ``<string>``).
"""

from __future__ import annotations

import ast
import copy
import inspect
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import pytest

from conceptua import cli, clg, clsn, finrel, galois, institution, io, order, verify

SRC = Path(__file__).resolve().parent.parent / "src"


# ------------------------------------------------------------------ oracles


@dataclass(frozen=True)
class FinSet:
    elements: tuple[str, ...]

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.elements == other.elements


@dataclass(frozen=True)
class Subset:
    carrier: FinSet
    bits: int


@dataclass(frozen=True)
class FinFunction:
    source: FinSet
    target: FinSet
    table: tuple[int, ...]


@dataclass(frozen=True)
class Relation:
    source: FinSet
    target: FinSet
    rows: tuple[int, ...]


@dataclass(frozen=True)
class EndorelationFlags:
    reflexive: bool
    transitive: bool
    symmetric: bool
    antisymmetric: bool


@dataclass(frozen=True)
class Preorder:
    carrier: FinSet
    leq: Relation


@dataclass(frozen=True)
class Poset(Preorder):
    pass


@dataclass(frozen=True)
class MonotoneMap:
    source: Preorder
    target: Preorder
    func: FinFunction


@dataclass(frozen=True)
class OrderBimodule:
    source: Preorder
    target: Preorder
    rel: Relation


@dataclass(frozen=True)
class OrderProduct:
    order: Preorder
    proj0: MonotoneMap
    proj1: MonotoneMap


@dataclass(frozen=True)
class Adjunction:
    source: Preorder
    target: Preorder
    left: MonotoneMap
    right: MonotoneMap


@dataclass(frozen=True)
class ClosureInterior:
    closure: MonotoneMap
    interior: MonotoneMap
    closed_inclusion: MonotoneMap
    open_inclusion: MonotoneMap


@dataclass(frozen=True)
class PolarFactorization:
    original: Adjunction
    axis: Poset
    extent_reflection: Adjunction
    intent_coreflection: Adjunction
    bipoles: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Classification:
    instances: FinSet
    types: FinSet
    incidence: Relation


@dataclass(frozen=True)
class Infomorphism:
    source: Classification
    target: Classification
    inst_map: FinFunction
    typ_map: FinFunction


@dataclass(frozen=True)
class InfomorphismReport:
    relation_version: bool
    morphism_version: bool
    adjunction_version: bool
    witness: tuple[str, str] | None


@dataclass(frozen=True)
class FormalConcept:
    extent: Subset
    intent: Subset


@dataclass(frozen=True)
class ConceptLattice:
    instances: FinSet
    types: FinSet
    lattice: Poset
    extents: tuple[int, ...]
    intents: tuple[int, ...]
    iota_embed: FinFunction
    tau_embed: FinFunction


@dataclass(frozen=True)
class ConceptMorphism:
    source: ConceptLattice
    target: ConceptLattice
    connection: Adjunction
    inst_map: FinFunction
    typ_map: FinFunction


@dataclass(frozen=True)
class Signature:
    vars: FinSet


@dataclass(frozen=True)
class SignatureMorphism:
    source: Signature
    target: Signature
    map: FinFunction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Not:
    body: Sentence


@dataclass(frozen=True, eq=False, repr=False)
class And:
    lhs: Sentence
    rhs: Sentence


@dataclass(frozen=True, eq=False, repr=False)
class Or:
    lhs: Sentence
    rhs: Sentence


@dataclass(frozen=True, eq=False, repr=False)
class Implies:
    lhs: Sentence
    rhs: Sentence


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Model:
    signature: Signature
    valuation: Subset


@dataclass
class SatisfactionReport:
    models_checked: int = 0
    sentences_checked: int = 0
    failures: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class TheoryObject:
    signature: Signature
    model_class: Subset


@dataclass(frozen=True)
class FlattenedTheoryCategory:
    objects: tuple[tuple[int, int], ...]
    sig_morphisms: tuple[tuple[int, int, SignatureMorphism], ...]
    morphisms: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class MergeSpan:
    base: Signature
    left_map: SignatureMorphism
    right_map: SignatureMorphism
    left_theory: TheoryObject
    right_theory: TheoryObject


@dataclass(frozen=True)
class MergeResult:
    signature: Signature
    left_injection: SignatureMorphism
    right_injection: SignatureMorphism
    theory: TheoryObject
    inconsistent: bool


@dataclass
class StyleReport:
    class_rel: bool
    class_adj: bool
    conc_adj: bool
    conc_rel: bool
    witnesses: dict


@dataclass
class LawReport:
    suite: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0


MODULES = (finrel, order, galois, clsn, clg, institution, verify)
ORACLES = {cls.__name__: cls for cls in [
    FinSet, Subset, FinFunction, Relation,
    EndorelationFlags, Preorder, Poset, MonotoneMap, OrderBimodule, OrderProduct,
    Adjunction, ClosureInterior, PolarFactorization,
    Classification, Infomorphism, InfomorphismReport,
    FormalConcept, ConceptLattice, ConceptMorphism,
    Signature, SignatureMorphism, Var, Not, And, Or, Implies, Top, Bottom, Model,
    SatisfactionReport, TheoryObject, FlattenedTheoryCategory,
    MergeSpan, MergeResult, StyleReport,
    LawReport,
]}
CONNECTIVES = {"Not", "And", "Or", "Implies"}


def library_class(name):
    return next(getattr(m, name) for m in MODULES if hasattr(m, name))


# ---------------------------------------------------------------- instances


def _samples() -> dict[str, list]:
    """Per class, instances built by the library: some equal but not identical,
    some different."""
    c, c2 = finrel.finset("a", "b"), finrel.finset("a", "b")
    rel = finrel.Relation.of(c, c, [("a", "b")])
    chain, discrete = order.Preorder.chain("a", "b"), order.Poset.discrete(c)
    cycle = order.Preorder.from_pairs(c, [("a", "b"), ("b", "a")])
    ident = order.MonotoneMap.identity(chain)
    flip = order.MonotoneMap.from_map(discrete, discrete, {"a": "b", "b": "a"})

    a = clsn.Classification.of("xy", "pq", [("x", "p"), ("y", "q"), ("y", "p")])
    b = clsn.Classification.of("xy", "pq", [("x", "p")])
    infos = [clsn.identity_infomorphism(a), clsn.identity_infomorphism(a),
             *clsn.enumerate_infomorphisms(a, b)[:2]]
    deriv = clsn.derivation(a)
    adjunctions = [deriv, galois.identity_adjunction(chain), galois.identity_adjunction(chain)]
    lat = clg.concept_lattice(a)
    a2 = clsn.Classification.of("xy", "pq", [("x", "p"), ("y", "q"), ("y", "p")])

    sig, sig_pq = institution.Signature.of("p"), institution.Signature.of("p", "q")
    into = institution.SignatureMorphism.of(sig, sig_pq, {"p": "p"})
    sentence = institution.parse_sentence(
        "(and (implies (var p) (not (var q))) (or top (and bottom (var p))))")
    nodes = institution._preorder(sentence) + institution._preorder(
        institution.parse_sentence("(and (implies (var p) (not (var q))) (or top bottom))"))
    span = institution.MergeSpan(
        sig, into, institution.SignatureMorphism.identity(sig),
        institution.TheoryObject.of_mask(sig_pq, 0b0110), institution.TheoryObject.of_mask(sig, 0b10))
    flat = institution.flatten([sig, sig_pq], [into])

    return {
        "FinSet": [c, c2, finrel.finset("a")],
        "Subset": [finrel.Subset(c, 1), finrel.Subset.of(c2, ["a"]), finrel.Subset.full(c)],
        "FinFunction": [finrel.FinFunction.identity(c), finrel.FinFunction.identity(c2),
                        *finrel.image_factorize(finrel.FinFunction(c, c, (1, 1)))],
        "Relation": [rel, finrel.transpose(finrel.transpose(rel)), finrel.Relation.identity(c)],
        "EndorelationFlags": [order.classify_endorelation(r) for r in (rel, rel, chain.leq)],
        "Preorder": [cycle, order.Preorder.from_pairs(c2, [("b", "a"), ("a", "b")]), chain],
        "Poset": [chain, order.Preorder.chain("a", "b"), discrete, order.power_order(c)],
        "MonotoneMap": [ident, order.MonotoneMap.identity(chain), flip],
        "OrderBimodule": [order.bimodule_of_map(ident), order.bimodule_of_map(ident),
                          order.bimodule_of_map(flip, "reverse")],
        "OrderProduct": [order.product(chain, chain), order.product(chain, discrete)],
        "Adjunction": adjunctions,
        "ClosureInterior": [galois.closure_interior(g) for g in adjunctions],
        "PolarFactorization": [galois.polar_factorize(g) for g in adjunctions],
        "Classification": [a, a2, b],
        "Infomorphism": infos,
        "InfomorphismReport": [clsn.check_infomorphism(f) for f in infos],
        "FormalConcept": list(lat.concepts) + list(clg.concept_lattice(a2).concepts),
        "ConceptLattice": [lat, clg.concept_lattice(a2), clg.concept_lattice(b)],
        "ConceptMorphism": [clg.concept_morphism_of(f) for f in infos[:2]],
        "Signature": [sig, institution.signature_from_json(["p"]), sig_pq],
        "SignatureMorphism": [into, institution.SignatureMorphism.of(sig, sig_pq, {"p": "q"}),
                              institution.SignatureMorphism.identity(sig)],
        "Var": [t for t in nodes if isinstance(t, institution.Var)],
        "Not": [t for t in nodes if type(t) is institution.Not],
        "And": [t for t in nodes if type(t) is institution.And],
        "Or": [t for t in nodes if type(t) is institution.Or],
        "Implies": [t for t in nodes if type(t) is institution.Implies],
        "Top": [t for t in nodes if isinstance(t, institution.Top)],
        "Bottom": [t for t in nodes if isinstance(t, institution.Bottom)],
        "Model": institution.all_models(sig_pq) + institution.all_models(sig_pq)[:1],
        "SatisfactionReport": [institution.check_satisfaction_condition(into, depth=2)] * 2,
        "TheoryObject": [span.left_theory, institution.TheoryObject.of_mask(sig_pq, 0b0110),
                         institution.theory_from_json({"signature": ["p"], "sentence": "(var p)"})],
        "FlattenedTheoryCategory": [flat],
        "MergeSpan": [span],
        "MergeResult": [institution.merge_theories(span), institution.merge_theories(span)],
        "StyleReport": [institution.style_interconvert(into, 1)] * 2,
        "LawReport": verify.run_suite("finrel", 0, 2) + verify.run_suite("clsn", 0, 2),
    }


@pytest.fixture(scope="module")
def samples():
    return _samples()


def test_every_value_class_has_an_oracle_and_samples(samples):
    converted = {name for m in MODULES for name, obj in vars(m).items()
                 if isinstance(obj, type) and issubclass(obj, finrel._Record)
                 and not name.startswith("_")}
    assert converted == set(ORACLES)
    assert set(samples) == set(ORACLES)
    assert all(samples.values())


def _as_oracle(x):
    oracle = ORACLES[type(x).__name__]
    return oracle(*[getattr(x, f) for f in oracle.__match_args__])


def _outcome(fn, *args):
    """The result of the call, or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle may raise anything
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_match_args_and_init_parameters(name):
    cls, oracle = library_class(name), ORACLES[name]
    assert cls.__match_args__ == oracle.__match_args__
    params = inspect.signature(cls).parameters.values()
    expected = inspect.signature(oracle).parameters.values()
    assert [(p.name, p.kind) for p in params] == [(p.name, p.kind) for p in expected]
    required = [p for p in expected if p.default is inspect.Parameter.empty]
    assert [p.default is inspect.Parameter.empty for p in params] == \
        [p.default is inspect.Parameter.empty for p in expected]
    if len(required) < len(expected):
        # Defaults, a default factory included: the same fresh value per instance.
        args = [f"v{i}" for i in range(len(required))]
        x, y = cls(*args), cls(*args)
        assert repr(x) == repr(oracle(*args))
        assert x == y and all(getattr(x, f) is not getattr(y, f) for f in cls.__match_args__
                              if isinstance(getattr(x, f), list))


@pytest.mark.parametrize("name", sorted(ORACLES.keys() - CONNECTIVES))
def test_repr_eq_hash_match_the_oracle(samples, name):
    xs = samples[name]
    oracles = [_as_oracle(x) for x in xs]
    for x, o in zip(xs, oracles):
        assert repr(x) == repr(o)
        assert _outcome(hash, x) == _outcome(hash, o)
        assert x.__eq__(object()) is NotImplemented and o.__eq__(object()) is NotImplemented
    pairs = [(x, y, o, p) for x, o in zip(xs, oracles) for y, p in zip(xs, oracles)]
    pairs += [(x, copy.copy(x), o, copy.copy(o)) for x, o in zip(xs, oracles)]
    for x, y, o, p in pairs:
        assert (x == y) == (o == p) and (x != y) == (o != p)


def test_equal_fields_of_another_class_compare_unequal(samples):
    poset = samples["Poset"][0]
    as_preorder = order.Preorder(poset.carrier, poset.leq)
    assert (as_preorder == poset, poset == as_preorder) == (False, False)
    assert Preorder(poset.carrier, poset.leq) != Poset(poset.carrier, poset.leq)
    assert hash(as_preorder) == hash(poset)


def _slotted_like(name):
    """An instance of an empty slotted class named ``name``: what a mutable
    record does with an attribute that is not a field."""
    return type(name, (), {"__slots__": ()})()


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_assignment_and_deletion_match_the_oracle(samples, name):
    x = samples[name][0]
    o = _as_oracle(x)
    frozen = ORACLES[name].__dataclass_params__.frozen
    for attr in (*ORACLES[name].__match_args__, "not_a_field"):
        value = getattr(x, attr, None)
        ref = o if frozen or attr != "not_a_field" else _slotted_like(name)
        assert _outcome(setattr, x, attr, value) == _outcome(setattr, ref, attr, value)
        assert _outcome(delattr, x, attr) == _outcome(delattr, ref, attr)
        if not frozen and attr in ORACLES[name].__match_args__:
            setattr(x, attr, value)  # put it back: the samples are shared


def test_no_layer_compiles_dataclass_code_on_import():
    """In a fresh interpreter, no method of a ``conceptua`` class comes from
    code compiled by ``dataclasses``; a dataclass of the probe's own is the
    control that the probe finds such methods."""
    probe = """
import dataclasses, importlib, inspect, json

def generated(cls):
    names = []
    for attr, value in vars(cls).items():
        code = getattr(inspect.unwrap(getattr(value, "__func__", value)), "__code__", None)
        if code is not None and code.co_filename == "<string>":
            names.append(f"{cls.__qualname__}.{attr}")
    return names

@dataclasses.dataclass(frozen=True)
class Control:
    field: int

found = []
for layer in ("cli", "io", "finrel", "order", "galois", "clsn", "clg", "institution", "verify"):
    module = importlib.import_module(f"conceptua.{layer}")
    for cls in vars(module).values():
        # A named tuple compiles its __new__ the same way; only dataclasses are checked.
        if isinstance(cls, type) and cls.__module__.startswith("conceptua") \\
                and not issubclass(cls, tuple):
            found += generated(cls)
print(json.dumps({"control": generated(Control), "found": sorted(set(found))}))
"""
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    result = json.loads(out)
    assert result["control"], "the probe finds the methods of a dataclass"
    assert result["found"] == []


# ------------------------------------------------------- one storage path


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_trusted_rebuild_is_the_sample(samples, name):
    """``_trusted`` from the fields, in ``__match_args__`` order, gives the
    sample's fields, ``repr``, ``==`` and ``hash``, and assigning and deleting
    go on it as on a copy of the sample."""
    fields = ORACLES[name].__match_args__
    for x in samples[name]:
        y = finrel._trusted(type(x), *[getattr(x, f) for f in fields])
        assert type(y) is type(x)
        assert all(getattr(y, f) is getattr(x, f) for f in fields)
        assert repr(y) == repr(x)
        assert y == x and x == y and not y != x
        assert _outcome(hash, y) == _outcome(hash, x)
        twin = copy.copy(x)
        for attr in (*fields, "not_a_field"):
            value = getattr(x, attr, None)
            assert _outcome(setattr, y, attr, value) == _outcome(setattr, twin, attr, value)
            assert _outcome(delattr, y, attr) == _outcome(delattr, twin, attr)


LAYERS = (cli, io, finrel, order, galois, clsn, clg, institution, verify)
# Attributes set from the fields, kept in a slot beside them.
DERIVED = {"FinSet": {"size", "full_mask"}}


def _field_slots(cls) -> set[str]:
    """The slots that hold the fields of ``cls``."""
    return set(cls.__match_args__)


def _slots(cls) -> list[str]:
    return [name for c in cls.__mro__ for name in vars(c).get("__slots__", ())]


def _records() -> set[type]:
    return {cls for m in LAYERS for cls in vars(m).values()
            if isinstance(cls, type) and issubclass(cls, finrel._Record)}


def _filled_slots(x) -> set[str]:
    return {s for s in _slots(type(x)) if s != "__dict__" and hasattr(x, s)}


def test_each_builder_fills_exactly_its_fields_in_order():
    """Each ``_Record`` subclass has a filler of its own, ``cls._fill(obj,
    *values)``, which writes value k to field k of ``__match_args__``, sets
    no other slot and returns ``obj``; any other number of values raises
    ``TypeError``.  ``_trusted`` is the filler on a fresh object."""
    subclasses = _records() - {finrel._Record}
    assert len({cls._fill for cls in subclasses}) == len(subclasses)
    for cls in subclasses:
        fields = cls.__match_args__
        values = [object() for _ in fields]
        obj = object.__new__(cls)
        assert cls._fill(obj, *values) is obj
        x = finrel._trusted(cls, *values)
        for y in (obj, x):
            assert type(y) is cls
            assert all(getattr(y, f) is v for f, v in zip(fields, values, strict=True)), cls
            assert _filled_slots(y) == _field_slots(cls), cls
            assert vars(y) == {} if "__dict__" in _slots(cls) else not hasattr(y, "__dict__")
        with pytest.raises(TypeError):
            cls._fill(object.__new__(cls), *values, object())
        with pytest.raises(TypeError):
            finrel._trusted(cls, *values, object())
        if fields:
            short = object.__new__(cls)
            with pytest.raises(TypeError):
                cls._fill(short, *values[:-1])
            with pytest.raises(TypeError):
                finrel._trusted(cls, *values[:-1])


def test_trusted_poset_is_a_poset():
    """A subclass gets its own builder, not its base's: ``_trusted(Poset, ...)``
    is a ``Poset`` and ``_trusted(Preorder, ...)`` a ``Preorder``."""
    chain = order.Preorder.chain("a", "b", "c")
    poset = finrel._trusted(order.Poset, chain.carrier, chain.leq)
    preorder = finrel._trusted(order.Preorder, chain.carrier, chain.leq)
    assert type(poset) is order.Poset and poset == chain and poset.is_poset()
    assert type(preorder) is order.Preorder and preorder != chain


def _calls_in(name: str, tree: ast.Module) -> list[ast.Call]:
    return [n for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name]


PACKAGE = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted((SRC / "conceptua").glob("*.py"))}


def test_trusted_is_called_positionally_and_builds_without_a_loop():
    """No ``_trusted`` call in the package passes a keyword; ``_trusted`` and
    the filler closures hold no loop and no write by name."""
    calls = [call for tree in PACKAGE.values() for call in _calls_in("_trusted", tree)]
    assert len(calls) >= 40
    assert [ast.unparse(c) for c in calls if c.keywords or len(c.args) < 2] == []
    makers = {n.name: n for n in PACKAGE["finrel.py"].body if isinstance(n, ast.FunctionDef)}
    # ``_filler`` runs once per class; what runs per value is ``_trusted``
    # and the closures it returns.
    per_value = [makers["_trusted"]] + [
        n for n in ast.walk(makers["_filler"])
        if isinstance(n, (ast.FunctionDef, ast.Lambda)) and n is not makers["_filler"]]
    assert len(per_value) == 6
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for fn in per_value:
        body = list(ast.walk(fn))
        assert not [n for n in body if isinstance(n, loops)], ast.unparse(fn)
        names = {n.id for n in body if isinstance(n, ast.Name)} | \
            {n.attr for n in body if isinstance(n, ast.Attribute)}
        assert not names & {"getattr", "__setattr__", "setattr", "__dict__"}, ast.unparse(fn)
        # No field named in a string: the only string is a docstring.
        doc = fn.body[0].value if isinstance(fn, ast.FunctionDef) and ast.get_docstring(fn) else None
        assert not [n for n in body if isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and n is not doc], ast.unparse(fn)


def _setattr_reads(tree) -> list[ast.AST]:
    """Every read of ``setattr`` or of a ``__setattr__`` attribute."""
    return [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "setattr"
            or isinstance(n, ast.Attribute) and n.attr == "__setattr__"]


def test_no_module_writes_through_setattr():
    """No module of the package calls ``setattr`` or any ``__setattr__``,
    ``object.__setattr__`` included, nor binds one to another name."""
    found = [f"{name}:{n.lineno} {ast.unparse(n)}" for name, tree in PACKAGE.items()
             for n in _setattr_reads(tree)]
    assert found == []


def test_the_setattr_check_sees_a_write():
    tree = ast.parse("_set = object.__setattr__\nsetattr(x, 'a', 1)\nsuper().__setattr__('b', 2)\n"
                     "def __setattr__(self, name, value):\n    pass\n")
    assert len(_setattr_reads(tree)) == 3


def _own_inits() -> dict[type, ast.FunctionDef]:
    """The ``__init__`` of every ``_Record`` class that defines one, as parsed."""
    inits = {}
    for m in LAYERS:
        tree = PACKAGE[Path(m.__file__).name]
        for node in tree.body:
            cls = getattr(m, node.name, None) if isinstance(node, ast.ClassDef) else None
            if isinstance(cls, type) and issubclass(cls, finrel._Record):
                inits.update((cls, f) for f in node.body
                             if isinstance(f, ast.FunctionDef) and f.name == "__init__")
    return inits


def test_every_init_writes_its_fields_with_one_fill_call():
    """Each ``_Record`` ``__init__`` makes exactly one call, ``self._fill(self,
    ...)``, with one value per field, and assigns no attribute; every record
    class with fields inherits one of these ``__init__`` methods."""
    inits = _own_inits()
    assert len(inits) == 31
    for cls, init in inits.items():
        fills = [n for n in ast.walk(init) if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Attribute) and n.func.attr == "_fill"]
        assert [ast.unparse(n.func) for n in fills] == ["self._fill"], cls
        assert ast.unparse(fills[0].args[0]) == "self" and not fills[0].keywords, cls
        assert len(fills[0].args) == 1 + len(cls.__match_args__), cls
        targets = [t for n in ast.walk(init) if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                   for t in (n.targets if isinstance(n, ast.Assign) else [n.target])]
        assert not [t for t in targets for n in ast.walk(t) if isinstance(n, ast.Attribute)], cls
    for cls in _records():
        if cls.__match_args__:
            assert next(c for c in cls.__mro__ if "__init__" in vars(c)) in inits, cls


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_keyword_rebuild_is_the_sample(samples, name):
    """The constructor called with each field by keyword rebuilds the sample:
    equal, of the same class, with the same ``repr`` and the same fields."""
    for x in samples[name]:
        cls = type(x)
        y = cls(**{f: getattr(x, f) for f in cls.__match_args__})
        assert type(y) is cls
        assert y == x and x == y and repr(y) == repr(x)
        assert [getattr(y, f) for f in cls.__match_args__] == [getattr(x, f) for f in cls.__match_args__]
        assert _filled_slots(y) == _filled_slots(x)


def _cached(cls) -> set[str]:
    return {name for c in cls.__mro__ for name, v in vars(c).items() if isinstance(v, cached_property)}


def test_every_record_class_declares_its_slots():
    """Each ``_Record`` class of the nine layers declares ``__slots__``: its
    fields, any derived attribute, and ``__dict__`` exactly when it has a
    ``cached_property`` to hold."""
    records = {cls for m in LAYERS for cls in vars(m).values()
               if isinstance(cls, type) and issubclass(cls, finrel._Record)}
    assert {cls.__name__ for cls in records} == \
        set(ORACLES) | {"_Record", "_Value", "_Connective", "_Binary"}
    assert sorted(cls.__qualname__ for cls in records if "__slots__" not in vars(cls)) == []
    for cls in records:
        slots = _slots(cls)
        assert len(slots) == len(set(slots)), cls
        assert set(slots) - {"__dict__"} == _field_slots(cls) | DERIVED.get(cls.__name__, set())
        assert ("__dict__" in slots) == bool(_cached(cls)), cls
    assert {cls.__name__ for cls in records if _cached(cls)} == \
        {"Relation", "Classification", "ConceptLattice"}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_samples_have_no_instance_dict_but_for_a_cache(samples, name):
    for x in samples[name]:
        if "__dict__" in _slots(type(x)):
            assert set(vars(x)) <= _cached(type(x))
        else:
            assert not hasattr(x, "__dict__")
        assert all(hasattr(x, slot) for slot in _slots(type(x)))


CACHED = [(finrel.Relation, "columns"), (clsn.Classification, "_concept_bits"),
          (clsn.Classification, "concepts"), (clg.ConceptLattice, "concepts"),
          (clg.ConceptLattice, "_adjunctions")]
# Cached attributes that reading another one fills first: a classification's
# concept tuple is built from its ints.
FILLED_FIRST = {(clsn.Classification, "concepts"): {"_concept_bits"}}


@pytest.mark.parametrize("cls, attr", CACHED, ids=[f"{c.__name__}.{a}" for c, a in CACHED])
def test_cached_attribute_runs_once_per_instance(samples, monkeypatch, cls, attr):
    """Each cached attribute is a ``functools.cached_property`` (of the
    lock-free kind), runs its function once per instance, and stays out of
    ``==``, ``hash`` and ``__getstate__``."""
    descriptor = vars(cls)[attr]
    assert type(descriptor) is finrel._cached and isinstance(descriptor, cached_property)
    assert getattr(cls, attr) is descriptor
    calls = []
    func = descriptor.func
    monkeypatch.setattr(descriptor, "func", lambda self: calls.append(self) or func(self))
    # Copies start without the cached value, which ``__getstate__`` leaves out.
    fresh = [copy.copy(x) for x in samples[cls.__name__]]
    assert all(attr not in vars(x) for x in fresh)
    for x in fresh:
        value = getattr(x, attr)
        assert getattr(x, attr) is value and getattr(x, attr) is value
        assert set(vars(x)) == {attr} | FILLED_FIRST.get((cls, attr), set())
        assert vars(x)[attr] is value
        assert attr not in x.__getstate__()
        bare = copy.copy(x)
        assert attr not in vars(bare)
        assert bare == x and x == bare and _outcome(hash, bare) == _outcome(hash, x)
    assert [id(x) for x in calls] == [id(x) for x in fresh]


def _readable(cls) -> list[str]:
    """Every slot and every property of ``cls``, cached ones included."""
    props = {name for c in cls.__mro__ for name, v in vars(c).items()
             if isinstance(v, (property, cached_property))}
    return sorted(set(_slots(cls)) - {"__dict__"} | props)


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle-{protocol}": lambda x, protocol=protocol: pickle.loads(pickle.dumps(x, protocol))
       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)},
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_copy_and_pickle_keep_every_attribute(samples, name):
    """A copy of each sample, shallow, deep or pickled at any protocol, reads
    every slot and property as the sample does, and is as frozen."""
    for (how, make), x in itertools.product(COPIES.items(), samples[name]):
        y = make(x)
        assert type(y) is type(x), how
        assert y == x and repr(y) == repr(x) and _outcome(hash, y) == _outcome(hash, x)
        for attr in _readable(type(x)):
            assert _outcome(getattr, y, attr) == _outcome(getattr, x, attr), attr
        for attr in x.__match_args__[:1]:
            value = getattr(x, attr)
            assert _outcome(setattr, y, attr, value) == _outcome(setattr, x, attr, value)


def _golden_contexts():
    golden = Path(__file__).resolve().parent / "golden"
    return [io.read_context((golden / name).read_text(), io.detect_format(name))
            for name in ("planets.cxt", "animals.csv", "shapes.json", "quoted.json",
                         "info_a.cxt", "info_b.cxt")]


def _seeded_contexts():
    rng = random.Random(25)
    out = []
    for n_inst, n_typ in [(0, 0), (0, 3), (3, 0), (1, 1), (4, 9), (9, 4), (7, 7), (12, 10)]:
        inst = finrel.FinSet(tuple(f"g{i}" for i in range(n_inst)))
        typ = finrel.FinSet(tuple(f"m{j}" for j in range(n_typ)))
        rows = tuple(rng.getrandbits(n_typ) for _ in range(n_inst))
        out.append(clsn.Classification(inst, typ, finrel.Relation(inst, typ, rows)))
    return out


@pytest.mark.parametrize("a", _golden_contexts() + _seeded_contexts(),
                         ids=lambda a: f"{a.instances.size}x{a.types.size}")
def test_inline_concepts_are_the_public_ones(a):
    """Each concept built inline by ``_formal_concepts``, the builder of the
    public tuple, equals, reads, prints and hashes as the one the validating
    constructors build from its bits."""
    concepts = clg._formal_concepts(a.instances, a.types, *a._concept_bits)
    assert concepts and len({c.extent.bits for c in concepts}) == len(concepts)
    for c in concepts:
        public = clg.FormalConcept(finrel.Subset(a.instances, c.extent.bits),
                                   finrel.Subset(a.types, c.intent.bits))
        assert c == public and hash(c) == hash(public) and repr(c) == repr(public)
        assert c.extent.carrier is a.instances and c.intent.carrier is a.types
        assert (c.extent.bits, c.intent.bits) == (a.extent_of(c.intent.bits), a.intent_of(c.extent.bits))
        assert _outcome(setattr, c, "extent", public.extent) == \
            _outcome(setattr, public, "extent", public.extent)
        assert _outcome(setattr, c.extent, "bits", 0) == _outcome(setattr, public.extent, "bits", 0)
