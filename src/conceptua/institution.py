"""A finite propositional-logic institution with a lattice of theories.

Signatures are finite sets of propositional variables, models are
valuations, sentences are classical formulas deduplicated by truth table.
A signature morphism's reduct is one function from target models to
source models, the instance map of the truth infomorphism. Theories live
extensionally as model classes, each signature carries a complete lattice
of them, and every institution operation is an image or a preimage along
the reduct map: transport is the inverse image, inverse transport the
direct image, and the two form an adjunction between fibers. The
satisfaction condition is checked on truth tables: the preimage of a
sentence's table along the reduct must equal the table of its
translation. Colimit-style merging intersects transported model classes
over a signature pushout.

Every sentence operation but the short-circuiting ``satisfies`` reads one
prefix-order walk over an explicit stack, so sentences may nest past the
recursion limit.
"""

import functools
import itertools
import re
from dataclasses import dataclass, field

from .errors import CarrierMismatchError, ParseError, SizeLimitError, UnknownElementError
from .finrel import FinFunction, FinSet, Relation, Subset, _trusted, image_bits, image_tables, \
    preimage_bits, preimage_rows, transpose
from .galois import Adjunction
from .order import Poset, _bits_in_bytes, _member_masks, _monotone, _subset_rows, \
    check_carrier_bound
from .clsn import Classification

__all__ = [
    "Signature",
    "SignatureMorphism",
    "Var",
    "Not",
    "And",
    "Or",
    "Implies",
    "Top",
    "Bottom",
    "Sentence",
    "render_sentence",
    "parse_sentence",
    "sentence_depth",
    "Model",
    "satisfies",
    "truth_table",
    "enumerate_sentences",
    "model_carrier",
    "all_models",
    "PropositionalInstitution",
    "SatisfactionConfig",
    "check_satisfaction_condition",
    "classification_of_signature",
    "TheoryObject",
    "TheoryFiber",
    "theory_fiber",
    "transport_theory",
    "inverse_transport",
    "fiber_transport_adjunction",
    "FlattenedTheoryCategory",
    "flatten",
    "MergeSpan",
    "MergeResult",
    "merge_theories",
    "verify_pushout_universal",
    "StyleReport",
    "style_interconvert",
    "theory_to_json",
    "signature_from_json",
    "theory_from_json",
]


@dataclass(frozen=True)
class Signature:
    vars: FinSet

    @classmethod
    def of(cls, *names: str) -> "Signature":
        return cls(FinSet(tuple(names)))

    @property
    def size(self) -> int:
        return self.vars.size


@dataclass(frozen=True)
class SignatureMorphism:
    source: Signature
    target: Signature
    map: FinFunction

    def __post_init__(self):
        if self.map.source != self.source.vars or self.map.target != self.target.vars:
            raise CarrierMismatchError("variable map does not match the signatures")

    @classmethod
    def identity(cls, sig: Signature) -> "SignatureMorphism":
        return cls(sig, sig, FinFunction.identity(sig.vars))

    @classmethod
    def of(cls, source: Signature, target: Signature, mapping: dict) -> "SignatureMorphism":
        return cls(source, target, FinFunction.from_map(source.vars, target.vars, mapping))

    def then(self, other: "SignatureMorphism") -> "SignatureMorphism":
        if self.target != other.source:
            raise CarrierMismatchError("signature morphisms are not composable")
        return SignatureMorphism(self.source, other.target, self.map.then(other.map))


# ---------------------------------------------------------------- sentences


@dataclass(frozen=True)
class Var:
    name: str


class _Connective:
    """``==`` and ``hash`` compare the prefix order with connectives mapped to
    their classes; ``repr`` reads as the dataclass one would."""

    def _prefix(self) -> list:
        return [type(t) if isinstance(t, _Connective) else t for t in _preorder(self)]

    def __eq__(self, other):
        return self._prefix() == other._prefix() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self._prefix()))

    def __repr__(self):
        return _write(self, _REPR_OPENERS, ", rhs=", repr)


@dataclass(frozen=True, eq=False, repr=False)
class Not(_Connective):
    body: "Sentence"


@dataclass(frozen=True, eq=False, repr=False)
class And(_Connective):
    lhs: "Sentence"
    rhs: "Sentence"


@dataclass(frozen=True, eq=False, repr=False)
class Or(_Connective):
    lhs: "Sentence"
    rhs: "Sentence"


@dataclass(frozen=True, eq=False, repr=False)
class Implies(_Connective):
    lhs: "Sentence"
    rhs: "Sentence"


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


Sentence = Var | Not | And | Or | Implies | Top | Bottom

# The connectives by name in the sentence syntax; each class's arity is its field count.
_CONNECTIVES = {"not": Not, "and": And, "or": Or, "implies": Implies}
_RENDER_OPENERS = {cls: f"({name} " for name, cls in _CONNECTIVES.items()}
_REPR_OPENERS = {cls: f"{cls.__qualname__}({cls.__match_args__[0]}="
                 for cls in _CONNECTIVES.values()}


def _preorder(s) -> list:
    """The nodes of a sentence in prefix order, over an explicit stack; any
    node that is not a connective is a leaf.  Read backwards with a value
    stack, it gives post-order with a connective's lhs value on top."""
    order = []
    todo = [s]
    while todo:
        t = todo.pop()
        while True:  # down the left spine, leaving right operands for later
            order.append(t)
            if type(t) is Not:
                t = t.body
            elif isinstance(t, _Connective):
                todo.append(t.rhs)
                t = t.lhs
            else:
                break
    return order


def _write(s, openers: dict, separator: str, leaf) -> str:
    """Each connective's opener, its operands split by the separator, then ``)``.

    ``seps`` holds, per binary connective waiting for its rhs, the number of
    connectives open just after it opened: a leaf closes those opened since
    the innermost one, then writes its separator.
    """
    out, seps, opened = [], [], 0
    for t in _preorder(s):
        head = openers.get(type(t))
        if head is not None:
            out.append(head)
            opened += 1
            if type(t) is not Not:
                seps.append(opened)
        else:
            out.append(leaf(t))
            if seps:
                j = seps.pop()
                out.append(")" * (opened - j) + separator)
                opened = j
    out.append(")" * opened)
    return "".join(out)


def _not_a_sentence(t) -> TypeError:
    return TypeError(f"not a sentence: {t!r}")


def _leaf_text(t) -> str:
    if isinstance(t, Var):
        return f"(var {t.name})"
    if isinstance(t, Top):
        return "top"
    if isinstance(t, Bottom):
        return "bottom"
    raise _not_a_sentence(t)


def render_sentence(s: Sentence) -> str:
    """Prefix s-expression text, as ``parse_sentence`` reads it."""
    return _write(s, _RENDER_OPENERS, " ", _leaf_text)


def parse_sentence(text: str) -> Sentence:
    """Prefix s-expression sentence syntax, e.g. ``(and (var p) (not (var q)))``.

    Open connectives wait on an explicit stack, so nesting depth is bounded
    by memory, not by the interpreter's recursion limit.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()[::-1]  # next token last

    def take(missing: str = "unexpected end of sentence") -> str:
        if not tokens:
            raise ParseError(missing)
        return tokens.pop()

    def close():
        if not tokens or tokens.pop() != ")":
            raise ParseError("missing closing parenthesis")

    open_: list[tuple[type, list[Sentence]]] = []
    while True:
        tok = take()
        if tok == "top":
            node: Sentence = Top()
        elif tok == "bottom":
            node = Bottom()
        elif tok != "(":
            raise ParseError(f"unexpected token {tok!r}")
        else:
            head = take()
            if head == "var":
                node = Var(take("missing variable name"))
                close()
            elif head in _CONNECTIVES:
                open_.append((_CONNECTIVES[head], []))
                continue
            else:
                raise ParseError(f"unknown connective {head!r}")
        # Hand the finished operand to the innermost open connective,
        # closing every connective it completes.
        while open_:
            cls, args = open_[-1]
            args.append(node)
            if len(args) < len(cls.__match_args__):
                break
            open_.pop()
            close()
            node = cls(*args)
        if not open_:
            break
    if tokens:
        raise ParseError("trailing tokens after sentence")
    return node


def sentence_depth(s: Sentence) -> int:
    """Nodes on the longest root-to-leaf path."""
    done: list[int] = []
    for t in reversed(_preorder(s)):
        if type(t) is Not:
            done.append(done.pop() + 1)
        elif isinstance(t, _Connective):
            done.append(max(done.pop(), done.pop()) + 1)
        elif isinstance(t, (Var, Top, Bottom)):
            done.append(1)
        else:
            raise _not_a_sentence(t)
    return done[0]


def translate_sentence(sigma: SignatureMorphism, s: Sentence) -> Sentence:
    """Rename the variables along sigma, rebuilding in post-order as ``truth_table`` evaluates."""
    done: list[Sentence] = []
    for t in reversed(_preorder(s)):
        if isinstance(t, Var):
            done.append(Var(sigma.map.apply_label(t.name)))
        elif type(t) is Not:
            done.append(Not(done.pop()))
        elif isinstance(t, _Connective):
            done.append(type(t)(done.pop(), done.pop()))
        elif isinstance(t, (Top, Bottom)):
            done.append(t)
        else:
            raise _not_a_sentence(t)
    return done[0]


# ------------------------------------------------------------------- models


@dataclass(frozen=True)
class Model:
    """A valuation: the subset of variables that are true."""

    signature: Signature
    valuation: Subset

    def __post_init__(self):
        if self.valuation.carrier != self.signature.vars:
            raise CarrierMismatchError("valuation carrier differs from the signature")

    def label(self) -> str:
        return str(self.valuation)


def all_models(sig: Signature) -> list[Model]:
    return [Model(sig, Subset(sig.vars, bits)) for bits in range(1 << sig.size)]


@functools.lru_cache(maxsize=None)
def model_carrier(sig: Signature) -> FinSet:
    return FinSet(tuple(m.label() for m in all_models(sig)))


def satisfies(m: Model, s: Sentence) -> bool:
    """Evaluate in the model, short-circuiting like ``and``/``or``, over an explicit stack.

    A connective waits below its first operand as (class, second operand);
    once that operand's value is known, the second is evaluated only if the
    result still depends on it.
    """
    todo: list = [s]
    value = False
    while todo:
        t = todo.pop()
        if type(t) is tuple:
            op, rhs = t
            if op is Not:
                value = not value
            elif value == (op is not Or):  # true lhs of and/implies, false lhs of or
                todo.append(rhs)
            elif op is Implies:
                value = True
        elif isinstance(t, Var):
            value = m.valuation.contains(t.name)
        elif isinstance(t, Not):
            todo += ((Not, None), t.body)
        elif isinstance(t, (And, Or, Implies)):
            todo += ((type(t), t.rhs), t.lhs)
        elif isinstance(t, Top):
            value = True
        elif isinstance(t, Bottom):
            value = False
        else:
            raise _not_a_sentence(t)
    return value


def truth_table(sig: Signature, s: Sentence) -> int:
    """Bit m of the result is the value of the sentence in model number m.

    Evaluated in post-order, reading the prefix order backwards: each
    connective applies to the tables of its operands on top of the stack.
    A variable's table is its member mask, the models that set it.
    """
    n = sig.size
    full = (1 << (1 << n)) - 1
    done: list[int] = []
    for t in reversed(_preorder(s)):
        cls = type(t)
        if cls is Var:
            done.append(_member_masks(n)[sig.vars.index(t.name)])
        elif cls is Not:
            done.append(~done.pop() & full)
        elif cls is And:
            done.append(done.pop() & done.pop())
        elif cls is Or:
            done.append(done.pop() | done.pop())
        elif cls is Implies:
            done.append((~done.pop() | done.pop()) & full)
        elif cls is Top:
            done.append(full)
        elif cls is Bottom:
            done.append(0)
        else:
            raise _not_a_sentence(t)
    return done[0]


# Most candidate sentences one level of enumerate_sentences checks: k
# representatives give k negations and 3k^2 binary sentences, 715k (0.1 s
# on a 2-vCPU VM) at 4 variables and depth 4 and 7.3M at 5.
SENTENCE_LEVEL_MAX = 1 << 20


@functools.lru_cache(maxsize=256)
def enumerate_sentences(sig: Signature, depth: int) -> tuple[Sentence, ...]:
    """Representatives of all truth tables reachable at the given depth.

    Generation is canonical: variables in signature order, then top and
    bottom, then per level all negations followed by and/or/implies over
    previously found representatives; the first sentence reaching a truth
    table becomes its representative.  A candidate's truth table is computed
    from its operands' tables, and its sentence is built only when the table
    is new.  Stops at the first level that adds no table, and raises
    ``SizeLimitError`` before a level of more than ``SENTENCE_LEVEL_MAX``
    candidates.
    """
    return _sentences_and_tables(sig, depth)[0]


@functools.lru_cache(maxsize=256)
def _sentences_and_tables(sig: Signature, depth: int) -> tuple[tuple[Sentence, ...],
                                                                tuple[int, ...]]:
    """``enumerate_sentences`` and the truth table of each representative,
    which the enumeration computes anyway."""
    if depth < 1:
        return (), ()
    full = (1 << (1 << sig.size)) - 1
    reps: list[Sentence] = []
    tables: list[int] = []  # tables[i] is the truth table of reps[i]
    seen: set[int] = set()

    def add(table: int, connective, *operands):
        if table not in seen:
            seen.add(table)
            tables.append(table)
            reps.append(connective(*operands))

    for name, mask in zip(sig.vars.elements, _member_masks(sig.size)):
        add(mask, Var, name)
    add(full, Top)
    add(0, Bottom)
    for level in range(2, depth + 1):
        level_reps, level_tables = list(reps), list(tables)
        if (candidates := len(level_reps) * (1 + 3 * len(level_reps))) > SENTENCE_LEVEL_MAX:
            raise SizeLimitError(
                f"sentence level {level} over {sig.size} variables would build {candidates} "
                f"candidates from {len(level_reps)} representatives, above the fixed cap of "
                f"SENTENCE_LEVEL_MAX = {SENTENCE_LEVEL_MAX}")
        for s, t in zip(level_reps, level_tables):
            add(~t & full, Not, s)
        for op in (And, Or, Implies):
            for lhs, tl in zip(level_reps, level_tables):
                if op is And:
                    row = [tl & tr for tr in level_tables]
                elif op is Or:
                    row = [tl | tr for tr in level_tables]
                else:
                    row = [(~tl | tr) & full for tr in level_tables]
                for j, t in enumerate(row):
                    if t not in seen:  # most candidates repeat a known table
                        add(t, op, lhs, level_reps[j])
        if len(reps) == len(level_reps):  # a level that adds nothing repeats itself
            break
    return tuple(reps), tuple(tables)


class PropositionalInstitution:
    """The ``reduct`` fault seam.

    ``reduct_function`` tabulates ``reduct`` once per signature morphism,
    and the satisfaction check and the style report read only that table,
    so a subclass that overrides ``reduct`` injects its fault everywhere.
    """

    def reduct(self, sigma: SignatureMorphism, m: Model) -> Model:
        """Pull a target model back along the variable map."""
        if m.signature != sigma.target:
            raise CarrierMismatchError("model is not over the morphism target")
        pulled = preimage_bits(sigma.map, m.valuation.bits)
        return Model(sigma.source, Subset(sigma.source.vars, pulled))

    def reduct_function(self, sigma: SignatureMorphism) -> FinFunction:
        """The reduct as a map from the target's models to the source's, by model number."""
        return FinFunction(model_carrier(sigma.target), model_carrier(sigma.source), tuple(
            self.reduct(sigma, m).valuation.bits for m in all_models(sigma.target)))


@dataclass(frozen=True)
class SatisfactionConfig:
    depth: int = 3
    max_sentences: int | None = None
    seed: int = 0


@dataclass
class SatisfactionReport:
    models_checked: int = 0
    sentences_checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_satisfaction_condition(
    sigma: SignatureMorphism,
    config: SatisfactionConfig = SatisfactionConfig(),
    institution: PropositionalInstitution | None = None,
) -> SatisfactionReport:
    """reduct(m) satisfies s iff m satisfies translate(s), for all target
    models and source sentences up to the configured depth.

    Per sentence, the preimage of its truth table (as the enumeration
    computed it) along the reduct map is compared with the truth table of its
    translation; failures are listed model by model, sentence by sentence
    within a model.
    """
    inst = institution or PropositionalInstitution()
    sentences, tables = _sentences_and_tables(sigma.source, config.depth)
    if config.max_sentences is not None and len(sentences) > config.max_sentences:
        import random

        # sample draws positions from the length alone, so sampling positions
        # picks the same sentences as sampling the sentences themselves
        picks = random.Random(config.seed).sample(range(len(sentences)), config.max_sentences)
        sentences = [sentences[k] for k in picks]
        tables = [tables[k] for k in picks]
    return _satisfaction(sigma, sentences, tables, inst)[0]


def _satisfaction(sigma: SignatureMorphism, sentences, source_tables, inst):
    """The report, the reduct table and the translated sentences' truth tables."""
    r = inst.reduct_function(sigma)
    sides = [(s, lhs, truth_table(sigma.target, translate_sentence(sigma, s)))
             for s, lhs in zip(sentences, preimage_rows(r, source_tables))]
    report = SatisfactionReport(models_checked=r.source.size, sentences_checked=len(sides))
    wrong = 0
    for _, lhs, rhs in sides:
        wrong |= lhs ^ rhs
    for m in Subset(r.source, wrong).indices():
        report.failures += [
            f"model {r.source.elements[m]} sentence {render_sentence(s)}: "
            f"reduct-side {bool(lhs >> m & 1)}, translate-side {bool(rhs >> m & 1)}"
            for s, lhs, rhs in sides if (lhs ^ rhs) >> m & 1]
    return report, r, [rhs for _, _, rhs in sides]


@functools.lru_cache(maxsize=32)
def classification_of_signature(sig: Signature, depth: int) -> Classification:
    """Models as instances, depth-bounded deduplicated sentences as types.

    The sentences' truth tables, as the enumeration computed them, are the
    columns of the incidence.  The result is cached per signature and depth
    and shared, with the concepts enumerated on it, by every later call; a
    ``SizeLimitError`` is not cached.
    """
    if sig.size > 5:
        raise SizeLimitError(
            f"signature too large to materialize the model set: {sig.size} variables have "
            f"2^{sig.size} = {1 << sig.size} models, above the fixed cap of 5 variables")
    sentences, tables = _sentences_and_tables(sig, depth)
    instances = model_carrier(sig)
    types = FinSet(tuple(render_sentence(s) for s in sentences))
    columns = _trusted(Relation, source=types, target=instances, rows=tables)
    return Classification(instances, types, transpose(columns))


# ------------------------------------------------------------------ theories


@dataclass(frozen=True)
class TheoryObject:
    """A closed theory, represented extensionally by its class of models."""

    signature: Signature
    model_class: Subset

    def __post_init__(self):
        if self.model_class.carrier != model_carrier(self.signature):
            raise CarrierMismatchError("model class is not over the signature's model carrier")

    @classmethod
    def of_mask(cls, sig: Signature, mask: int) -> "TheoryObject":
        return cls(sig, Subset(model_carrier(sig), mask))

    @classmethod
    def of_sentence(cls, sig: Signature, s: Sentence) -> "TheoryObject":
        return cls.of_mask(sig, truth_table(sig, s))

    @property
    def mask(self) -> int:
        return self.model_class.bits


@dataclass(frozen=True)
class TheoryFiber:
    """All theories of one signature, ordered with weaker theories below."""

    signature: Signature
    poset: Poset
    theories: tuple[TheoryObject, ...]

    def le(self, t1: TheoryObject, t2: TheoryObject) -> bool:
        """t1 <= t2 iff t1's model class contains t2's (t2 entails t1)."""
        return t2.mask & ~t1.mask == 0


# Largest signature whose theory fiber is built: n variables give 2^(2^n)
# theories and an order of 2^(2^n) rows of 2^(2^n) bits, 8 KiB at 3
# variables and 512 MiB at 4.
THEORY_FIBER_MAX_VARS = 3


@functools.lru_cache(maxsize=32)
def theory_fiber(sig: Signature) -> TheoryFiber:
    """The complete lattice of the 2^(2^n) model classes of the signature.

    Row T holds the model classes inside T (reverse inclusion, weaker
    theories below), the rows of ``power_order(..., reverse=True)``; a poset
    by construction, so it is not re-validated.
    """
    n = sig.size
    if n > THEORY_FIBER_MAX_VARS:
        raise SizeLimitError(
            f"theory fiber of {n} variables has 2^(2^{n}) theories; its order would take "
            f"2^(2^{n}) rows of 2^(2^{n}) bits, {_bits_in_bytes(1 << n + 1)}; "
            f"the cap is {THEORY_FIBER_MAX_VARS} variables")
    n_theories = 1 << (1 << n)
    labels = FinSet(tuple(f"T{mask}" for mask in range(n_theories)))
    poset = _trusted(Poset, carrier=labels, leq=Relation(labels, labels, _subset_rows(n_theories)))
    theories = tuple(TheoryObject.of_mask(sig, mask) for mask in range(n_theories))
    return TheoryFiber(sig, poset, theories)


def transport_theory(sigma: SignatureMorphism, t: TheoryObject) -> TheoryObject:
    """Target models whose reduct lies in the theory: its inverse image along the reduct."""
    if t.signature != sigma.source:
        raise CarrierMismatchError("theory is not over the morphism source")
    r = PropositionalInstitution().reduct_function(sigma)
    return TheoryObject.of_mask(sigma.target, preimage_bits(r, t.mask))


def inverse_transport(sigma: SignatureMorphism, t: TheoryObject) -> TheoryObject:
    """Source theory of all reducts of the theory's models: its direct image along the reduct."""
    if t.signature != sigma.target:
        raise CarrierMismatchError("theory is not over the morphism target")
    r = PropositionalInstitution().reduct_function(sigma)
    return TheoryObject.of_mask(sigma.source, image_bits(r, t.mask))


def fiber_transport_adjunction(sigma: SignatureMorphism) -> Adjunction:
    """transport -| inverse_transport between the two theory fibers.

    A theory's index in its fiber is its model-class mask, so the two
    tables are the reduct's ``image_tables``, adjoint along any function.
    """
    f1 = theory_fiber(sigma.source)
    f2 = theory_fiber(sigma.target)
    images, preimages = image_tables(PropositionalInstitution().reduct_function(sigma))
    return Adjunction(f1.poset, f2.poset, _monotone(f1.poset, f2.poset, preimages),
                      _monotone(f2.poset, f1.poset, images))


# --------------------------------------------------- flattened theory category


@dataclass
class CategoryReport:
    objects: int = 0
    morphisms: int = 0
    composable_pairs: int = 0
    composable_triples: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class FlattenedTheoryCategory:
    """The category of (signature, theory) pairs glued by transports.

    A morphism (sig1, t1) -> (sig2, t2) is a listed signature morphism whose
    transport of t1 is below t2 in the fiber over sig2 (t2 entails the
    transported theory).
    """

    signatures: tuple[Signature, ...]
    fibers: tuple[TheoryFiber, ...]
    objects: tuple[tuple[int, int], ...]
    sig_morphisms: tuple[tuple[int, int, SignatureMorphism], ...]
    morphisms: tuple[tuple[int, int, int], ...]
    report: CategoryReport


def flatten(signatures, morphisms) -> FlattenedTheoryCategory:
    """Grothendieck-style flattening over the theory transport functor.

    ``morphisms`` is a list of SignatureMorphism whose endpoints must appear
    in ``signatures``; identities are added automatically, and the category
    laws are checked on all composable pairs and triples.
    """
    signatures = tuple(signatures)
    sig_index = {sig: i for i, sig in enumerate(signatures)}
    sig_morphs: list[tuple[int, int, SignatureMorphism]] = []
    for i, sig in enumerate(signatures):
        sig_morphs.append((i, i, SignatureMorphism.identity(sig)))
    for sm in morphisms:
        if sm.source not in sig_index or sm.target not in sig_index:
            raise CarrierMismatchError("signature morphism endpoint not among the signatures")
        entry = (sig_index[sm.source], sig_index[sm.target], sm)
        if entry not in sig_morphs:
            sig_morphs.append(entry)

    fibers = tuple(theory_fiber(sig) for sig in signatures)
    objects: list[tuple[int, int]] = []
    obj_index: dict[tuple[int, int], int] = {}
    for i, fib in enumerate(fibers):
        for mask in range(len(fib.theories)):
            obj_index[(i, mask)] = len(objects)
            objects.append((i, mask))
    if len(objects) > 5000:
        raise SizeLimitError(f"flattened category would be too large: {len(objects)} "
                             "objects, above the fixed cap of 5000")

    inst = PropositionalInstitution()
    transport_tables = [preimage_rows(inst.reduct_function(sm), range(len(fibers[si].theories)))
                        for si, _, sm in sig_morphs]

    morphs: list[tuple[int, int, int]] = []
    for mi, (si, ti, sm) in enumerate(sig_morphs):
        table = transport_tables[mi]
        for mask in range(len(fibers[si].theories)):
            moved = table[mask]
            for target_mask in range(len(fibers[ti].theories)):
                if target_mask & ~moved == 0:  # moved <= target in the fiber
                    morphs.append((obj_index[(si, mask)], obj_index[(ti, target_mask)], mi))

    report = CategoryReport(objects=len(objects), morphisms=len(morphs))
    _check_category_laws(objects, sig_morphs, morphs, report)
    return FlattenedTheoryCategory(signatures, fibers, tuple(objects),
                                   tuple(sig_morphs), tuple(morphs), report)


def _check_category_laws(objects, sig_morphs, morphs, report: CategoryReport):
    morph_set = set(morphs)
    sig_key = {}
    for idx, (si, ti, sm) in enumerate(sig_morphs):
        sig_key[(si, ti, sm.map.table)] = idx
    # Each composable pair of signature morphisms, composed once: the index
    # of the composite when it is listed, else None.
    composite = {
        (i1, i2): sig_key.get((s1, t2, sm1.then(sm2).map.table))
        for i1, (s1, t1, sm1) in enumerate(sig_morphs)
        for i2, (s2, t2, sm2) in enumerate(sig_morphs) if t1 == s2
    }
    by_source: dict[int, list[tuple[int, int, int]]] = {}
    for m in morphs:
        by_source.setdefault(m[0], []).append(m)

    identity_idx = {}
    for idx, (si, ti, sm) in enumerate(sig_morphs):
        if si == ti and sm.map.table == tuple(range(sm.map.source.size)):
            identity_idx[si] = idx
    for o, (si, mask) in enumerate(objects):
        if (o, o, identity_idx[si]) not in morph_set:
            report.failures.append(f"missing identity on object {o}")
            return

    for m1 in morphs:
        for m2 in by_source.get(m1[1], ()):
            report.composable_pairs += 1
            comp = composite.get((m1[2], m2[2]))
            if comp is None:
                report.failures.append(
                    f"morphism list not closed under composition: {m1} then {m2}")
                return
            if (m1[0], m2[1], comp) not in morph_set:
                report.failures.append(f"composite of {m1} and {m2} is missing")
                return
    # Associativity is inherited from function composition; verify on triples,
    # exhaustively for desk-scale diagrams and on a seeded sample above that.
    import random

    rng = random.Random(0)
    pool = morphs if len(morphs) <= 200 else rng.sample(morphs, 200)
    for m1 in pool:
        for m2 in by_source.get(m1[1], ()):
            for m3 in by_source.get(m2[1], ()):
                report.composable_triples += 1
                left_first = composite.get((composite.get((m1[2], m2[2])), m3[2]))
                right_first = composite.get((m1[2], composite.get((m2[2], m3[2]))))
                if left_first != right_first:
                    report.failures.append("associativity fails")
                    return


# -------------------------------------------------------------------- merging


@dataclass(frozen=True)
class MergeSpan:
    base: Signature
    left_map: SignatureMorphism
    right_map: SignatureMorphism
    left_theory: TheoryObject
    right_theory: TheoryObject

    def __post_init__(self):
        if self.left_map.source != self.base or self.right_map.source != self.base:
            raise CarrierMismatchError("span legs must start at the base signature")
        if self.left_theory.signature != self.left_map.target:
            raise CarrierMismatchError("left theory is not over the left signature")
        if self.right_theory.signature != self.right_map.target:
            raise CarrierMismatchError("right theory is not over the right signature")


@dataclass(frozen=True)
class MergeResult:
    signature: Signature
    left_injection: SignatureMorphism
    right_injection: SignatureMorphism
    theory: TheoryObject
    inconsistent: bool


def pushout_signature(span_base: Signature, left: SignatureMorphism,
                      right: SignatureMorphism) -> tuple[Signature, SignatureMorphism, SignatureMorphism]:
    """Disjoint union of the two signatures with base images identified.

    Identified classes are labelled C.<base var>, the rest keep their side
    as L.<name> or R.<name>; class order follows first occurrence in the
    concatenation of left then right variables.
    """
    n_l, n_r = left.target.size, right.target.size
    parent = list(range(n_l + n_r))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for v in range(span_base.size):
        union(left.map.table[v], n_l + right.map.table[v])

    base_tag: dict[int, str] = {}
    for v in range(span_base.size):
        root = find(left.map.table[v])
        if root not in base_tag:
            base_tag[root] = span_base.vars.elements[v]

    roots_in_order: list[int] = []
    for x in range(n_l + n_r):
        r = find(x)
        if r not in roots_in_order:
            roots_in_order.append(r)
    labels = []
    for r in roots_in_order:
        if r in base_tag:
            labels.append(f"C.{base_tag[r]}")
        elif r < n_l:
            labels.append(f"L.{left.target.vars.elements[r]}")
        else:
            labels.append(f"R.{right.target.vars.elements[r - n_l]}")
    pushout = Signature(FinSet(tuple(labels)))
    pos = {r: i for i, r in enumerate(roots_in_order)}
    inj_left = SignatureMorphism(left.target, pushout, FinFunction(
        left.target.vars, pushout.vars, tuple(pos[find(x)] for x in range(n_l))))
    inj_right = SignatureMorphism(right.target, pushout, FinFunction(
        right.target.vars, pushout.vars, tuple(pos[find(n_l + x)] for x in range(n_r))))
    return pushout, inj_left, inj_right


def merge_theories(span: MergeSpan) -> MergeResult:
    """Transport both theories to the pushout signature and intersect.

    An empty intersection is returned as the inconsistent bottom theory and
    flagged, not raised.
    """
    pushout, inj_left, inj_right = pushout_signature(span.base, span.left_map, span.right_map)
    check_carrier_bound(pushout.size, "merge: the pushout signature")
    moved_left = transport_theory(inj_left, span.left_theory)
    moved_right = transport_theory(inj_right, span.right_theory)
    merged_mask = moved_left.mask & moved_right.mask
    merged = TheoryObject.of_mask(pushout, merged_mask)
    return MergeResult(pushout, inj_left, inj_right, merged, merged_mask == 0)


# Candidate cocones verify_pushout_universal may enumerate: two disjoint
# 5-variable theories into the 1-3 variable targets need 60074.
PUSHOUT_COCONE_BOUND = 100_000


def _mediator_count(result: MergeResult, m1: tuple[int, ...], m2: tuple[int, ...],
                    tgt_size: int) -> int:
    """Maps h from the pushout with inj_left;h = m1 and inj_right;h = m2.

    The injections fix h on their images; a conflict there leaves none, and
    every pushout variable outside both images is free.
    """
    h: list[int | None] = [None] * result.signature.size
    for inj, m in ((result.left_injection, m1), (result.right_injection, m2)):
        for x, p in enumerate(inj.map.table):
            if h[p] is None:
                h[p] = m[x]
            elif h[p] != m[x]:
                return 0
    return tgt_size ** h.count(None)


def verify_pushout_universal(span: MergeSpan, result: MergeResult, targets) -> list[str]:
    """Search every cocone into each target signature for a unique mediator.

    Raises ``SizeLimitError`` before the search when the candidate map pairs,
    the sum over targets t of |t|^(|left| + |right|), exceed
    ``PUSHOUT_COCONE_BOUND``.
    """
    left_vars = span.left_map.target.size
    right_vars = span.right_map.target.size
    estimate = sum(tgt.size ** (left_vars + right_vars) for tgt in targets)
    if estimate > PUSHOUT_COCONE_BOUND:
        raise SizeLimitError(
            f"pushout check would search {estimate} candidate cocones "
            f"({left_vars} + {right_vars} span variables), above the fixed bound "
            f"{PUSHOUT_COCONE_BOUND}")
    failures = []
    for tgt in targets:
        for m1 in itertools.product(range(tgt.size), repeat=left_vars):
            via_left = tuple(m1[v] for v in span.left_map.map.table)
            for m2 in itertools.product(range(tgt.size), repeat=right_vars):
                if tuple(m2[v] for v in span.right_map.map.table) != via_left:
                    continue
                count = _mediator_count(result, m1, m2, tgt.size)
                if count != 1:
                    failures.append(f"cocone into {tgt.vars.elements} has {count} mediators")
    return failures


# ------------------------------------------------------------- style checks


@dataclass
class StyleReport:
    class_rel: bool
    class_adj: bool
    conc_adj: bool
    conc_rel: bool
    witnesses: dict

    @property
    def all_pass(self) -> bool:
        return self.class_rel and self.class_adj and self.conc_adj and self.conc_rel

    @property
    def agree(self) -> bool:
        return len({self.class_rel, self.class_adj, self.conc_adj, self.conc_rel}) == 1


# Largest style check run, in intent bits: a classification has at most
# 2^min(|models|, |types|) concepts, each with an intent of |types| bits.
# Enumeration intersects the model rows with those intents, the concept
# transport ORs one fiber per intent bit and keys a dict by intents, and
# they are what stays in memory.  On a 2-vCPU VM (Python 3.11) the CLI demo
# takes 0.06 s at 4 variables and depth 2 (2.2M bits) and 1.4-2.0 s at depth
# 3 (32M bits, 63 744 concepts: 0.5-0.8 s enumeration, 0.7-1.2 s transport,
# 96 MB peak).  The cap is twice that; depth 4 (953M bits) would hold
# ~120 MB of intents alone.
STYLE_MAX_WORK = 1 << 26


def style_interconvert(sigma: SignatureMorphism, depth: int,
                       institution: PropositionalInstitution | None = None) -> StyleReport:
    """Build all four institution presentations from the same data and
    verify their defining conditions: plain satisfaction, the derivation
    square, the concept connection of the infomorphism, and the
    theory-level satisfaction with closure-then-image translation.  A
    returned ``concept_transport`` decides conc-adj, and conc-rel, its right
    recipe, with it.  Raises ``SizeLimitError`` before any concept is
    enumerated when either classification's work estimate passes
    ``STYLE_MAX_WORK``."""
    from .clsn import Infomorphism, _square_commutes
    from .clg import _right_recipes, concept_transport, concepts_of

    inst = institution or PropositionalInstitution()
    witnesses: dict = {}

    a = classification_of_signature(sigma.source, depth)
    b = classification_of_signature(sigma.target, depth)
    for c in (a, b):
        n = min(c.instances.size, c.types.size)
        if (work := (1 << n) * c.types.size) > STYLE_MAX_WORK:
            raise SizeLimitError(
                f"style check at depth {depth} would take up to 2^{n} concepts x "
                f"{c.types.size} sentence types = {work} intent bits, above the fixed cap of "
                f"STYLE_MAX_WORK = {STYLE_MAX_WORK}")
    target_tables = {t: j for j, t in enumerate(b.incidence.columns)}

    # Class-Rel: the satisfaction condition, sentence by sentence.
    rel_report, r, translated = _satisfaction(sigma, enumerate_sentences(sigma.source, depth),
                                              a.incidence.columns, inst)
    class_rel = rel_report.ok
    if not class_rel:
        witnesses["class_rel"] = rel_report.failures[0]

    # The infomorphism data shared by the remaining styles.
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
        class_adj = _square_commutes(info)
        if not class_adj:
            witnesses.setdefault("class_adj", "derivation square fails")

        la_concepts = concepts_of(a)
        try:
            concept_transport(info, la_concepts, concepts_of(b))
            conc_adj = conc_rel = True
        except CarrierMismatchError as exc:
            witnesses["conc_adj"] = str(exc)
            # Conc-Rel: theory-level satisfaction with closure-then-image translation.
            conc_rel = True
            for k, (reduced, translated) in enumerate(_right_recipes(info, la_concepts)):
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


# ----------------------------------------------------------------- file I/O


def theory_to_json(t: TheoryObject) -> dict:
    models = all_models(t.signature)
    return {
        "signature": list(t.signature.vars.elements),
        "models": [list(models[i].valuation.labels()) for i in t.model_class.indices()],
    }


def signature_from_json(data, what: str = "signature") -> Signature:
    """A signature from a JSON list of distinct variable names.

    A name is non-empty and holds no whitespace, parenthesis or comma, so
    sentences can mention it and model labels such as ``{p,q}`` stay distinct.
    """
    if not isinstance(data, list) or not all(
            isinstance(v, str) and re.fullmatch(r"[^\s(),]+", v) for v in data):
        raise ParseError(f"{what} must be a list of variable names without spaces, "
                         "parentheses or commas")
    if len(set(data)) != len(data):
        raise ParseError(f"{what} repeats a variable name")
    return Signature(FinSet(tuple(data)))


def theory_from_json(data, what: str = "theory") -> TheoryObject:
    """Theory files carry either an explicit model list or a single sentence
    in the prefix s-expression syntax; the sentence axiomatizes the theory.

    Malformed theories raise ParseError naming ``what``: a model is a list of
    signature variables, and a sentence mentions only signature variables.
    """
    if not isinstance(data, dict) or "signature" not in data or \
            ("models" not in data and "sentence" not in data):
        raise ParseError(f"{what} needs 'signature' plus 'models' or 'sentence'")
    sig = signature_from_json(data["signature"], f"{what} signature")
    check_carrier_bound(sig.size, f"{what} signature")
    if "sentence" in data:
        if not isinstance(data["sentence"], str):
            raise ParseError(f"{what} sentence must be a string")
        sentence = parse_sentence(data["sentence"])
        try:
            return TheoryObject.of_sentence(sig, sentence)
        except UnknownElementError as exc:
            raise ParseError(f"{what} sentence uses a variable outside the signature: {exc}") from exc
    models = data["models"]
    if not isinstance(models, list) or not all(isinstance(m, list) for m in models):
        raise ParseError(f"{what} models must be a list of lists of true variables")
    mask = 0
    for true_vars in models:
        bits = 0
        for v in true_vars:
            if v not in sig.vars:
                raise ParseError(f"{what} model variable {v!r} is not in the signature "
                                 f"{list(sig.vars)}")
            bits |= 1 << sig.vars.index(v)
        mask |= 1 << bits
    return TheoryObject.of_mask(sig, mask)
