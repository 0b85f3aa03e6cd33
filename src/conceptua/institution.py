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
import re
from itertools import accumulate

from .errors import CarrierMismatchError, ParseError, SizeLimitError, UnknownElementError
from .finrel import FinFunction, FinSet, Relation, Subset, _Record, _Value, _bits, _trusted, \
    image_bits, image_tables, preimage_bits, preimage_rows, transpose
from .galois import Adjunction
from .order import Poset, _bits_in_bytes, _member_masks, _monotone, _subset_labels, _subset_rows, \
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
    "Model",
    "satisfies",
    "truth_table",
    "enumerate_sentences",
    "model_carrier",
    "all_models",
    "PropositionalInstitution",
    "check_satisfaction_condition",
    "classification_of_signature",
    "TheoryObject",
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


class Signature(_Value):
    __match_args__ = ("vars",)
    __slots__ = __match_args__

    def __init__(self, vars: FinSet):
        self._fill(self, vars)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vars == other.vars

    def __hash__(self):
        return hash((self.vars,))

    @classmethod
    def of(cls, *names: str) -> "Signature":
        return cls(FinSet(tuple(names)))

    @property
    def size(self) -> int:
        return self.vars.size


class SignatureMorphism(_Value):
    __match_args__ = ("source", "target", "map")
    __slots__ = __match_args__

    def __init__(self, source: Signature, target: Signature, map: FinFunction):
        self._fill(self, source, target, map)
        self.__post_init__()

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


class Var(_Value):
    __match_args__ = ("name",)
    __slots__ = __match_args__

    def __init__(self, name: str):
        self._fill(self, name)


class _Connective(_Value):
    """``==`` and ``hash`` compare the prefix order with connectives mapped to
    their classes; ``repr`` reads as the dataclass one would."""

    __slots__ = ()

    def _prefix(self) -> list:
        return [type(t) if isinstance(t, _Connective) else t for t in _preorder(self)]

    def __eq__(self, other):
        return self._prefix() == other._prefix() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self._prefix()))

    def __repr__(self):
        return _write(self, _REPR_OPENERS, ", rhs=", repr)


class Not(_Connective):
    __match_args__ = ("body",)
    __slots__ = __match_args__

    def __init__(self, body: "Sentence"):
        self._fill(self, body)


class _Binary(_Connective):
    __match_args__ = ("lhs", "rhs")
    __slots__ = __match_args__

    def __init__(self, lhs: "Sentence", rhs: "Sentence"):
        self._fill(self, lhs, rhs)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Top(_Value):
    __slots__ = ()


class Bottom(_Value):
    __slots__ = ()


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


class Model(_Value):
    """A valuation: the subset of variables that are true."""

    __match_args__ = ("signature", "valuation")
    __slots__ = __match_args__

    def __init__(self, signature: Signature, valuation: Subset):
        self._fill(self, signature, valuation)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.signature, self.valuation) == (other.signature, other.valuation)

    def __hash__(self):
        return hash((self.signature, self.valuation))

    def __post_init__(self):
        if self.valuation.carrier != self.signature.vars:
            raise CarrierMismatchError("valuation carrier differs from the signature")

    def label(self) -> str:
        return str(self.valuation)


def all_models(sig: Signature) -> list[Model]:
    """Every model of the signature, by model number (its valuation's bits)."""
    return [Model(sig, Subset(sig.vars, bits)) for bits in range(1 << sig.size)]


@functools.lru_cache(maxsize=32)
def model_carrier(sig: Signature) -> FinSet:
    """Model m's label, by model number: the ``label()`` of its valuation,
    written by the subset-label recurrence of ``power_order``, with no
    ``Model`` built.  Cached per signature, like ``theory_fiber``; a
    16-variable carrier holds 65 536 labels."""
    return FinSet(_subset_labels(sig.vars))


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

    ``reduct_function`` tabulates the reduct once per signature morphism,
    and the satisfaction check and the style report read only that table.
    The base class computes the table with one bit kernel and builds no
    ``Model``; a subclass that overrides ``reduct`` has its ``reduct``
    called once per target model instead, so it injects its fault everywhere.
    """

    def reduct(self, sigma: SignatureMorphism, m: Model) -> Model:
        """Pull a target model back along the variable map."""
        if m.signature != sigma.target:
            raise CarrierMismatchError("model is not over the morphism target")
        pulled = preimage_bits(sigma.map, m.valuation.bits)
        return Model(sigma.source, Subset(sigma.source.vars, pulled))

    def reduct_function(self, sigma: SignatureMorphism) -> FinFunction:
        """The reduct as a map from the target's models to the source's, by model number.

        Model y's reduct is the inverse image of its valuation y along the
        variable map, so the table is the preimage table of ``image_tables``:
        one OR per target model.  The second path, one ``reduct`` call and
        one ``Model`` per target model, exists only to honour a subclass
        that overrides ``reduct``.
        """
        models, reducts = model_carrier(sigma.target), model_carrier(sigma.source)
        if type(self).reduct is PropositionalInstitution.reduct:
            return _trusted(FinFunction, models, reducts, tuple(image_tables(sigma.map)[1]))
        return FinFunction(models, reducts, tuple(
            self.reduct(sigma, m).valuation.bits for m in all_models(sigma.target)))


class SatisfactionReport(_Record):
    __match_args__ = ("models_checked", "sentences_checked", "failures")
    __slots__ = __match_args__

    def __init__(self, models_checked: int = 0, sentences_checked: int = 0,
                 failures: list[str] | None = None):
        self._fill(self, models_checked, sentences_checked, [] if failures is None else failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_satisfaction_condition(
    sigma: SignatureMorphism,
    depth: int = 3,
    institution: PropositionalInstitution | None = None,
) -> SatisfactionReport:
    """reduct(m) satisfies s iff m satisfies translate(s), for all target
    models and source sentences up to ``depth``.

    Per sentence, the preimage of its truth table (as the enumeration
    computed it) along the reduct map is compared with the truth table of its
    translation; failures are listed model by model, sentence by sentence
    within a model.
    """
    inst = institution or PropositionalInstitution()
    sentences, tables = _sentences_and_tables(sigma.source, depth)
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
    columns = _trusted(Relation, types, instances, tables)
    return Classification(instances, types, transpose(columns))


# ------------------------------------------------------------------ theories


class TheoryObject(_Value):
    """A closed theory, represented extensionally by its class of models."""

    __match_args__ = ("signature", "model_class")
    __slots__ = __match_args__

    def __init__(self, signature: Signature, model_class: Subset):
        self._fill(self, signature, model_class)
        self.__post_init__()

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


# Largest signature whose theory fiber is built: n variables give 2^(2^n)
# theories and an order of 2^(2^n) rows of 2^(2^n) bits, 8 KiB at 3
# variables and 512 MiB at 4.
THEORY_FIBER_MAX_VARS = 3


@functools.lru_cache(maxsize=32)
def theory_fiber(sig: Signature) -> Poset:
    """The complete lattice of the signature's theories, weaker theories below.

    Theory T is element T, the mask of its model class, labelled ``T<mask>``.
    Row T holds the model classes inside T (reverse inclusion: T <= T' iff T'
    entails T), the rows of ``power_order(..., reverse=True)``; a poset by
    construction, so it is not re-validated.
    """
    n = sig.size
    if n > THEORY_FIBER_MAX_VARS:
        raise SizeLimitError(
            f"theory fiber of {n} variables has 2^(2^{n}) theories; its order would take "
            f"2^(2^{n}) rows of 2^(2^{n}) bits, {_bits_in_bytes(1 << n + 1)}; "
            f"the cap is {THEORY_FIBER_MAX_VARS} variables")
    n_theories = 1 << (1 << n)
    labels = FinSet(tuple(f"T{mask}" for mask in range(n_theories)))
    return _trusted(Poset, labels, Relation(labels, labels, _subset_rows(n_theories)))


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
    return Adjunction(f1, f2, _monotone(f1, f2, preimages), _monotone(f2, f1, images))


# --------------------------------------------------- flattened theory category


class FlattenedTheoryCategory(_Value):
    """The category of (signature, theory) pairs glued by transports.

    A morphism (sig1, t1) -> (sig2, t2) is a listed signature morphism whose
    transport of t1 is below t2 in the fiber over sig2 (t2 entails the
    transported theory).
    """

    __match_args__ = ("objects", "sig_morphisms", "morphisms")
    __slots__ = __match_args__

    def __init__(self, objects: tuple[tuple[int, int], ...],
                 sig_morphisms: tuple[tuple[int, int, SignatureMorphism], ...],
                 morphisms: tuple[tuple[int, int, int], ...]):
        self._fill(self, objects, sig_morphisms, morphisms)


def flatten(signatures, morphisms) -> FlattenedTheoryCategory:
    """Grothendieck-style flattening over the theory transport functor.

    ``morphisms`` is a list of SignatureMorphism whose endpoints must appear
    in ``signatures``; identities are added automatically.  Object (i, T) is
    theory T of signature i's fiber, T its model-class mask; ``sig_morphisms``
    holds (source index, target index, morphism), and a morphism (a, b, k)
    goes from object a to object b along signature morphism k.  The category
    is returned unchecked: ``verify``'s institution suite checks its laws.
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

    sizes = tuple(theory_fiber(sig).size for sig in signatures)
    offsets = (0, *accumulate(sizes))  # object (i, mask) is offsets[i] + mask
    if offsets[-1] > 5000:
        raise SizeLimitError(f"flattened category would be too large: {offsets[-1]} "
                             "objects, above the fixed cap of 5000")
    objects = tuple((i, mask) for i, size in enumerate(sizes) for mask in range(size))

    inst = PropositionalInstitution()
    transport_tables = [image_tables(inst.reduct_function(sm))[1] for _, _, sm in sig_morphs]

    morphs: list[tuple[int, int, int]] = []
    for mi, (si, ti, sm) in enumerate(sig_morphs):
        table, source, target = transport_tables[mi], offsets[si], offsets[ti]
        for mask in range(sizes[si]):
            # moved <= target in the fiber: the targets are the submasks of
            # moved, visited in ascending order
            moved = table[mask]
            sub = 0
            while True:
                morphs.append((source + mask, target + sub, mi))
                if sub == moved:
                    break
                sub = (sub - moved) & moved

    return FlattenedTheoryCategory(objects, tuple(sig_morphs), tuple(morphs))


# -------------------------------------------------------------------- merging


class MergeSpan(_Value):
    __match_args__ = ("base", "left_map", "right_map", "left_theory", "right_theory")
    __slots__ = __match_args__

    def __init__(self, base: Signature, left_map: SignatureMorphism, right_map: SignatureMorphism,
                 left_theory: TheoryObject, right_theory: TheoryObject):
        self._fill(self, base, left_map, right_map, left_theory, right_theory)
        self.__post_init__()

    def __post_init__(self):
        if self.left_map.source != self.base or self.right_map.source != self.base:
            raise CarrierMismatchError("span legs must start at the base signature")
        if self.left_theory.signature != self.left_map.target:
            raise CarrierMismatchError("left theory is not over the left signature")
        if self.right_theory.signature != self.right_map.target:
            raise CarrierMismatchError("right theory is not over the right signature")


class MergeResult(_Value):
    __match_args__ = ("signature", "left_injection", "right_injection", "theory", "inconsistent")
    __slots__ = __match_args__

    def __init__(self, signature: Signature, left_injection: SignatureMorphism,
                 right_injection: SignatureMorphism, theory: TheoryObject, inconsistent: bool):
        self._fill(self, signature, left_injection, right_injection, theory, inconsistent)


def _class_roots(left: SignatureMorphism, right: SignatureMorphism) -> list[int]:
    """The least member of each variable's class on left + right (right ones
    offset by |left|), in the equivalence that identifies left(v) with
    right(v) for every base variable v; a union-find."""
    n_l = left.target.size
    parent = list(range(n_l + right.target.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(left.map.table, right.map.table):
        rx, ry = find(x), find(n_l + y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(len(parent))]


def pushout_signature(span_base: Signature, left: SignatureMorphism,
                      right: SignatureMorphism) -> tuple[Signature, SignatureMorphism, SignatureMorphism]:
    """Disjoint union of the two signatures with base images identified.

    One pushout variable per class of the equivalence the base generates on
    left + right.  Identified classes are labelled C.<first base var>, the
    rest keep their side as L.<name> or R.<name>; classes are ordered by
    their least member, left variables before right ones.
    """
    n_l = left.target.size
    roots = _class_roots(left, right)
    base_tag: dict[int, str] = {}
    for v, x in enumerate(left.map.table):
        base_tag.setdefault(roots[x], span_base.vars.elements[v])
    classes = [x for x, r in enumerate(roots) if x == r]
    labels = []
    for r in classes:
        if r in base_tag:
            labels.append(f"C.{base_tag[r]}")
        elif r < n_l:
            labels.append(f"L.{left.target.vars.elements[r]}")
        else:
            labels.append(f"R.{right.target.vars.elements[r - n_l]}")
    pushout = Signature(FinSet(tuple(labels)))
    pos = {r: i for i, r in enumerate(classes)}
    inj_left = SignatureMorphism(left.target, pushout, FinFunction(
        left.target.vars, pushout.vars, tuple(pos[r] for r in roots[:n_l])))
    inj_right = SignatureMorphism(right.target, pushout, FinFunction(
        right.target.vars, pushout.vars, tuple(pos[r] for r in roots[n_l:])))
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


def verify_pushout_universal(span: MergeSpan, result: MergeResult) -> list[str]:
    """Check that the result's injections are the pushout of the span, as a
    list of at most one witness.

    Signatures are finite sets, so [inj_left, inj_right] is the pushout
    exactly when it is onto and its kernel on left + right is the
    equivalence the base generates (Mac Lane, CWM ch. III); then every
    cocone into every target has exactly one mediator.  The check reads
    only the tables of the legs and of the injections, not how
    ``pushout_signature`` built them.
    """
    points = [f"L.{v}" for v in span.left_map.target.vars.elements] + \
        [f"R.{v}" for v in span.right_map.target.vars.elements]
    joint = result.left_injection.map.table + result.right_injection.map.table
    roots = _class_roots(span.left_map, span.right_map)
    first_hit: dict[int, int] = {}
    for x, p in enumerate(joint):
        y = first_hit.setdefault(p, x)
        if roots[y] != roots[x]:
            return [f"the injections identify {points[y]} and {points[x]}, which the base does not"]
        if joint[roots[x]] != p:
            return [f"the base identifies {points[roots[x]]} and {points[x]}, which the injections separate"]
    for p, name in enumerate(result.signature.vars.elements):
        if p not in first_hit:
            return [f"pushout variable {name} is in neither image"]
    return []


# ------------------------------------------------------------- style checks


class StyleReport(_Record):
    __match_args__ = ("class_rel", "class_adj", "conc_adj", "conc_rel", "witnesses")
    __slots__ = __match_args__

    def __init__(self, class_rel: bool, class_adj: bool, conc_adj: bool, conc_rel: bool,
                 witnesses: dict):
        self._fill(self, class_rel, class_adj, conc_adj, conc_rel, witnesses)

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
    returned ``clg.concept_transport``, which reads the concepts as extents
    and intents, decides conc-adj, and conc-rel, its right recipe, with it;
    no ``FormalConcept`` is built.  Raises ``SizeLimitError`` before any
    concept is enumerated when either classification's work estimate passes
    ``STYLE_MAX_WORK``."""
    from .clsn import Infomorphism, _square_commutes
    from .clg import _right_recipes, concept_transport

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

        try:
            concept_transport(info)
            conc_adj = conc_rel = True
        except CarrierMismatchError as exc:
            witnesses["conc_adj"] = str(exc)
            # Conc-Rel: theory-level satisfaction with closure-then-image translation.
            conc_rel = True
            for k, (reduced, translated) in enumerate(_right_recipes(info)):
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
    """The signature and, per model of the theory in model order, its true
    variables, read off the bits of the model number.

    The models are the set bits of the mask, found in its binary text: a
    mask of 2^16 models takes one ``bin`` instead of one big-int step per
    model."""
    names = t.signature.vars.elements
    return {
        "signature": list(names),
        "models": [[names[v] for v in _bits(m)]
                   for m, bit in enumerate(bin(t.mask)[:1:-1]) if bit == "1"],
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

    Malformed theories raise ParseError naming ``what``: a theory holds one of
    the two keys, a model is a list of signature variables, and a sentence
    mentions only signature variables.
    """
    if not isinstance(data, dict) or "signature" not in data or \
            ("models" not in data and "sentence" not in data):
        raise ParseError(f"{what} needs 'signature' plus 'models' or 'sentence'")
    if "models" in data and "sentence" in data:
        raise ParseError(f"{what} has both 'models' and 'sentence'; give one of them")
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
