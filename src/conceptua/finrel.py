"""Finite sets, subsets, functions, and binary relations.

Everything is bitset-encoded: a subset of a carrier with elements indexed
0..n-1 is an int whose bit i records membership of element i, and a relation
is one bitmask row per source element.  All equality is bit-exact.

A relation's columns (the rows of its transpose) are computed once, on first
read of ``Relation.columns``, and kept.  Both derivations are ``meet_bits``:
the forward one over the rows, the reverse one over the columns.
``derive_bits`` computes either one from whichever side is cheaper.

Fields are written one way: by the class's filler ``cls._fill(obj,
*fields)``, made once per class from its slot descriptors, which writes the
fields in ``__match_args__`` order straight to their slots.  A public
constructor fills its fields with it and then validates.  A value that is
valid by construction (the result of a kernel here, or an order or map
derived elsewhere in the library) is built by ``_trusted(cls, *fields)``,
the same filler on a fresh object, with no validation.  Carrier checks test
identity before comparing labels, so carriers shared by object cost one
pointer compare.

Every value class of the library keeps its fields, and any attribute
derived from them (``FinSet.size`` and ``full_mask``), in ``__slots__``, so
a value is one allocation with no instance dict.  Only a class with a
cached attribute (``Relation.columns`` here, ``Classification._concept_bits``,
``ConceptLattice._adjunctions`` and both ``.concepts``, each a ``_cached``)
also lists ``__dict__``, which holds nothing but the cached values.
"""

from collections.abc import Callable, Iterator
from dataclasses import FrozenInstanceError
from functools import cached_property
from operator import and_, or_
from typing import NamedTuple

from .errors import CarrierMismatchError, UnknownElementError

__all__ = [
    "FinSet",
    "finset",
    "Subset",
    "FinFunction",
    "Relation",
    "compose",
    "transpose",
    "residuate_left",
    "residuate_right",
    "images",
    "ImageTriple",
    "derive_forward",
    "derive_reverse",
    "meet_bits",
    "derive_bits",
    "meet_table",
    "image_bits",
    "preimage_bits",
    "preimage_rows",
    "image_tables",
    "image_factorize",
]


_new = object.__new__


def _trusted(cls, *values):
    """A value of ``cls`` with ``values`` as its fields, in ``__match_args__``
    order, written by the class's filler (``cls._fill``) without running
    ``__post_init__``.

    Every value the library derives is valid by construction and built here;
    only the public constructors validate.  Sequence fields must already be
    tuples.
    """
    return cls._fill(_new(cls), *values)


def _filler(sets):
    """``fill(obj, *values)``: value k written to ``obj`` by ``sets[k]``, the
    ``__set__`` of a slot descriptor, and ``obj`` returned, with no loop and
    no lookup by name.  Up to three values take one flat closure; more take
    one closure per extra value ahead of the three-value one.  Any other
    number of values raises ``TypeError``.
    """
    match sets:
        case ():
            def fill(obj):
                return obj
        case (s0,):
            def fill(obj, a):
                s0(obj, a)
                return obj
        case (s0, s1):
            def fill(obj, a, b):
                s0(obj, a)
                s1(obj, b)
                return obj
        case (s0, s1, s2):
            def fill(obj, a, b, c):
                s0(obj, a)
                s1(obj, b)
                s2(obj, c)
                return obj
        case (s0, *rest):
            fill_rest = _filler(tuple(rest))

            def fill(obj, a, *values):
                s0(obj, a)
                return fill_rest(obj, *values)
    return fill


class _cached(cached_property):
    """``functools.cached_property`` without the lock that Python 3.11 takes
    on every first read.  The first read stores the value in the instance
    dict, which shadows this descriptor from then on.  Threads that read a
    fresh value at once may each compute it; the values are equal and the
    last one stored is kept."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class _Record:
    """``repr`` and ``==`` over the fields named by ``__match_args__``, as a
    dataclass generates them; like a mutable dataclass, unhashable.

    The value classes are written out rather than generated by
    ``@dataclass``, so that importing a layer compiles no code.  Classes
    compared on hot paths define ``__eq__`` and ``__hash__`` over their field
    tuple directly, at the speed of the generated methods.

    Each subclass declares ``__slots__``: its fields, then any derived
    attribute, then ``__dict__`` only for a ``cached_property``.  So an
    attribute that is not a field cannot be set, and ``copy`` and ``pickle``
    go through ``__getstate__`` and ``__setstate__`` below.  Each subclass
    also gets its filler ``_fill(obj, *fields)``, made once here from its
    slot descriptors: the one writer of its fields, behind both its
    ``__init__`` and ``_trusted``.
    """

    __match_args__ = ()
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fill = staticmethod(_filler(tuple(getattr(cls, name).__set__
                                               for name in cls.__match_args__)))

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"

    def __getstate__(self):
        """Every slot, derived ones included, for ``copy`` and ``pickle``; a
        cached value is left out and computed again on first read."""
        return {name: getattr(self, name) for cls in type(self).__mro__
                for name in cls.__dict__.get("__slots__", ()) if name != "__dict__"}

    def __setstate__(self, state):
        # Through the slot descriptors: a frozen value's ``__setattr__`` raises.
        cls = type(self)
        for name, value in state.items():
            getattr(cls, name).__set__(self, value)


class _Value(_Record):
    """A frozen record: assigning or deleting any attribute raises, and the
    hash is that of the field tuple.  ``__init__`` and ``_trusted`` write the
    fields through ``_fill``, whose slot descriptors go past the
    ``__setattr__`` below, as the generated ``__init__`` does."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._astuple())


def _bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinSet(_Value):
    """An ordered carrier of distinct atom labels; order fixes indices 0..n-1."""

    __match_args__ = ("elements",)
    __slots__ = ("elements", "size", "full_mask")

    def __init__(self, elements: tuple[str, ...]):
        self._fill(self, tuple(elements))
        self.__post_init__()

    def __post_init__(self):
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise ValueError(f"duplicate labels in carrier: {self.elements}")
        # Derived slots, not fields: set once, left out of eq and hash.
        FinSet.size.__set__(self, n)
        FinSet.full_mask.__set__(self, (1 << n) - 1)

    def __eq__(self, other):
        """Identity first, then labels."""
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self):
        return hash((self.elements,))

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise UnknownElementError(f"{label!r} is not in carrier {self.elements}") from None

    def __contains__(self, label: str) -> bool:
        return label in self.elements

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def finset(*labels: str) -> FinSet:
    return FinSet(tuple(labels))


class Subset(_Value):
    """A bitset over a carrier; bit i is element i of the carrier."""

    __match_args__ = ("carrier", "bits")
    __slots__ = __match_args__

    def __init__(self, carrier: FinSet, bits: int):
        self._fill(self, carrier, bits)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.carrier, self.bits) == (other.carrier, other.bits)

    def __hash__(self):
        return hash((self.carrier, self.bits))

    def __post_init__(self):
        if not 0 <= self.bits <= self.carrier.full_mask:
            raise ValueError(f"bitset {self.bits:#x} out of range for carrier of size {self.carrier.size}")

    @classmethod
    def of(cls, carrier: FinSet, labels=()) -> "Subset":
        bits = 0
        for lab in labels:
            bits |= 1 << carrier.index(lab)
        return cls(carrier, bits)

    @classmethod
    def empty(cls, carrier: FinSet) -> "Subset":
        return cls(carrier, 0)

    @classmethod
    def full(cls, carrier: FinSet) -> "Subset":
        return cls(carrier, carrier.full_mask)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.carrier.elements[i] for i in _bits(self.bits))

    def indices(self) -> tuple[int, ...]:
        return tuple(_bits(self.bits))

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def contains(self, label: str) -> bool:
        return bool(self.bits >> self.carrier.index(label) & 1)

    def _check(self, other: "Subset"):
        if self.carrier is not other.carrier and self.carrier != other.carrier:
            raise CarrierMismatchError("subsets over different carriers")

    def union(self, other: "Subset") -> "Subset":
        self._check(other)
        return _trusted(Subset, self.carrier, self.bits | other.bits)

    def intersection(self, other: "Subset") -> "Subset":
        self._check(other)
        return _trusted(Subset, self.carrier, self.bits & other.bits)

    def implies(self, other: "Subset") -> "Subset":
        """Relative pseudo-complement: {a | a in self => a in other}."""
        self._check(other)
        return _trusted(Subset, self.carrier, (~self.bits | other.bits) & self.carrier.full_mask)

    def complement(self) -> "Subset":
        return _trusted(Subset, self.carrier, ~self.bits & self.carrier.full_mask)

    def issubset(self, other: "Subset") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def __le__(self, other: "Subset") -> bool:
        return self.issubset(other)

    def __str__(self) -> str:
        return "{" + ",".join(self.labels()) + "}"


class FinFunction(_Value):
    """A total function, tabulated as target indices per source index."""

    __match_args__ = ("source", "target", "table")
    __slots__ = __match_args__

    def __init__(self, source: FinSet, target: FinSet, table: tuple[int, ...]):
        self._fill(self, source, target, tuple(table))
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.target, self.table) == (other.source, other.target, other.table)

    def __hash__(self):
        return hash((self.source, self.target, self.table))

    def __post_init__(self):
        if len(self.table) != self.source.size:
            raise ValueError("table length differs from source size")
        if self.table and not (0 <= min(self.table) and max(self.table) < self.target.size):
            t = next(t for t in self.table if not 0 <= t < self.target.size)
            raise ValueError(f"table entry {t} is not a valid target index")

    @classmethod
    def identity(cls, a: FinSet) -> "FinFunction":
        return cls(a, a, tuple(range(a.size)))

    @classmethod
    def from_map(cls, source: FinSet, target: FinSet, mapping: dict) -> "FinFunction":
        return cls(source, target, tuple(target.index(mapping[lab]) for lab in source.elements))

    def __call__(self, i: int) -> int:
        return self.table[i]

    def apply_label(self, label: str) -> str:
        return self.target.elements[self.table[self.source.index(label)]]

    def then(self, other: "FinFunction") -> "FinFunction":
        """Diagrammatic composition: self first, then other."""
        if self.target is not other.source and self.target != other.source:
            raise CarrierMismatchError("composing functions with mismatched carriers")
        return _trusted(FinFunction, self.source, other.target,
                        tuple(map(other.table.__getitem__, self.table)))

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.target.size

    def as_relation(self) -> "Relation":
        """The graph of the function, viewed as a relation source -> target."""
        return _trusted(Relation, self.source, self.target, tuple(1 << t for t in self.table))


class Relation(_Value):
    """A boolean matrix source x target; rows[i] is the bitmask of related targets."""

    __match_args__ = ("source", "target", "rows")
    # The instance dict holds only the cached ``columns``.
    __slots__ = (*__match_args__, "__dict__")

    def __init__(self, source: FinSet, target: FinSet, rows: tuple[int, ...]):
        self._fill(self, source, target, tuple(rows))
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.target, self.rows) == (other.source, other.target, other.rows)

    def __hash__(self):
        return hash((self.source, self.target, self.rows))

    def __post_init__(self):
        if len(self.rows) != self.source.size:
            raise ValueError("row count differs from source size")
        if self.rows and not (0 <= min(self.rows) and max(self.rows) <= self.target.full_mask):
            raise ValueError("row has bits outside the target carrier")

    @classmethod
    def of(cls, source: FinSet, target: FinSet, pairs=()) -> "Relation":
        rows = [0] * source.size
        for a, b in pairs:
            rows[source.index(a)] |= 1 << target.index(b)
        return cls(source, target, tuple(rows))

    @classmethod
    def empty(cls, source: FinSet, target: FinSet) -> "Relation":
        return cls(source, target, (0,) * source.size)

    @classmethod
    def full(cls, source: FinSet, target: FinSet) -> "Relation":
        return cls(source, target, (target.full_mask,) * source.size)

    @classmethod
    def identity(cls, a: FinSet) -> "Relation":
        return cls(a, a, tuple(1 << i for i in range(a.size)))

    def holds(self, a: str, b: str) -> bool:
        return bool(self.rows[self.source.index(a)] >> self.target.index(b) & 1)

    def holds_idx(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (self.source.elements[i], self.target.elements[j])
            for i, row in enumerate(self.rows)
            for j in _bits(row)
        )

    def count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def _check_same_shape(self, other: "Relation"):
        if (self.source is not other.source and self.source != other.source
                or self.target is not other.target and self.target != other.target):
            raise CarrierMismatchError("relations over different carriers")

    def union(self, other: "Relation") -> "Relation":
        self._check_same_shape(other)
        return _trusted(Relation, self.source, self.target, tuple(map(or_, self.rows, other.rows)))

    def intersection(self, other: "Relation") -> "Relation":
        self._check_same_shape(other)
        return _trusted(Relation, self.source, self.target, tuple(map(and_, self.rows, other.rows)))

    def complement(self) -> "Relation":
        full = self.target.full_mask
        return _trusted(Relation, self.source, self.target, tuple(~r & full for r in self.rows))

    def __le__(self, other: "Relation") -> bool:
        """Row-wise inclusion: each row ORed with the other's row gives the other's."""
        self._check_same_shape(other)
        return tuple(map(or_, self.rows, other.rows)) == other.rows

    @_cached
    def columns(self) -> tuple[int, ...]:
        """Column j: the sources related to target j; built on first read and kept.

        Not a field, so equality and hashing see only the rows.
        """
        cols = [0] * self.target.size
        for i, row in enumerate(self.rows):
            bit = 1 << i
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= bit
                row ^= low
        return tuple(cols)


def compose(r: Relation, s: Relation) -> Relation:
    """Relational composition: (a,c) related iff some b has r(a,b) and s(b,c)."""
    if r.target is not s.source and r.target != s.source:
        raise CarrierMismatchError("compose: target of first relation differs from source of second")
    srows = s.rows
    rows = []
    for row in r.rows:
        acc = 0
        while row:
            low = row & -row
            acc |= srows[low.bit_length() - 1]
            row ^= low
        rows.append(acc)
    return _trusted(Relation, r.source, s.target, tuple(rows))


def transpose(r: Relation) -> Relation:
    return _trusted(Relation, r.target, r.source, r.columns)


def residuate_left(r: Relation, s: Relation) -> Relation:
    """Left residual r\\s for r : A->B, s : A->C, valued in B->C.

    (b,c) holds iff every a with r(a,b) also has s(a,c); this is the unique
    relation with  r o x <= s  iff  x <= r\\s.
    """
    if r.source is not s.source and r.source != s.source:
        raise CarrierMismatchError("residuate_left: relations must share their source")
    full = s.target.full_mask
    return _trusted(Relation, r.target, s.target, tuple(meet_bits(s.rows, col, full) for col in r.columns))


def residuate_right(r: Relation, s: Relation) -> Relation:
    """Right residual s/r for r : A->B, s : C->B, valued in C->A.

    (c,a) holds iff every b with r(a,b) also has s(c,b); this is the unique
    relation with  x o r <= s  iff  x <= s/r.
    """
    if r.target is not s.target and r.target != s.target:
        raise CarrierMismatchError("residuate_right: relations must share their target")
    rows = []
    for c in range(s.source.size):
        srow = s.rows[c]
        acc = 0
        for a, rrow in enumerate(r.rows):
            if rrow & ~srow == 0:
                acc |= 1 << a
        rows.append(acc)
    return _trusted(Relation, s.source, r.source, tuple(rows))


class ImageTriple(NamedTuple):
    """The adjoint triple existential -| inverse -| universal along a function."""

    existential: Callable[[Subset], Subset]
    inverse: Callable[[Subset], Subset]
    universal: Callable[[Subset], Subset]


def images(f: FinFunction) -> ImageTriple:
    """The triple along ``f``; the universal image is the complement of the
    existential image of the complement."""
    source, target = f.source, f.target

    def existential(x: Subset) -> Subset:
        if x.carrier != source:
            raise CarrierMismatchError("existential image: subset not over the function source")
        return _trusted(Subset, target, image_bits(f, x.bits))

    def inverse(y: Subset) -> Subset:
        if y.carrier != target:
            raise CarrierMismatchError("inverse image: subset not over the function target")
        return _trusted(Subset, source, preimage_bits(f, y.bits))

    def universal(x: Subset) -> Subset:
        if x.carrier != source:
            raise CarrierMismatchError("universal image: subset not over the function source")
        return _trusted(Subset, target, ~image_bits(f, ~x.bits & source.full_mask) & target.full_mask)

    return ImageTriple(existential, inverse, universal)


def derive_forward(r: Relation, x: Subset) -> Subset:
    """Targets shared by every member of x: {b | all a in x have r(a,b)}."""
    if x.carrier != r.source:
        raise CarrierMismatchError("derive_forward: subset not over the relation source")
    return _trusted(Subset, r.target, meet_bits(r.rows, x.bits, r.target.full_mask))


def derive_reverse(r: Relation, y: Subset) -> Subset:
    """Sources related to every member of y: {a | all b in y have r(a,b)}."""
    if y.carrier != r.target:
        raise CarrierMismatchError("derive_reverse: subset not over the relation target")
    return _trusted(Subset, r.source, meet_bits(r.columns, y.bits, r.source.full_mask))


def meet_bits(lines, bits: int, full: int) -> int:
    """AND of ``lines[i]`` over the set bits i of ``bits``; ``full`` for no bits.

    Over the rows of a relation this is the forward derivation of ``bits``,
    over its columns (the rows of the transpose) the reverse derivation.
    """
    while bits:
        low = bits & -bits
        full &= lines[low.bit_length() - 1]
        bits ^= low
    return full


def derive_bits(lines, opposite, bits: int, full: int) -> int:
    """The derivation of ``bits`` across one relation, from its cheaper side.

    ``lines`` and ``opposite`` are the two sides of the relation (its rows
    and its columns, either way round) and ``full`` is the mask of all
    ``len(opposite)`` indices.  The derivation is ``meet_bits(lines, bits,
    full)``, the AND of |bits| lines; it is equally the set of indices of
    the ``opposite`` lines that hold all of ``bits``.  Whichever of those
    two counts is smaller is scanned.
    """
    if bits.bit_count() < len(opposite):
        return meet_bits(lines, bits, full)
    out = 0
    for i, line in enumerate(opposite):
        if line & bits == bits:
            out |= 1 << i
    return out


def meet_table(lines, full: int) -> list[int]:
    """``meet_bits(lines, y, full)`` for every y below 2^len(lines), indexed by y.

    Each line doubles the table, as in ``_join_table``: entry y + 2^i is entry
    y met with ``lines[i]``, one AND per entry.  The entries are appended, not
    built by a comprehension per line, which costs more than the ANDs on the
    tables of up to 16 entries that derivations mostly fill.
    """
    table = [full]
    for line in lines:
        for t in table[:]:
            table.append(t & line)
    return table


def image_bits(f: FinFunction, bits: int) -> int:
    """Direct image of a source bitmask under the function."""
    out = 0
    for i in _bits(bits):
        out |= 1 << f.table[i]
    return out


def preimage_bits(f: FinFunction, bits: int) -> int:
    """Inverse image of a target bitmask under the function."""
    return preimage_rows(f, (bits,))[0]


def preimage_rows(f: FinFunction, masks) -> list[int]:
    """The inverse image under ``f`` of each target bitmask of ``masks``.

    The one preimage kernel; ``preimage_bits`` is this on one mask.  The
    fibers of f are taken in one pass over the table; each mask then costs
    one OR per element of the image of f that it holds.
    """
    fibers = [0] * f.target.size
    image = 0
    for i, t in enumerate(f.table):
        fibers[t] |= 1 << i
        image |= 1 << t
    out = []
    for y in masks:
        y &= image
        pre = 0
        while y:
            low = y & -y
            pre |= fibers[low.bit_length() - 1]
            y ^= low
        out.append(pre)
    return out


def _join_table(lines) -> list[int]:
    """The OR of ``lines[i]`` over the set bits i of y, for every y below
    2^len(lines), indexed by y.

    Each line doubles the table: entry y + 2^i is entry y joined with
    ``lines[i]``, one OR per entry, appended as in ``meet_table``.
    """
    table = [0]
    for line in lines:
        for t in table[:]:
            table.append(t | line)
    return table


def image_tables(f: FinFunction) -> tuple[list[int], list[int]]:
    """The direct image of every source bitmask and the inverse image of every
    target bitmask along ``f``, indexed by bitmask: adjoint by inclusion for any f.

    Each entry takes one OR: the image of x is the image of x minus its
    highest bit, plus the image of that bit; the preimage of y likewise
    joins the fiber of y's highest bit.
    """
    fibers = [0] * f.target.size
    for i, t in enumerate(f.table):
        fibers[t] |= 1 << i
    return _join_table([1 << t for t in f.table]), _join_table(fibers)


def image_factorize(f: FinFunction) -> tuple[FinFunction, FinFunction]:
    """Split f into a surjection onto its image followed by an injection.

    The image carrier keeps the target labels in first-occurrence order, so
    the factorization is canonical and recomposes to f exactly.
    """
    seen: dict[int, int] = {}
    image_labels = []
    for t in f.table:
        if t not in seen:
            seen[t] = len(image_labels)
            image_labels.append(f.target.elements[t])
    image = FinSet(tuple(image_labels))
    epi = FinFunction(f.source, image, tuple(seen[t] for t in f.table))
    mono = FinFunction(image, f.target, tuple(f.target.index(lab) for lab in image_labels))
    return epi, mono

