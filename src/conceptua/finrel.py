"""Finite sets, subsets, functions, and binary relations.

Everything is bitset-encoded: a subset of a carrier with elements indexed
0..n-1 is an int whose bit i records membership of element i, and a relation
is one bitmask row per source element.  All equality is bit-exact.

A relation's columns (the rows of its transpose) are computed once, on first
read of ``Relation.columns``, and kept.  Both derivations are ``meet_bits``:
the forward one over the rows, the reverse one over the columns.
``derive_bits`` computes either one from whichever side is cheaper.

Only the public constructors validate.  A value that is valid by
construction (the result of a kernel here, or an order or map derived
elsewhere in the library) is built by ``_trusted``.  Carrier checks test
identity before comparing labels, so carriers shared by object cost one
pointer compare.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple

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
    "relation_to_json",
    "relation_from_json",
]


def _trusted(cls, **fields):
    """A value built without running ``__post_init__``: the fields are written
    to the instance dict in one step.

    Every value the library derives is valid by construction and built here;
    only the public constructors validate.  Sequence fields must already be
    tuples.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class FinSet:
    """An ordered carrier of distinct atom labels; order fixes indices 0..n-1."""

    elements: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"duplicate labels in carrier: {self.elements}")
        object.__setattr__(self, "elements", tuple(self.elements))
        # Plain attributes, not fields: set once, left out of eq and hash.
        object.__setattr__(self, "size", len(self.elements))
        object.__setattr__(self, "full_mask", (1 << self.size) - 1)

    def __eq__(self, other):
        """Identity first, then labels; ``hash`` stays the dataclass one."""
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.elements == other.elements

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


@dataclass(frozen=True)
class Subset:
    """A bitset over a carrier; bit i is element i of the carrier."""

    carrier: FinSet
    bits: int

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
        return _trusted(Subset, carrier=self.carrier, bits=self.bits | other.bits)

    def intersection(self, other: "Subset") -> "Subset":
        self._check(other)
        return _trusted(Subset, carrier=self.carrier, bits=self.bits & other.bits)

    def implies(self, other: "Subset") -> "Subset":
        """Relative pseudo-complement: {a | a in self => a in other}."""
        self._check(other)
        return _trusted(Subset, carrier=self.carrier,
                        bits=(~self.bits | other.bits) & self.carrier.full_mask)

    def complement(self) -> "Subset":
        return _trusted(Subset, carrier=self.carrier, bits=~self.bits & self.carrier.full_mask)

    def issubset(self, other: "Subset") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def __le__(self, other: "Subset") -> bool:
        return self.issubset(other)

    def __str__(self) -> str:
        return "{" + ",".join(self.labels()) + "}"


@dataclass(frozen=True)
class FinFunction:
    """A total function, tabulated as target indices per source index."""

    source: FinSet
    target: FinSet
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
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
        return _trusted(FinFunction, source=self.source, target=other.target,
                        table=tuple(map(other.table.__getitem__, self.table)))

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.target.size

    def as_relation(self) -> "Relation":
        """The graph of the function, viewed as a relation source -> target."""
        return _trusted(Relation, source=self.source, target=self.target,
                        rows=tuple(1 << t for t in self.table))


@dataclass(frozen=True)
class Relation:
    """A boolean matrix source x target; rows[i] is the bitmask of related targets."""

    source: FinSet
    target: FinSet
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
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
        return _trusted(Relation, source=self.source, target=self.target,
                        rows=tuple(map(int.__or__, self.rows, other.rows)))

    def intersection(self, other: "Relation") -> "Relation":
        self._check_same_shape(other)
        return _trusted(Relation, source=self.source, target=self.target,
                        rows=tuple(map(int.__and__, self.rows, other.rows)))

    def complement(self) -> "Relation":
        full = self.target.full_mask
        return _trusted(Relation, source=self.source, target=self.target,
                        rows=tuple(~r & full for r in self.rows))

    def __le__(self, other: "Relation") -> bool:
        """Row-wise inclusion: each row ORed with the other's row gives the other's."""
        self._check_same_shape(other)
        return tuple(map(int.__or__, self.rows, other.rows)) == other.rows

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """Column j: the sources related to target j; built on first read and kept.

        Not a field, so equality and hashing see only the rows.
        """
        cols = [0] * self.target.size
        for i, row in enumerate(self.rows):
            bit = 1 << i
            for j in _bits(row):
                cols[j] |= bit
        return tuple(cols)

    def fiber10(self, j: int) -> Subset:
        """Sources related to target index j (a column)."""
        return _trusted(Subset, carrier=self.source, bits=self.columns[j])


def compose(r: Relation, s: Relation) -> Relation:
    """Relational composition: (a,c) related iff some b has r(a,b) and s(b,c)."""
    if r.target is not s.source and r.target != s.source:
        raise CarrierMismatchError("compose: target of first relation differs from source of second")
    rows = []
    for row in r.rows:
        acc = 0
        for b in _bits(row):
            acc |= s.rows[b]
        rows.append(acc)
    return _trusted(Relation, source=r.source, target=s.target, rows=tuple(rows))


def transpose(r: Relation) -> Relation:
    return _trusted(Relation, source=r.target, target=r.source, rows=r.columns)


def residuate_left(r: Relation, s: Relation) -> Relation:
    """Left residual r\\s for r : A->B, s : A->C, valued in B->C.

    (b,c) holds iff every a with r(a,b) also has s(a,c); this is the unique
    relation with  r o x <= s  iff  x <= r\\s.
    """
    if r.source is not s.source and r.source != s.source:
        raise CarrierMismatchError("residuate_left: relations must share their source")
    full = s.target.full_mask
    return _trusted(Relation, source=r.target, target=s.target,
                    rows=tuple(meet_bits(s.rows, col, full) for col in r.columns))


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
    return _trusted(Relation, source=s.source, target=r.source, rows=tuple(rows))


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
        return _trusted(Subset, carrier=target, bits=image_bits(f, x.bits))

    def inverse(y: Subset) -> Subset:
        if y.carrier != target:
            raise CarrierMismatchError("inverse image: subset not over the function target")
        return _trusted(Subset, carrier=source, bits=preimage_bits(f, y.bits))

    def universal(x: Subset) -> Subset:
        if x.carrier != source:
            raise CarrierMismatchError("universal image: subset not over the function source")
        return _trusted(Subset, carrier=target,
                        bits=~image_bits(f, ~x.bits & source.full_mask) & target.full_mask)

    return ImageTriple(existential, inverse, universal)


def derive_forward(r: Relation, x: Subset) -> Subset:
    """Targets shared by every member of x: {b | all a in x have r(a,b)}."""
    if x.carrier != r.source:
        raise CarrierMismatchError("derive_forward: subset not over the relation source")
    return _trusted(Subset, carrier=r.target, bits=meet_bits(r.rows, x.bits, r.target.full_mask))


def derive_reverse(r: Relation, y: Subset) -> Subset:
    """Sources related to every member of y: {a | all b in y have r(a,b)}."""
    if y.carrier != r.target:
        raise CarrierMismatchError("derive_reverse: subset not over the relation target")
    return _trusted(Subset, carrier=r.source, bits=meet_bits(r.columns, y.bits, r.source.full_mask))


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

    Each entry takes one AND: t[y] = t[y minus its lowest bit] & lines[that bit].
    """
    table = [full] * (1 << len(lines))
    for y in range(1, len(table)):
        rest = y & (y - 1)
        table[y] = table[rest] & lines[(y ^ rest).bit_length() - 1]
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


def image_tables(f: FinFunction) -> tuple[list[int], list[int]]:
    """The direct image of every source bitmask and the inverse image of every
    target bitmask along ``f``, indexed by bitmask: adjoint by inclusion for any f."""
    images = [image_bits(f, x) for x in range(1 << f.source.size)]
    return images, preimage_rows(f, range(1 << f.target.size))


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


def relation_to_json(r: Relation) -> dict:
    return {
        "source": list(r.source.elements),
        "target": list(r.target.elements),
        "pairs": [[i, j] for i, row in enumerate(r.rows) for j in _bits(row)],
    }


def relation_from_json(data: dict) -> Relation:
    source = FinSet(tuple(data["source"]))
    target = FinSet(tuple(data["target"]))
    rows = [0] * source.size
    for i, j in data["pairs"]:
        if not (0 <= i < source.size and 0 <= j < target.size):
            raise UnknownElementError(f"pair [{i}, {j}] outside carriers")
        rows[i] |= 1 << j
    return Relation(source, target, tuple(rows))
