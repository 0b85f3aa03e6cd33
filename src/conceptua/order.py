"""Finite preorders and posets, monotone maps, limits, and power lattices."""

import functools
import os
from dataclasses import dataclass
from typing import Iterator

from .errors import CarrierMismatchError, ParseError, SizeLimitError, UnknownElementError
from .finrel import (
    FinFunction,
    FinSet,
    Relation,
    Subset,
    _bits,
    _trusted,
    compose,
    derive_forward,
    derive_reverse,
    meet_bits,
    meet_table,
    preimage_rows,
    transpose,
)

__all__ = [
    "Preorder",
    "Poset",
    "MonotoneMap",
    "OrderBimodule",
    "EndorelationFlags",
    "same_order",
    "same_map",
    "pointwise_le",
    "pointwise_equiv",
    "all_monotone_maps",
    "classify_endorelation",
    "quotient",
    "product",
    "terminal",
    "equalizer",
    "power_order",
    "carrier_bound",
    "check_carrier_bound",
    "opposite",
    "up_segment",
    "down_segment",
    "bounds",
    "bimodule_of_map",
    "bimodule_01_embedding",
    "bimodule_10_embedding",
    "poset_join",
    "poset_meet",
    "is_complete_lattice",
    "find_order_isomorphism",
    "hasse_edges",
    "preorder_to_json",
    "preorder_from_json",
    "preorder_to_dot",
]

# The largest n for which derivation on an n x n context and `conceptua lattice`
# on contranominal-n both peak under 2 GiB (2-vCPU VM, Python 3.11).
DEFAULT_CARRIER_BOUND = 16


def carrier_bound() -> int:
    """CONCEPTUA_MAX_CARRIER, else 16; ``ParseError`` unless a non-negative integer."""
    text = os.environ.get("CONCEPTUA_MAX_CARRIER", str(DEFAULT_CARRIER_BOUND))
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise ParseError(f"CONCEPTUA_MAX_CARRIER must be a non-negative integer, got {text!r}")


def _bits_in_bytes(log2_bits: int) -> str:
    """2^log2_bits bits in binary units, as in "128 B" or "2 GiB"; less than a byte is 1 B."""
    if (log2 := max(log2_bits - 3, 0)) >= 50:
        return f"2^{log2} B"
    return f"{1 << log2 % 10} {('B', 'KiB', 'MiB', 'GiB', 'TiB')[log2 // 10]}"


def check_carrier_bound(size: int, what: str):
    """Raises if a power order of ``size`` elements would exceed the carrier bound,
    naming the size, the 2^size elements, their bytes and the setting that raises the bound."""
    limit = carrier_bound()
    if size > limit:
        elements = f"2^{size}" + (f" = {1 << size}" if size <= 64 else "")
        raise SizeLimitError(
            f"{what} has {size} elements; its power order would have {elements} elements, "
            f"2^{size} rows of 2^{size} bits ({_bits_in_bytes(2 * size)}), above the carrier "
            f"bound {limit}; set CONCEPTUA_MAX_CARRIER to raise it")


def _monotone(source: "Preorder", target: "Preorder", table) -> "MonotoneMap":
    """A map that is monotone by construction, built without the check."""
    return _trusted(MonotoneMap, source=source, target=target,
                    func=FinFunction(source.carrier, target.carrier, tuple(table)))


def _pulled_back_up_sets(func: FinFunction, target_rows) -> list[int]:
    """Entry i: the j with func(i) <= func(j), given the target order's rows.

    One preimage per distinct value of ``func``.
    """
    values = list(dict.fromkeys(func.table))
    pulled = dict(zip(values, preimage_rows(func, [target_rows[t] for t in values])))
    return [pulled[t] for t in func.table]


def _restricted_rows(p: "Preorder", kept) -> tuple[int, ...]:
    """Rows of the order restricted to the distinct indices ``kept``, renumbered 0, 1, ..."""
    pos = {j: c for c, j in enumerate(kept)}
    mask = sum(1 << j for j in kept)
    return tuple(sum(1 << pos[j] for j in _bits(p.leq.rows[i] & mask)) for i in kept)


@functools.lru_cache(maxsize=32)
def _member_masks(size: int) -> tuple[int, ...]:
    """Entry b: the subsets of a ``size``-element carrier that hold element b,
    as a mask over the 2^size subset indices.

    One period of entry b is 2^b clear bits then 2^b set bits, doubled up to
    2^size bits.
    """
    n = 1 << size
    masks = []
    for b in range(size):
        mask = ((1 << (1 << b)) - 1) << (1 << b)
        width = 1 << (b + 1)
        while width < n:
            mask |= mask << width
            width <<= 1
        masks.append(mask)
    return tuple(masks)


def _subset_rows(size: int) -> tuple[int, ...]:
    """Reverse inclusion on the ``size`` bitsets below ``size`` (a power of two).

    Row i holds the subsets of i: those of i minus its lowest element, with
    and without that element (a shift by its bit value).
    """
    rows = [1] * size
    for i in range(1, size):
        rest = i & (i - 1)
        rows[i] = rows[rest] | rows[rest] << (i ^ rest)
    return tuple(rows)


@dataclass(frozen=True)
class EndorelationFlags:
    reflexive: bool
    transitive: bool
    symmetric: bool
    antisymmetric: bool


def classify_endorelation(r: Relation) -> EndorelationFlags:
    """Test the four order axioms by the inclusion formulations."""
    if r.source != r.target:
        raise CarrierMismatchError("classify_endorelation: not an endorelation")
    ident = Relation.identity(r.source)
    rt = transpose(r)
    return EndorelationFlags(
        reflexive=ident <= r,
        transitive=compose(r, r) <= r,
        symmetric=r == rt,
        antisymmetric=r.intersection(rt) <= ident,
    )


@dataclass(frozen=True)
class Preorder:
    """A carrier with a reflexive, transitive endorelation."""

    carrier: FinSet
    leq: Relation

    def __post_init__(self):
        if self.leq.source != self.carrier or self.leq.target != self.carrier:
            raise CarrierMismatchError("order relation must be an endorelation on the carrier")
        self._check_axioms(classify_endorelation(self.leq))

    def _check_axioms(self, flags: EndorelationFlags):
        if not flags.reflexive:
            raise ValueError("order relation is not reflexive")
        if not flags.transitive:
            raise ValueError("order relation is not transitive")

    @classmethod
    def discrete(cls, carrier: FinSet) -> "Preorder":
        return _trusted(cls, carrier=carrier, leq=Relation.identity(carrier))

    @classmethod
    def chain(cls, *labels: str) -> "Poset":
        n = len(labels)
        carrier = FinSet(tuple(labels))
        rows = tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n))
        return _trusted(Poset, carrier=carrier, leq=Relation(carrier, carrier, rows))

    @classmethod
    def from_pairs(cls, carrier: FinSet, pairs) -> "Preorder":
        """Reflexive-transitive closure of the given pairs, in one Warshall
        pass: for each k, every row that holds k takes in row k."""
        rows = [1 << i for i in range(carrier.size)]
        for a, b in pairs:
            rows[carrier.index(a)] |= 1 << carrier.index(b)
        for k in range(carrier.size):
            row_k = rows[k]
            rows = [row | row_k if row >> k & 1 else row for row in rows]
        leq = Relation(carrier, carrier, tuple(rows))
        # The closure is a preorder by construction; only ``Poset.from_pairs`` tests antisymmetry.
        return _trusted(cls, carrier=carrier, leq=leq) if cls is Preorder else cls(carrier, leq)

    @property
    def size(self) -> int:
        return self.carrier.size

    def le(self, a: str, b: str) -> bool:
        return self.leq.holds(a, b)

    def le_idx(self, i: int, j: int) -> bool:
        return self.leq.holds_idx(i, j)

    def is_poset(self) -> bool:
        return classify_endorelation(self.leq).antisymmetric


@dataclass(frozen=True)
class Poset(Preorder):
    """A preorder whose order relation is also antisymmetric."""

    def _check_axioms(self, flags: EndorelationFlags):
        super()._check_axioms(flags)
        if not flags.antisymmetric:
            raise ValueError("order relation is not antisymmetric")

    def is_poset(self) -> bool:
        return True


def same_order(p: Preorder, q: Preorder) -> bool:
    """Carrier-label plus matrix equality, regardless of Preorder/Poset class;
    shared carriers and relations compare by identity."""
    return ((p.carrier is q.carrier or p.carrier == q.carrier)
            and (p.leq is q.leq or p.leq == q.leq))


def opposite(p: Preorder) -> Preorder:
    """The reversed order; the axioms are self-dual, so ``p`` needs no re-check."""
    cls = Poset if isinstance(p, Poset) else Preorder
    return _trusted(cls, carrier=p.carrier, leq=transpose(p.leq))


@dataclass(frozen=True)
class MonotoneMap:
    """An order-preserving function between preorders."""

    source: Preorder
    target: Preorder
    func: FinFunction

    def __post_init__(self):
        """Row i of the source must lie in the preimage of the up-set of func(i)."""
        if self.func.source != self.source.carrier or self.func.target != self.target.carrier:
            raise CarrierMismatchError("function carriers do not match the orders")
        ups = _pulled_back_up_sets(self.func, self.target.leq.rows)
        for i, (row, up) in enumerate(zip(self.source.leq.rows, ups)):
            if bad := row & ~up:
                j = (bad & -bad).bit_length() - 1
                raise ValueError(
                    f"not monotone: {self.source.carrier.elements[i]} <= "
                    f"{self.source.carrier.elements[j]} but images are not ordered"
                )

    @classmethod
    def identity(cls, p: Preorder) -> "MonotoneMap":
        return _monotone(p, p, range(p.size))

    @classmethod
    def from_map(cls, source: Preorder, target: Preorder, mapping: dict) -> "MonotoneMap":
        return cls(source, target, FinFunction.from_map(source.carrier, target.carrier, mapping))

    def __call__(self, i: int) -> int:
        return self.func.table[i]

    def then(self, other: "MonotoneMap") -> "MonotoneMap":
        """The composite; monotone by construction, so not re-checked."""
        if not same_order(self.target, other.source):
            raise CarrierMismatchError("composing monotone maps with mismatched orders")
        return _trusted(MonotoneMap, source=self.source, target=other.target,
                        func=self.func.then(other.func))

    def is_isotone(self) -> bool:
        """Order is both preserved and reflected: each source row is the
        preimage of the up-set of its image."""
        return list(self.source.leq.rows) == _pulled_back_up_sets(self.func, self.target.leq.rows)


def pointwise_le(f: MonotoneMap, g: MonotoneMap) -> bool:
    """Compare parallel monotone maps: f <= g iff f(a) <= g(a) everywhere."""
    if not same_order(f.source, g.source) or not same_order(f.target, g.target):
        raise CarrierMismatchError("pointwise_le: maps are not parallel")
    rows = f.target.leq.rows
    return all(rows[fa] >> ga & 1 for fa, ga in zip(f.func.table, g.func.table))


def same_map(f: MonotoneMap, g: MonotoneMap) -> bool:
    """Structural equality: same orders (up to Poset/Preorder class) and table."""
    return (
        same_order(f.source, g.source)
        and same_order(f.target, g.target)
        and f.func.table == g.func.table
    )


def pointwise_equiv(f: MonotoneMap, g: MonotoneMap) -> bool:
    return pointwise_le(f, g) and pointwise_le(g, f)


@dataclass(frozen=True)
class OrderBimodule:
    """A relation between preorders closed under both orders."""

    source: Preorder
    target: Preorder
    rel: Relation

    def __post_init__(self):
        if self.rel.source != self.source.carrier or self.rel.target != self.target.carrier:
            raise CarrierMismatchError("bimodule relation carriers do not match the orders")
        if not compose(self.source.leq, self.rel) <= self.rel:
            raise ValueError("not left-closed: leq o rel exceeds rel")
        if not compose(self.rel, self.target.leq) <= self.rel:
            raise ValueError("not right-closed: rel o leq exceeds rel")


def bimodule_of_map(f: MonotoneMap, direction: str = "forward") -> OrderBimodule:
    """Forward: rel(a,b) iff f(a) <= b.  Reverse: rel(b,a) iff b <= f(a).

    Over ordered carriers the two are not transposes of each other; they
    agree with transposition exactly when the target order is discrete.
    """
    tgt = f.target
    if direction == "forward":
        rows = tuple(tgt.leq.rows[f.func.table[i]] for i in range(f.source.size))
        return _trusted(OrderBimodule, source=f.source, target=tgt,
                        rel=Relation(f.source.carrier, tgt.carrier, rows))
    if direction == "reverse":
        # Row b: the a whose image lies in the up-set of b.
        rows = preimage_rows(f.func, tgt.leq.rows)
        return _trusted(OrderBimodule, source=tgt, target=f.source,
                        rel=Relation(tgt.carrier, f.source.carrier, tuple(rows)))
    raise ValueError(f"direction must be 'forward' or 'reverse', got {direction!r}")


def bimodule_01_embedding(r: OrderBimodule) -> MonotoneMap:
    """Collapse a bimodule to a map by taking the meet of each row.

    Inverts ``bimodule_of_map(f, "forward")`` when the target is a complete
    lattice: the meet of {b | f(a) <= b} is f(a).  Rows shrink up the source
    (left closure), so their meets rise.
    """
    table = []
    for i in range(r.source.size):
        j = poset_meet(r.target, Subset(r.target.carrier, r.rel.rows[i]))
        if j is None:
            raise ValueError("row has no meet; target is not a complete lattice")
        table.append(j)
    return _monotone(r.source, r.target, table)


def bimodule_10_embedding(r: OrderBimodule) -> MonotoneMap:
    """Collapse a bimodule to a map by taking the join of each column.

    Inverts ``bimodule_of_map(f, "reverse")`` when the bimodule's source is a
    complete lattice: the join of {b | b <= f(a)} is f(a).  Columns grow up
    the target (right closure), so their joins rise.
    """
    table = []
    for col in r.rel.columns:
        i = poset_join(r.source, Subset(r.source.carrier, col))
        if i is None:
            raise ValueError("column has no join; source is not a complete lattice")
        table.append(i)
    return _monotone(r.target, r.source, table)


def quotient(p: Preorder) -> tuple[Poset, MonotoneMap]:
    """Collapse each a == b (both a<=b and b<=a) class to one poset element.

    Class representatives are the minimum element index, the lowest bit of
    the class row; the class label is the representative's label wrapped in
    braces.
    """
    equiv_rows = [row & col for row, col in zip(p.leq.rows, p.leq.columns)]
    first = [(e & -e).bit_length() - 1 for e in equiv_rows]
    reps = [i for i, r in enumerate(first) if r == i]
    qcarrier = FinSet(tuple("{" + p.carrier.elements[r] + "}" for r in reps))
    leq = Relation(qcarrier, qcarrier, _restricted_rows(p, reps))
    q = _trusted(Poset, carrier=qcarrier, leq=leq)
    pos = {r: k for k, r in enumerate(reps)}
    return q, _monotone(p, q, (pos[r] for r in first))


@dataclass(frozen=True)
class OrderProduct:
    order: Preorder
    proj0: MonotoneMap
    proj1: MonotoneMap


def product(p: Preorder, q: Preorder) -> OrderProduct:
    """Componentwise order on pairs, with its two projections.

    Pair (i, j) is element i * |q| + j, so the row of (i, j) is row j of q
    shifted to the block of each i2 in row i of p.
    """
    labels = tuple(f"({a},{b})" for a in p.carrier.elements for b in q.carrier.elements)
    carrier = FinSet(labels)
    m = q.size
    rows = tuple(sum(q_row << i2 * m for i2 in _bits(p_row))
                 for p_row in p.leq.rows for q_row in q.leq.rows)
    cls = Poset if isinstance(p, Poset) and isinstance(q, Poset) else Preorder
    order = _trusted(cls, carrier=carrier, leq=Relation(carrier, carrier, rows))
    return OrderProduct(order, _monotone(order, p, (k // m for k in range(p.size * m))),
                        _monotone(order, q, (k % m for k in range(p.size * m))))


def terminal() -> Poset:
    return Poset.discrete(FinSet(("*",)))


def equalizer(f: MonotoneMap, g: MonotoneMap) -> tuple[Preorder, MonotoneMap]:
    """Sub-preorder where f and g agree, with the kernel order and inclusion."""
    if not same_order(f.source, g.source) or not same_order(f.target, g.target):
        raise CarrierMismatchError("equalizer needs a parallel pair")
    kept = [i for i in range(f.source.size) if f.func.table[i] == g.func.table[i]]
    carrier = FinSet(tuple(f.source.carrier.elements[i] for i in kept))
    cls = Poset if isinstance(f.source, Poset) else Preorder
    leq = Relation(carrier, carrier, _restricted_rows(f.source, kept))
    sub = _trusted(cls, carrier=carrier, leq=leq)
    return sub, _monotone(sub, f.source, kept)


def power_order(a: FinSet, reverse: bool = False) -> Poset:
    """The subsets of ``a`` by inclusion, or by reverse inclusion; refuses
    carriers above the bound.

    Element i is the subset with bitset value i, labelled by its members.
    Inclusion stores row i as the supersets of i, the AND of the member masks
    of its elements (``meet_table``): 2^n big-int ANDs of 2^n-bit rows.
    Reverse inclusion stores the subsets of i (``_subset_rows``).  Either is
    a poset by construction and is not re-validated.
    """
    check_carrier_bound(a.size, "power_order: the carrier")
    n = 1 << a.size
    members = [""] * n  # comma-joined labels of subset i, ascending
    for i in range(1, n):
        rest = i & (i - 1)
        members[i] = a.elements[(i ^ rest).bit_length() - 1] + ("," + members[rest] if rest else "")
    carrier = FinSet(tuple("{" + m + "}" for m in members))
    rows = _subset_rows(n) if reverse else meet_table(_member_masks(a.size), (1 << n) - 1)
    return _trusted(Poset, carrier=carrier, leq=Relation(carrier, carrier, tuple(rows)))


def up_segment(p: Preorder, a: str) -> Subset:
    """All x with a <= x."""
    return Subset(p.carrier, p.leq.rows[p.carrier.index(a)])


def down_segment(p: Preorder, a: str) -> Subset:
    """All x with x <= a."""
    return Subset(p.carrier, p.leq.columns[p.carrier.index(a)])


def _check_subset(p: Preorder, x: Subset):
    if x.carrier != p.carrier:
        raise CarrierMismatchError("bounds: subset not over the order's carrier")


def bounds(p: Preorder, x: Subset) -> tuple[Subset, Subset]:
    """Common upper and lower bounds of x; both are the full carrier for x empty."""
    _check_subset(p, x)
    upper = derive_forward(p.leq, x)
    lower = derive_reverse(p.leq, x)
    return upper, lower


def poset_join(p: Preorder, x: Subset) -> int | None:
    """Least upper bound of x as a carrier index, or None if it does not exist.

    The upper bounds are the AND of the rows over x; the join is the lowest
    upper bound whose own row holds all of them.
    """
    _check_subset(p, x)
    rows = p.leq.rows
    upper = meet_bits(rows, x.bits, p.carrier.full_mask)
    for i in _bits(upper):
        if upper & ~rows[i] == 0:
            return i
    return None


def poset_meet(p: Preorder, x: Subset) -> int | None:
    """Greatest lower bound of x as a carrier index, or None.

    The lower bounds are the elements whose rows hold x; the meet is the
    lowest lower bound that lies in the row of every lower bound.
    """
    _check_subset(p, x)
    rows = p.leq.rows
    lower = derive_reverse(p.leq, x).bits
    meets = lower & meet_bits(rows, lower, p.carrier.full_mask)
    return (meets & -meets).bit_length() - 1 if meets else None


def is_complete_lattice(p: Preorder) -> bool:
    """For finite posets: antisymmetric, nonempty, with a bottom and pair joins.

    The upper bounds of i and j are rows[i] & rows[j], and they have a least
    element exactly when that AND is some element's row.  A finite poset
    with a bottom and all pair joins has every join, so every meet too.
    """
    if p.size == 0 or not p.is_poset():
        return False
    rows = p.leq.rows
    row_set = set(rows)
    if p.carrier.full_mask not in row_set:  # no bottom
        return False
    for i, row in enumerate(rows):
        for other in rows[i + 1:]:
            if row & other not in row_set:
                return False
    return True


def find_order_isomorphism(p: Preorder, q: Preorder) -> FinFunction | None:
    """Backtracking search for an order isomorphism; practical up to ~10 elements."""
    n = p.size
    if n != q.size:
        return None

    def profile(order: Preorder, i: int) -> tuple[int, int]:
        return order.leq.rows[i].bit_count(), order.leq.columns[i].bit_count()

    p_prof = [profile(p, i) for i in range(n)]
    q_prof = [profile(q, i) for i in range(n)]
    assignment: list[int] = []
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for cand in range(n):
            if used[cand] or p_prof[i] != q_prof[cand]:
                continue
            ok = True
            for prev in range(i):
                if p.le_idx(i, prev) != q.le_idx(cand, assignment[prev]):
                    ok = False
                    break
                if p.le_idx(prev, i) != q.le_idx(assignment[prev], cand):
                    ok = False
                    break
            if ok:
                used[cand] = True
                assignment.append(cand)
                if extend(i + 1):
                    return True
                assignment.pop()
                used[cand] = False
        return False

    if extend(0):
        return FinFunction(p.carrier, q.carrier, tuple(assignment))
    return None


def is_pseudo_epimorphism(e: MonotoneMap, probe_size: int = 3) -> bool:
    """Bounded check: no parallel pair into a probe preorder merges under e.

    Probes range over all preorders on at most ``probe_size`` elements, so
    this refutes pseudo-epiness when a small counterexample exists.
    """
    for c in _all_preorders(probe_size):
        maps = list(all_monotone_maps(e.target, c))
        for f in maps:
            for g in maps:
                ef = e.then(f)
                eg = e.then(g)
                if pointwise_equiv(ef, eg) and not pointwise_equiv(f, g):
                    return False
    return True


def is_pseudo_monomorphism(m: MonotoneMap, probe_size: int = 3) -> bool:
    """Bounded dual check against parallel pairs out of a probe preorder."""
    for c in _all_preorders(probe_size):
        maps = list(all_monotone_maps(c, m.source))
        for f in maps:
            for g in maps:
                if pointwise_equiv(f.then(m), g.then(m)) and not pointwise_equiv(f, g):
                    return False
    return True


def _all_preorders(max_size: int) -> Iterator[Preorder]:
    import itertools

    for n in range(max_size + 1):
        carrier = FinSet(tuple(f"e{i}" for i in range(n)))
        strict = [(i, j) for i in range(n) for j in range(n) if i != j]
        for picks in itertools.product((False, True), repeat=len(strict)):
            rows = [1 << i for i in range(n)]
            for (i, j), on in zip(strict, picks):
                if on:
                    rows[i] |= 1 << j
            rel = Relation(carrier, carrier, tuple(rows))
            if compose(rel, rel) <= rel:
                yield _trusted(Preorder, carrier=carrier, leq=rel)


def all_monotone_maps(p: Preorder, q: Preorder) -> Iterator[MonotoneMap]:
    """Enumerate every monotone map p -> q (exponential; keep carriers small).

    Tables come in lexicographic order, assigned one index at a time: the
    values allowed at i lie above the images of the earlier elements below
    i and below the images of the earlier elements above i, one row AND per
    earlier element comparable with i.
    """
    n = p.size
    if n == 0:
        yield _monotone(p, q, ())
        return
    p_rows, q_rows = p.leq.rows, q.leq.rows
    p_cols, q_cols = p.leq.columns, q.leq.columns
    table = [0] * n

    def allowed(i: int) -> int:
        mask = q.carrier.full_mask
        for j in _bits(p_cols[i] & ((1 << i) - 1)):
            mask &= q_rows[table[j]]
        for j in _bits(p_rows[i] & ((1 << i) - 1)):
            mask &= q_cols[table[j]]
        return mask

    pending = [allowed(0)]  # pending[i]: values still to try at index i
    while pending:
        i = len(pending) - 1
        if not pending[i]:
            pending.pop()
            continue
        low = pending[i] & -pending[i]
        pending[i] ^= low
        table[i] = low.bit_length() - 1
        if i + 1 < n:
            pending.append(allowed(i + 1))
        else:
            yield _monotone(p, q, table)


def hasse_edges(p: Preorder) -> list[tuple[int, int]]:
    """Covering pairs (i, j) of the reflexive-transitive reduction, sorted.

    The covers of i are the minimal elements of its strict up-set S_i (above
    i, not below it).  Each round takes a minimal element of what is left of
    S_i, descending from its lowest index, and removes it with everything
    strictly above it; what is left is never strictly above a removed element,
    so each round yields a cover.  When no element lies above a lower index,
    as for concepts in lectic order, the lowest index is already minimal and
    the covers are read straight off the rows, with no columns and no copy
    of the order: each cover costs a few big-int operations.
    """
    rows = p.leq.rows
    edges = []
    if all(row & ((1 << i) - 1) == 0 for i, row in enumerate(rows)):
        for i, row in enumerate(rows):
            rest = row ^ 1 << i
            while rest:
                k = (rest & -rest).bit_length() - 1
                edges.append((i, k))
                rest &= ~rows[k]
        return edges
    cols = p.leq.columns
    strict_up = [row & ~col for row, col in zip(rows, cols)]
    strict_down = [col & ~row for row, col in zip(rows, cols)]
    for i, rest in enumerate(strict_up):
        covers = 0
        while rest:
            k = (rest & -rest).bit_length() - 1
            while below := strict_down[k] & rest:
                k = (below & -below).bit_length() - 1
            covers |= 1 << k
            rest &= ~(strict_up[k] | 1 << k)
        edges.extend((i, j) for j in _bits(covers))
    return edges


def preorder_to_json(p: Preorder) -> dict:
    return {
        "elements": list(p.carrier.elements),
        "leq": [[i, j] for i in range(p.size) for j in range(p.size) if p.le_idx(i, j)],
    }


def preorder_from_json(data: dict) -> Preorder:
    carrier = FinSet(tuple(data["elements"]))
    rows = [0] * carrier.size
    for i, j in data["leq"]:
        if not (0 <= i < carrier.size and 0 <= j < carrier.size):
            raise UnknownElementError(f"leq pair [{i}, {j}] outside the carrier")
        rows[i] |= 1 << j
    return Preorder(carrier, Relation(carrier, carrier, tuple(rows)))


def preorder_to_dot(p: Preorder, name: str = "order") -> str:
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for label in p.carrier.elements:
        lines.append(f'  "{label}";')
    for i, j in hasse_edges(p):
        lines.append(f'  "{p.carrier.elements[i]}" -> "{p.carrier.elements[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
