"""Values built without re-validation agree with the validating constructors.

Only the public constructors validate.  Every builder of a derived order, map,
bimodule or adjunction runs here on seeded inputs with the validating checks
counted (none may run), and each result must equal its rebuild through
the public constructors, every adjunction passing ``check_adjunction``.  The
``finrel`` kernels' results must equal and hash like their rebuilds, with
tuple fields of in-range ints.  The image tables are compared with the
per-subset loops they replaced.
"""

import itertools
import random

import pytest

import conceptua.order as order
import conceptua.clg as clg
import conceptua.clsn as clsn
import conceptua.galois as galois
import conceptua.institution as institution
import conceptua.verify as verify
from conceptua.clg import concept_lattice, concepts_of, validate_concept_lattice
from conceptua.clsn import Classification, derivation, enumerate_infomorphisms
from conceptua.errors import CarrierMismatchError, SizeLimitError
from conceptua.finrel import FinFunction, FinSet, Relation, Subset, compose, derive_forward, \
    derive_reverse, image_bits, image_tables, images, preimage_bits, preimage_rows, residuate_left, \
    residuate_right, transpose
from conceptua.galois import check_adjunction, closure_interior, downset_coreflection, \
    enumerate_adjunctions, polar_factorize, recompose, upset_reflection
from conceptua.institution import Signature, SignatureMorphism, classification_of_signature, \
    flatten, theory_fiber
from conceptua.order import MonotoneMap, Poset, all_monotone_maps, opposite, power_order


def carrier(prefix, n):
    return FinSet(tuple(f"{prefix}{i}" for i in range(n)))


def random_context(rng, n_inst, n_typ):
    inst, typ = carrier("g", n_inst), carrier("m", n_typ)
    rows = tuple(rng.getrandbits(n_typ) if n_typ else 0 for _ in range(n_inst))
    return Classification(inst, typ, Relation(inst, typ, rows))


def rebuilt_order(p):
    return type(p)(p.carrier, p.leq)


def rebuilt_map(f):
    return MonotoneMap(rebuilt_order(f.source), rebuilt_order(f.target), f.func)


@pytest.mark.parametrize("n", range(7))
def test_power_order_matches_brute_force_inclusion(n):
    po = power_order(carrier("e", n))
    size = 1 << n
    brute = tuple(
        sum(1 << j for j in range(size) if i & ~j == 0) for i in range(size)
    )
    assert po.leq.rows == brute
    assert Poset(po.carrier, po.leq) == po


@pytest.mark.parametrize("n", range(7))
def test_power_order_opposite_is_the_transpose(n):
    reverse = power_order(carrier("e", n), reverse=True)
    assert reverse == opposite(power_order(carrier("e", n)))
    assert Poset(reverse.carrier, reverse.leq) == reverse


def test_opposite_keeps_the_order_class():
    p = order.Preorder.from_pairs(carrier("e", 3), [("e0", "e1"), ("e1", "e0")])
    assert type(opposite(p)) is order.Preorder
    assert type(opposite(power_order(carrier("e", 2)))) is Poset


def test_concept_lattice_and_derivation_pass_the_public_constructors():
    rng = random.Random(2024)
    for _ in range(40):
        a = random_context(rng, rng.randint(0, 6), rng.randint(0, 6))
        lat = concept_lattice(a)
        assert rebuilt_order(lat.lattice) == lat.lattice
        for adj in (lat.extent_reflection, lat.intent_coreflection):
            for p in (adj.source, adj.target):
                assert rebuilt_order(p) == p
            for f in (adj.left, adj.right):
                assert rebuilt_map(f) == f
        assert validate_concept_lattice(lat) == []

        deriv = derivation(a)
        for p in (deriv.source, deriv.target):
            assert rebuilt_order(p) == p
        for f in (deriv.left, deriv.right):
            assert rebuilt_map(f) == f


def test_concept_lattice_is_assembled_unchecked_and_equals_its_rebuild(monkeypatch):
    checks = []
    post_init = FinFunction.__post_init__

    def counting_post_init(self):
        checks.append(self)
        post_init(self)

    rng = random.Random(2022)
    for _ in range(40):
        a = random_context(rng, rng.randint(0, 6), rng.randint(0, 6))
        with monkeypatch.context() as counted:
            counted.setattr(FinFunction, "__post_init__", counting_post_init)
            lat = concept_lattice(a)
        assert checks == []
        iota, tau = lat.iota_embed, lat.tau_embed
        assert FinFunction(iota.source, iota.target, iota.table) == iota
        assert FinFunction(tau.source, tau.target, tau.table) == tau
        assert clg.ConceptLattice(lat.instances, lat.types, lat.lattice, lat.concepts,
                                  iota, tau) == lat


def test_trusted_concept_lattice_builds_its_adjunctions_once(monkeypatch):
    builds = []
    real = clg._power_adjunctions

    def counting(lat):
        builds.append(lat)
        return real(lat)

    monkeypatch.setattr(clg, "_power_adjunctions", counting)
    lat = concept_lattice(random_context(random.Random(5), 4, 5))
    first = lat.extent_reflection
    assert lat.extent_reflection is first
    assert lat.intent_coreflection is lat.intent_coreflection
    assert builds == [lat]
    assert rebuilt_adjunction(first) is not None


def test_concept_lattice_classifies_no_power_order(monkeypatch):
    sizes = []
    real = order.classify_endorelation

    def counting(r):
        sizes.append(r.source.size)
        return real(r)

    monkeypatch.setattr(order, "classify_endorelation", counting)
    rng = random.Random(7)
    lat = concept_lattice(random_context(rng, 6, 10))
    assert lat.size > 0
    assert not [s for s in sizes if s in (1 << 6, 1 << 10)]


def test_public_poset_classifies_once(monkeypatch):
    calls = []
    real = order.classify_endorelation

    def counting(r):
        calls.append(r)
        return real(r)

    monkeypatch.setattr(order, "classify_endorelation", counting)
    p = Poset(carrier("e", 3), Relation.identity(carrier("e", 3)))
    assert len(calls) == 1
    assert p.is_poset()
    assert len(calls) == 1


def test_public_poset_still_rejects_each_axiom():
    c = carrier("e", 2)
    with pytest.raises(ValueError, match="not reflexive"):
        Poset(c, Relation(c, c, (0b01, 0b00)))
    c3 = carrier("e", 3)
    with pytest.raises(ValueError, match="not transitive"):
        Poset(c3, Relation(c3, c3, (0b011, 0b110, 0b100)))
    with pytest.raises(ValueError, match="not antisymmetric"):
        Poset(c, Relation(c, c, (0b11, 0b11)))
    assert not order.Preorder(c, Relation(c, c, (0b11, 0b11))).is_poset()


@pytest.mark.parametrize("build", [
    lambda a: power_order(a.instances),
    lambda a: derivation(a),
    lambda a: concept_lattice(a).extent_reflection,
])
def test_size_guard_names_size_elements_and_override(build, monkeypatch):
    a = random_context(random.Random(3), 5, 2)
    monkeypatch.setenv("CONCEPTUA_MAX_CARRIER", "4")
    with pytest.raises(SizeLimitError) as err:
        build(a)
    message = str(err.value)
    assert "5 elements" in message
    assert "2^5 = 32" in message
    assert "CONCEPTUA_MAX_CARRIER" in message


def context_of(n_inst, n_typ, rows):
    inst, typ = carrier("g", n_inst), carrier("m", n_typ)
    return Classification(inst, typ, Relation(inst, typ, tuple(rows)))


@pytest.mark.parametrize("bound, build, parts", [
    ("4", lambda: power_order(carrier("e", 5)),
     ["5 elements", "2^5 = 32", "2^5 rows of 2^5 bits (128 B)", "bound 4", "CONCEPTUA_MAX_CARRIER"]),
    (None, lambda: power_order(carrier("e", 17)),
     ["2^17 rows of 2^17 bits (2 GiB)", "bound 16", "CONCEPTUA_MAX_CARRIER"]),
    ("3", lambda: concepts_of(context_of(4, 4, (0b1111 & ~(1 << i) for i in range(4)))),
     ["2^3 = 8 concepts", "2^6 bits (8 B)", "CONCEPTUA_MAX_CARRIER"]),
    (None, lambda: classification_of_signature(Signature.of(*"uvwxyz"), 1),
     ["6 variables", "2^6 = 64 models", "fixed cap of 5 variables"]),
    (None, lambda: flatten([Signature.of(f"a{i}", f"b{i}", f"c{i}") for i in range(20)], []),
     ["5120 objects", "fixed cap of 5000"]),
    (None, lambda: enumerate_infomorphisms(context_of(1, 7, [0]), context_of(1, 8, [0])),
     ["8^7 = 2097152 type maps", "fixed cap of 10^6"]),
    (None, lambda: enumerate_infomorphisms(context_of(2, 2, [0, 0]), context_of(2, 2, [0, 0]),
                                           max_results=2),
     ["max_results = 2", "result cap"]),
], ids=["power-order-bytes", "power-order-default", "concept-count", "signature",
        "flatten", "type-map-search", "result-cap"])
def test_size_errors_state_the_size_and_the_cap(monkeypatch, bound, build, parts):
    if bound is None:
        monkeypatch.delenv("CONCEPTUA_MAX_CARRIER", raising=False)
    else:
        monkeypatch.setenv("CONCEPTUA_MAX_CARRIER", bound)
    with pytest.raises(SizeLimitError) as err:
        build()
    for part in parts:
        assert part in str(err.value)


def test_concept_bound_message_states_the_bytes_of_the_default():
    message = str(clg._too_many_concepts(16, 1 << 16))
    assert "2^16 = 65536 concepts" in message and "2^32 bits (512 MiB)" in message


def seeded_adjunctions(count, seed):
    rng = random.Random(seed)
    return [derivation(random_context(rng, rng.randint(0, 4), rng.randint(0, 4)))
            for _ in range(count)]


def test_composites_pass_the_public_constructor():
    for g in seeded_adjunctions(30, 11):
        for f in (g.left.then(g.right), g.right.then(g.left),
                  g.left.then(g.right).then(g.left)):
            assert rebuilt_map(f) == f
        composed = recompose(polar_factorize(g))
        for f in (composed.left, composed.right):
            assert rebuilt_map(f) == f
        assert check_adjunction(composed.left, composed.right) is not None


def test_fixed_point_subposets_pass_the_public_constructors():
    for g in seeded_adjunctions(30, 12):
        ci = closure_interior(g)
        for sub, incl in ((ci.closed, ci.closed_inclusion), (ci.open, ci.open_inclusion)):
            assert rebuilt_order(sub) == sub
            assert rebuilt_map(incl) == incl
        pf = polar_factorize(g)
        axis = pf.axis
        for m in range(axis.size):
            for adj in (upset_reflection(axis, m), downset_coreflection(axis, m)):
                for p in (adj.source, adj.target):
                    assert rebuilt_order(p) == p
                for f in (adj.left, adj.right):
                    assert rebuilt_map(f) == f


def test_fixed_point_subposet_of_a_preorder_is_still_classified():
    c = carrier("e", 2)
    p = order.Preorder(c, Relation(c, c, (0b11, 0b11)))
    with pytest.raises(ValueError, match="not antisymmetric"):
        upset_reflection(p, 0)


def test_polar_factorization_passes_the_public_constructors():
    for g in seeded_adjunctions(40, 13):
        pf = polar_factorize(g)
        assert rebuilt_order(pf.axis) == pf.axis
        for adj in (pf.extent_reflection, pf.intent_coreflection):
            for f in (adj.left, adj.right):
                assert rebuilt_map(f) == f
            assert check_adjunction(rebuilt_map(adj.left), rebuilt_map(adj.right)) is not None
        assert recompose(pf).left.func.table == g.left.func.table


def test_theory_fibers_pass_the_public_constructor():
    for n in range(4):
        fib = theory_fiber(Signature.of(*"pqr"[:n]))
        assert rebuilt_order(fib.poset) == fib.poset
        assert type(fib.poset) is Poset


def test_enumerated_maps_pass_the_public_constructor():
    rng = random.Random(14)
    orders = [order.Preorder.from_pairs(carrier("e", n), [
        (f"e{rng.randrange(n)}", f"e{rng.randrange(n)}") for _ in range(n)]) for n in range(4)]
    orders.append(order.Preorder.chain("a", "b", "c"))
    for p in orders:
        for q in orders:
            for f in all_monotone_maps(p, q):
                assert rebuilt_map(f) == f
            for adj in enumerate_adjunctions(p, q):
                assert check_adjunction(rebuilt_map(adj.left), rebuilt_map(adj.right)) is not None


# ------------------------------------------------ derived values built unchecked

def image_bits_loop(f, bits):
    """The per-subset direct image the derivation square read, kept as the oracle."""
    out = 0
    for i in range(f.source.size):
        if bits >> i & 1:
            out |= 1 << f.table[i]
    return out


def preimage_bits_loop(f, bits):
    """The per-subset inverse image loop that ``preimage_rows`` replaced, kept as the oracle."""
    out = 0
    for i, t in enumerate(f.table):
        if bits >> t & 1:
            out |= 1 << i
    return out


def seeded_pair_lists(rng, count, max_size=4):
    """(carrier, pairs) inputs of ``Preorder.from_pairs``."""
    return [(carrier("e", n), [
        (f"e{rng.randrange(n)}", f"e{rng.randrange(n)}") for _ in range(rng.randint(0, 2 * n))])
        for n in (rng.randint(1, max_size) for _ in range(count))]


def seeded_preorders(rng, count, max_size=4):
    return [order.Preorder.from_pairs(*args) for args in seeded_pair_lists(rng, count, max_size)]


def seeded_lattices(rng, count):
    """Complete lattices: small power orders and concept orders of seeded contexts."""
    lattices = [power_order(carrier("e", n)) for n in range(3)]
    return lattices + [concept_lattice(random_context(rng, rng.randint(1, 4), rng.randint(1, 4)))
                       .lattice for _ in range(count)]


def seeded_maps(rng, count, lattice_targets=False):
    sources = seeded_preorders(rng, count, 3)
    targets = seeded_lattices(rng, count) if lattice_targets else seeded_preorders(rng, count, 3)
    maps = []
    for p in sources:
        q = rng.choice(targets)
        maps.append(rng.choice(list(all_monotone_maps(p, q))))
    return maps


def seeded_infomorphisms(rng, count):
    infos = []
    while len(infos) < count:
        a = random_context(rng, rng.randint(1, 3), rng.randint(1, 3))
        b = random_context(rng, rng.randint(1, 3), rng.randint(1, 3))
        if found := enumerate_infomorphisms(a, b):
            infos.append(rng.choice(found))
    return infos


def morphisms_up_to(max_vars):
    sigs = [Signature.of(*"pqr"[:n]) for n in range(max_vars + 1)]
    for s1, s2 in itertools.product(sigs, sigs):
        for table in itertools.product(range(s2.size), repeat=s1.size):
            yield SignatureMorphism(s1, s2, FinFunction(s1.vars, s2.vars, table))


def parallel_pairs(rng, count):
    pairs = []
    for p in seeded_preorders(rng, count, 3):
        maps = list(all_monotone_maps(p, rng.choice(seeded_preorders(rng, 3, 3))))
        pairs.append((rng.choice(maps), rng.choice(maps)))
    return pairs


def lattice_points(rng, count):
    return [(lat, rng.randrange(lat.size)) for lat in seeded_lattices(rng, count)]


# builder name -> (seeded inputs, builder); each input is a tuple of arguments
BUILDERS = {
    "quotient": (lambda rng: [(p,) for p in seeded_preorders(rng, 30, 6)], order.quotient),
    "product": (lambda rng: [tuple(seeded_preorders(rng, 2, 3)) for _ in range(15)],
                order.product),
    "equalizer": (lambda rng: parallel_pairs(rng, 20), order.equalizer),
    "Preorder.chain": (lambda rng: [tuple(f"x{i}" for i in range(n)) for n in range(5)],
                       order.Preorder.chain),
    "Preorder.from_pairs": (lambda rng: seeded_pair_lists(rng, 30, 6), order.Preorder.from_pairs),
    "Preorder.discrete": (lambda rng: [(carrier("d", n),) for n in range(5)],
                          order.Preorder.discrete),
    "Poset.discrete": (lambda rng: [(carrier("d", n),) for n in range(5)], Poset.discrete),
    "terminal": (lambda rng: [()], order.terminal),
    "MonotoneMap.identity": (lambda rng: [(p,) for p in seeded_preorders(rng, 10)],
                             MonotoneMap.identity),
    "_all_preorders": (lambda rng: [(3,)], lambda n: list(order._all_preorders(n))),
    "involution": (lambda rng: [(g,) for g in seeded_adjunctions(20, 15)], galois.involution),
    "upset_reflection": (lambda rng: lattice_points(rng, 20), galois.upset_reflection),
    "downset_coreflection": (lambda rng: lattice_points(rng, 20), galois.downset_coreflection),
    "bimodule_of_map": (lambda rng: [(f, d) for f in seeded_maps(rng, 15)
                                     for d in ("forward", "reverse")], order.bimodule_of_map),
    "bimodule_01_embedding": (
        lambda rng: [(order.bimodule_of_map(f, "forward"),)
                     for f in seeded_maps(rng, 15, lattice_targets=True)],
        order.bimodule_01_embedding),
    "bimodule_10_embedding": (
        lambda rng: [(order.bimodule_of_map(f, "reverse"),)
                     for f in seeded_maps(rng, 15, lattice_targets=True)],
        order.bimodule_10_embedding),
    "derivation_square": (lambda rng: [(f,) for f in seeded_infomorphisms(rng, 15)],
                          clg.derivation_square),
    "fiber_transport_adjunction": (lambda rng: [(s,) for s in morphisms_up_to(2)],
                                   institution.fiber_transport_adjunction),
}


@pytest.fixture
def validations(monkeypatch):
    """Calls of the validating checks, by name, while the fixture is live."""
    calls = []
    classify = order.classify_endorelation
    post_init = MonotoneMap.__post_init__
    bimodule_post_init = order.OrderBimodule.__post_init__
    check = galois.check_adjunction

    def counting_classify(r):
        calls.append("classify_endorelation")
        return classify(r)

    def counting_post_init(self):
        calls.append("MonotoneMap.__post_init__")
        post_init(self)

    def counting_bimodule_post_init(self):
        calls.append("OrderBimodule.__post_init__")
        bimodule_post_init(self)

    def counting_check(left, right):
        calls.append("check_adjunction")
        return check(left, right)

    monkeypatch.setattr(order, "classify_endorelation", counting_classify)
    monkeypatch.setattr(MonotoneMap, "__post_init__", counting_post_init)
    monkeypatch.setattr(order.OrderBimodule, "__post_init__", counting_bimodule_post_init)
    for module in (galois, clg, clsn, institution):
        if hasattr(module, "check_adjunction"):
            monkeypatch.setattr(module, "check_adjunction", counting_check)
    return calls


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_derived_builders_run_no_validation(name, validations):
    make_inputs, build = BUILDERS[name]
    inputs = make_inputs(random.Random(sum(map(ord, name))))
    assert inputs
    validations.clear()
    for args in inputs:
        build(*args)
    assert validations == []


def rebuilt_adjunction(adj):
    """The adjunction rebuilt by the public constructors, orders included."""
    for p in (adj.source, adj.target):
        assert rebuilt_order(p) == p
    for f in (adj.left, adj.right):
        assert rebuilt_map(f) == f
    return check_adjunction(rebuilt_map(adj.left), rebuilt_map(adj.right))


def rebuilt_parts(value):
    """Every order, map, bimodule and adjunction in a builder's result equals its rebuild."""
    if isinstance(value, (tuple, list)):
        for part in value:
            rebuilt_parts(part)
    elif isinstance(value, order.OrderProduct):
        rebuilt_parts((value.order, value.proj0, value.proj1))
    elif isinstance(value, galois.Adjunction):
        assert rebuilt_adjunction(value) is not None
    elif isinstance(value, MonotoneMap):
        assert rebuilt_map(value) == value
    elif isinstance(value, order.OrderBimodule):
        rebuilt = order.OrderBimodule(rebuilt_order(value.source), rebuilt_order(value.target),
                                      value.rel)
        assert rebuilt == value
    else:
        assert isinstance(value, order.Preorder)
        assert rebuilt_order(value) == value


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_derived_values_equal_their_rebuild_by_the_public_constructors(name):
    make_inputs, build = BUILDERS[name]
    for args in make_inputs(random.Random(sum(map(ord, name)))):
        rebuilt_parts(build(*args))


def test_all_preorders_up_to_three_are_every_reflexive_transitive_relation():
    orders = list(order._all_preorders(3))
    assert [p.size for p in orders].count(3) == 29
    assert len(orders) == 1 + 1 + 4 + 29
    assert all(order.classify_endorelation(p.leq).transitive for p in orders)


def test_product_and_quotient_match_the_loops_they_replaced():
    rng = random.Random(16)
    for p, q in (seeded_preorders(rng, 2, 4) for _ in range(40)):
        m = q.size
        rows = []
        for prow in p.leq.rows:
            for qrow in q.leq.rows:
                rows.append(sum(1 << (i2 * m + j2) for i2 in range(p.size) if prow >> i2 & 1
                                for j2 in range(m) if qrow >> j2 & 1))
        assert order.product(p, q).order.leq.rows == tuple(rows)
    for p in seeded_preorders(rng, 60, 7):
        equiv = [row & col for row, col in zip(p.leq.rows, p.leq.columns)]
        rep_of, reps = {}, []
        for i in range(p.size):
            if i not in rep_of:
                reps.append(i)
                rep_of.update((j, len(reps) - 1) for j in range(i, p.size) if equiv[i] >> j & 1)
        q, canon = order.quotient(p)
        assert q.carrier.elements == tuple("{" + p.carrier.elements[r] + "}" for r in reps)
        assert canon.func.table == tuple(rep_of[i] for i in range(p.size))


def test_derivation_square_tables_equal_the_per_subset_loops():
    for f in seeded_infomorphisms(random.Random(17), 40):
        _, _, dir_inst, inv_typ = clg.derivation_square(f)
        inst, typ = f.inst_map, f.typ_map
        assert dir_inst.left.func.table == tuple(
            image_bits_loop(inst, x) for x in range(1 << inst.source.size))
        assert dir_inst.right.func.table == tuple(
            preimage_bits_loop(inst, x) for x in range(1 << inst.target.size))
        assert inv_typ.left.func.table == tuple(
            preimage_bits_loop(typ, y) for y in range(1 << typ.target.size))
        assert inv_typ.right.func.table == tuple(
            image_bits_loop(typ, y) for y in range(1 << typ.source.size))


def test_fiber_transport_tables_equal_the_per_subset_loops():
    for sigma in morphisms_up_to(2):
        adj = institution.fiber_transport_adjunction(sigma)
        r = institution.PropositionalInstitution().reduct_function(sigma)
        assert adj.left.func.table == tuple(
            preimage_bits_loop(r, mask) for mask in range(1 << r.target.size))
        assert adj.right.func.table == tuple(
            image_bits_loop(r, mask) for mask in range(1 << r.source.size))


def test_image_tables_and_preimage_bits_equal_the_loops_on_every_small_function():
    for n, m in itertools.product(range(4), range(4)):
        for table in itertools.product(range(m), repeat=n):
            f = FinFunction(carrier("a", n), carrier("b", m), table)
            images, preimages = image_tables(f)
            assert images == [image_bits_loop(f, x) for x in range(1 << n)]
            assert preimages == [preimage_bits_loop(f, y) for y in range(1 << m)]
            assert [preimage_bits(f, y) for y in range(1 << m)] == preimages


def comprehension_image_tables(f):
    """The earlier ``image_tables``: one ``image_bits`` per source bitmask and
    one batched preimage of every target bitmask."""
    return ([image_bits(f, x) for x in range(1 << f.source.size)],
            preimage_rows(f, range(1 << f.target.size)))


def test_image_tables_equal_the_per_subset_comprehension():
    """Every function between carriers of up to 3 elements, then seeded ones
    of up to 8."""
    functions = [FinFunction(carrier("a", n), carrier("b", m), table)
                 for n, m in itertools.product(range(4), range(4))
                 for table in itertools.product(range(m), repeat=n)]
    rng = random.Random(1808)
    for _ in range(80):
        n, m = rng.randint(0, 8), rng.randint(1, 8)
        functions.append(FinFunction(carrier("a", n), carrier("b", m),
                                     tuple(rng.randrange(m) for _ in range(n))))
    for f in functions:
        assert image_tables(f) == comprehension_image_tables(f)


def test_rejections_survive_the_unchecked_builds():
    v = carrier("v", 3)  # the V shape: v1 and v2 above v0, with no join
    vee = Poset(v, Relation(v, v, (0b111, 0b010, 0b100)))
    with pytest.raises(ValueError, match="join with the base element does not exist"):
        galois.upset_reflection(vee, 1)
    wedge = opposite(vee)
    with pytest.raises(ValueError, match="meet with the base element does not exist"):
        galois.downset_coreflection(wedge, 1)
    one = order.Preorder.discrete(carrier("o", 1))
    with pytest.raises(ValueError, match="no meet"):  # the empty row: vee has no top
        order.bimodule_01_embedding(order.OrderBimodule(one, vee, Relation(one.carrier, v, (0,))))
    with pytest.raises(ValueError, match="no join"):  # the empty column: wedge has no bottom
        order.bimodule_10_embedding(order.OrderBimodule(wedge, one, Relation(v, one.carrier, (0,) * 3)))
    f = MonotoneMap.identity(vee)
    chain = order.Preorder.chain("a", "b")
    g = MonotoneMap.identity(chain)
    with pytest.raises(CarrierMismatchError, match="parallel pair"):
        order.equalizer(f, g)
    with pytest.raises(ValueError, match="not antisymmetric"):
        Poset.from_pairs(carrier("e", 2), [("e0", "e1"), ("e1", "e0")])


def rebuilt_value(v):
    """A finrel kernel's result rebuilt by its public constructor, after the
    checks of the fields that constructor would make."""
    if isinstance(v, Relation):
        assert type(v.rows) is tuple and len(v.rows) == v.source.size
        assert all(type(row) is int and 0 <= row <= v.target.full_mask for row in v.rows)
        return Relation(v.source, v.target, v.rows)
    if isinstance(v, Subset):
        assert type(v.bits) is int and 0 <= v.bits <= v.carrier.full_mask
        return Subset(v.carrier, v.bits)
    assert type(v.table) is tuple and len(v.table) == v.source.size
    assert all(type(t) is int and 0 <= t < v.target.size for t in v.table)
    return FinFunction(v.source, v.target, v.table)


def kernel_results(rng):
    """One result of every finrel kernel that builds unchecked, on seeded inputs."""
    a, b, c = (carrier(p, rng.randint(0, 4)) for p in "abc")

    def rel(s, t):
        return Relation(s, t, tuple(rng.getrandbits(t.size) for _ in range(s.size)))

    def func(s, t):
        return FinFunction(s, t, tuple(rng.randrange(t.size) for _ in range(s.size)))

    def sub(s):
        return Subset(s, rng.getrandbits(s.size))

    r, r2, s_bc, t_ac = rel(a, b), rel(a, b), rel(b, c), rel(a, c)
    x, x2, y = sub(a), sub(a), sub(b)
    results = [compose(r, s_bc), transpose(r), residuate_left(r, t_ac), residuate_right(s_bc, t_ac),
               r.union(r2), r.intersection(r2), r.complement(),
               x.union(x2), x.intersection(x2), x.implies(x2), x.complement(),
               derive_forward(r, x), derive_reverse(r, y), *(r.fiber10(j) for j in range(b.size))]
    if b.size or not a.size:  # a function a -> b exists
        f = func(a, b)
        existential, inverse, universal = images(f)
        results += [f.as_relation(), existential(sub(a)), inverse(sub(b)), universal(sub(a))]
        if c.size or not b.size:
            results.append(f.then(func(b, c)))
    return results


def test_finrel_kernel_results_equal_and_hash_like_their_public_rebuilds():
    rng = random.Random(17)
    for _ in range(300):
        for v in kernel_results(rng):
            rebuilt = rebuilt_value(v)
            assert rebuilt == v and v == rebuilt
            assert hash(rebuilt) == hash(v)
            assert type(rebuilt) is type(v)


def test_trusted_relations_keep_their_columns_and_inclusion():
    rng = random.Random(5)
    for _ in range(100):
        a, b = carrier("a", rng.randint(1, 4)), carrier("b", rng.randint(1, 4))
        r = Relation(a, b, tuple(rng.getrandbits(b.size) for _ in range(a.size)))
        assert transpose(transpose(r)) == r
        assert transpose(r).columns == r.rows
        assert r.intersection(r.complement()) <= r <= r.union(r.complement())


def test_public_constructors_still_reject_invalid_fields():
    a, b = carrier("a", 2), carrier("b", 3)
    with pytest.raises(ValueError, match="row has bits outside the target carrier"):
        Relation(a, b, (0, 0b1000))
    with pytest.raises(ValueError, match="row has bits outside the target carrier"):
        Relation(a, b, (-1, 0))
    with pytest.raises(ValueError, match="row count differs from source size"):
        Relation(a, b, (0,))
    with pytest.raises(ValueError, match="bitset 0x4 out of range for carrier of size 2"):
        Subset(a, a.full_mask + 1)
    with pytest.raises(ValueError, match="out of range"):
        Subset(a, -1)
    with pytest.raises(ValueError, match="table entry 3 is not a valid target index"):
        FinFunction(a, b, (0, 3))
    with pytest.raises(ValueError, match="table entry -1 is not a valid target index"):
        FinFunction(a, b, (-1, 0))
    with pytest.raises(ValueError, match="table length differs from source size"):
        FinFunction(a, b, (0,))
    assert Relation(a, b, [1, 2]).rows == (1, 2)
    assert FinFunction(a, b, [2, 1]).table == (2, 1)


def test_monotone_maps_of_one_verify_run_equal_their_validated_rebuilds(monkeypatch):
    """``order._monotone`` builds its function unchecked too.  Every map it
    builds in one ``verify --suite all`` (seed 0, 100 cases) equals, and
    hashes like, its rebuild through the validating constructors."""
    built = []
    monotone = order._monotone

    def recording(source, target, table):
        built.append(monotone(source, target, table))
        return built[-1]

    for module in (order, clg, clsn, galois, institution):
        monkeypatch.setattr(module, "_monotone", recording)
    assert all(report.ok for report in verify.run_suite("all", 0, 100))
    assert len(built) > 1000
    for f in built:
        table = f.func.table
        assert type(table) is tuple and all(type(t) is int for t in table)
        rebuilt = MonotoneMap(f.source, f.target,
                              FinFunction(f.source.carrier, f.target.carrier, table))
        assert rebuilt == f and hash(rebuilt) == hash(f)
