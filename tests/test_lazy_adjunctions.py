"""Concept lattices without power orders: lazy adjunctions and the one size setting."""

import dataclasses
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import conceptua.clg as clg
import conceptua.clsn as clsn
from conceptua.cli import main
from conceptua.clg import (
    ConceptLattice,
    FormalConcept,
    concept_lattice,
    concept_lattice_from_parts,
    lattice_roundtrip_iso,
    lattice_to_dot,
    lattice_to_json,
    validate_concept_lattice,
)
from conceptua.clsn import Classification
from conceptua.errors import NotAConceptLatticeError
from conceptua.finrel import FinFunction, FinSet, Relation, Subset
from conceptua.order import Poset

SRC = Path(__file__).resolve().parents[1] / "src"

# The child runs the CLI and reports its own peak RSS (KB) last on stdout.  It
# reads VmHWM, the peak of its own address space: ru_maxrss starts at the RSS of
# the process that spawned it, so it would count the test runner too.
CHILD = ("import sys\n"
         "from conceptua.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "with open('/proc/self/status') as status:\n"
         "    print(next(int(line.split()[1]) for line in status if line.startswith('VmHWM:')))\n"
         "sys.exit(code)\n")


def carrier(prefix, n):
    return FinSet(tuple(f"{prefix}{i}" for i in range(n)))


def cxt_text(rows, n_obj, n_att):
    lines = ["B", "", str(n_obj), str(n_att), ""]
    lines += [f"g{i}" for i in range(n_obj)] + [f"m{j}" for j in range(n_att)]
    lines += ["".join("X" if row >> j & 1 else "." for j in range(n_att)) for row in rows]
    return "\n".join(lines) + "\n"


def random_rows(n, density, seed):
    rng = random.Random(seed)
    return [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]


def contranominal_rows(n):
    return [((1 << n) - 1) & ~(1 << i) for i in range(n)]


def context(rows, n_obj, n_att):
    inst, typ = carrier("g", n_obj), carrier("m", n_att)
    return Classification(inst, typ, Relation(inst, typ, tuple(rows)))


def run_child(path, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "CONCEPTUA_MAX_CARRIER"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, "lattice", str(path), "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env, timeout=120)
    lines = proc.stdout.split()
    return proc.returncode, int(lines[-1]) / 1024, proc.stdout, proc.stderr


@pytest.mark.parametrize("name, rows, n, limit_mb", [
    ("random-18", random_rows(18, 0.3, 18), 18, 100),
    ("random-21", random_rows(21, 0.3, 21), 21, 100),
    ("random-40", random_rows(40, 0.3, 40), 40, 100),
    ("contranominal-14", contranominal_rows(14), 14, 200),
])
def test_cli_lattice_peak_rss_in_a_child(tmp_path, name, rows, n, limit_mb):
    path = tmp_path / f"{name}.cxt"
    path.write_text(cxt_text(rows, n, n))
    code, peak_mb, stdout, stderr = run_child(path, tmp_path)
    assert code == 0, stderr
    assert peak_mb < limit_mb
    assert stdout.startswith(f"{len(clg.concepts_of(context(rows, n, n)))} concepts\n")


# The child builds the contranominal-14 concept order, then its covers, and
# reports its peak RSS (KB) before, between and after.  It reads VmHWM, the
# peak of its own address space: ru_maxrss starts at the parent's RSS when
# the child is spawned, which would hide the baseline.
HASSE_CHILD = (
    "from conceptua.clg import concept_poset\n"
    "from conceptua.clsn import Classification\n"
    "from conceptua.finrel import FinSet, Relation\n"
    "from conceptua.order import hasse_edges\n"
    "def peak():\n"
    "    with open('/proc/self/status') as status:\n"
    "        return next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
    "c = FinSet(tuple(f'e{i}' for i in range(14)))\n"
    "a = Classification(c, c, Relation(c, c, tuple(0x3fff & ~(1 << i) for i in range(14))))\n"
    "base = peak()\n"
    "poset, _ = concept_poset(a)\n"
    "ordered = peak()\n"
    "edges = hasse_edges(poset)\n"
    "print(base, ordered, peak(), len(edges))\n")


def test_covers_of_a_concept_order_hold_no_second_copy_of_it():
    """The 2^14 x 2^14-bit order dominates; its covers add less than half of it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", HASSE_CHILD], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    base, ordered, covered, edges = map(int, proc.stdout.split())
    assert edges == 14 << 13
    assert covered - ordered < (ordered - base) / 2


def test_contranominal_17_trips_the_default_bound_before_the_concept_order(tmp_path):
    """2^17 concepts pass the default bound of 16.  The closure stops after
    the pass that first holds more than 2^16 closed sets (the last one, at
    2^17), before any derivation: 0.14-0.19 s and 33 MB on a 2-vCPU VM."""
    path = tmp_path / "contranominal-17.cxt"
    path.write_text(cxt_text(contranominal_rows(17), 17, 17))
    start = time.perf_counter()
    code, peak_mb, _, stderr = run_child(path, tmp_path)
    seconds = time.perf_counter() - start
    assert code == 3
    assert stderr == (
        "size limit: concept enumeration passed 2^16 = 65536 concepts, whose order takes "
        "2^32 bits (512 MiB); set CONCEPTUA_MAX_CARRIER to raise the bound\n")
    assert seconds < 5
    assert peak_mb < 100


def test_contranominal_30_exits_3_within_budget(tmp_path, capsys, monkeypatch, time_budget):
    monkeypatch.setenv("CONCEPTUA_MAX_CARRIER", "10")
    path = tmp_path / "contranominal-30.cxt"
    path.write_text(cxt_text(contranominal_rows(30), 30, 30))
    with time_budget(5):
        code = main(["lattice", str(path), "--out", str(tmp_path / "out.json")])
    assert code == 3
    assert "2^10 = 1024 concepts" in capsys.readouterr().err


@pytest.mark.parametrize("rows, n, bound, code", [
    ([0b1], 1, "0", 0),                      # one concept: 2^0
    (contranominal_rows(2), 2, "2", 0),      # four concepts: 2^2
    ([0b001, 0b010, 0b100], 3, "2", 3),      # nominal-3 has five concepts
])
def test_concept_count_bound_is_exact(tmp_path, capsys, monkeypatch, rows, n, bound, code):
    monkeypatch.setenv("CONCEPTUA_MAX_CARRIER", bound)
    path = tmp_path / "c.cxt"
    path.write_text(cxt_text(rows, n, n))
    assert main(["lattice", str(path), "--out", str(tmp_path / "out.json")]) == code


@pytest.mark.parametrize("value", ["abc", "-1", "", "1.5"])
def test_malformed_carrier_bound_exits_2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("CONCEPTUA_MAX_CARRIER", value)
    path = tmp_path / "c.cxt"
    path.write_text(cxt_text(contranominal_rows(2), 2, 2))
    assert main(["lattice", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "CONCEPTUA_MAX_CARRIER" in err


def test_serialization_builds_no_power_order_and_first_read_builds_them_once(monkeypatch):
    calls = []
    real = clsn.power_order

    def counting(a, reverse=False):
        calls.append(a.size)
        return real(a, reverse=reverse)

    monkeypatch.setattr(clsn, "power_order", counting)
    lat = concept_lattice(context(random_rows(8, 0.4, 5), 8, 8))
    lattice_to_json(lat)
    lattice_to_dot(lat)
    assert calls == []
    first = lat.extent_reflection
    assert calls == [8, 8]
    assert lat.intent_coreflection.target.size == 1 << 8
    assert lat.extent_reflection is first
    assert calls == [8, 8]


# ------------------------------------------------------------ raw lattices


def nominal_2_parts():
    """Nominal-2 as a hand-built diamond: c0 bottom, c1 and c2 the atoms, c3 top."""
    inst, typ = carrier("i", 2), carrier("t", 2)
    labels = carrier("c", 4)
    lattice = Poset(labels, Relation(labels, labels, (0b1111, 0b1010, 0b1100, 0b1000)))
    concepts = tuple(FormalConcept(Subset(inst, e), Subset(typ, t))
                     for e, t in ((0b00, 0b11), (0b01, 0b01), (0b10, 0b10), (0b11, 0b00)))
    return dict(instances=inst, types=typ, lattice=lattice, concepts=concepts,
                iota_embed=FinFunction(inst, labels, (1, 2)),
                tau_embed=FinFunction(typ, labels, (1, 2)))


def test_nominal_2_parts_are_a_concept_lattice():
    lat = concept_lattice_from_parts(**nominal_2_parts())
    assert lattice_roundtrip_iso(lat).forward.table == (0, 2, 1, 3)  # lectic: {i1} after {i2}


def test_order_other_than_extent_inclusion_is_reported():
    parts = nominal_2_parts()
    labels = parts["lattice"].carrier
    parts["lattice"] = Poset(labels, Relation(labels, labels, (0b1111, 0b1110, 0b1100, 0b1000)))
    raw = ConceptLattice(**parts)
    assert validate_concept_lattice(raw) == ["concept order is not extent inclusion"]
    with pytest.raises(NotAConceptLatticeError, match="extent inclusion"):
        raw.extent_reflection
    with pytest.raises(NotAConceptLatticeError):
        lattice_roundtrip_iso(raw)
    with pytest.raises(NotAConceptLatticeError):
        concept_lattice_from_parts(**parts)


@pytest.fixture
def power_order_calls(monkeypatch):
    """Carrier sizes of the power orders that ``derivation`` builds while the test runs."""
    calls = []
    real = clsn.power_order

    def counting(a, reverse=False):
        calls.append(a.size)
        return real(a, reverse=reverse)

    monkeypatch.setattr(clsn, "power_order", counting)
    return calls


def test_order_is_checked_before_any_power_order_is_built(power_order_calls):
    lat = concept_lattice(context(random_rows(8, 0.4, 5), 8, 8))
    raw = dataclasses.replace(lat, lattice=Poset.discrete(lat.lattice.carrier))
    assert validate_concept_lattice(raw) == ["concept order is not extent inclusion"]
    assert power_order_calls == []


def test_missing_closed_extent_is_reported():
    """Without the bottom, the extent {} of both types together is not listed."""
    parts = nominal_2_parts()
    labels = carrier("c", 3)
    parts["lattice"] = Poset(labels, Relation(labels, labels, (0b101, 0b110, 0b100)))
    parts["concepts"] = parts["concepts"][1:]
    parts["iota_embed"] = FinFunction(parts["instances"], labels, (0, 1))
    parts["tau_embed"] = FinFunction(parts["types"], labels, (0, 1))
    raw = ConceptLattice(**parts)
    assert validate_concept_lattice(raw) == ["closed extent {} is not a listed concept"]
    with pytest.raises(NotAConceptLatticeError):
        lattice_roundtrip_iso(raw)


def test_wrong_listed_intent_fails_only_the_bipole_condition():
    """Both types hold only g0: {m0} has the extent {g0} but is not its intent, and only
    the bipole check reads listed intents."""
    lat = concept_lattice(context([0b11, 0b00], 2, 2))
    concepts = [c if c.extent.bits != 0b01 else FormalConcept(c.extent, Subset(lat.types, 0b01))
                for c in lat.concepts]
    raw = dataclasses.replace(lat, concepts=tuple(concepts))
    assert validate_concept_lattice(raw) == ["bipole condition fails for {g0}|{m0}"]


def test_listed_extent_that_is_not_closed_fails_the_bipole_condition():
    """Both instances have the one type, so {i0} is not closed although its intent is right."""
    inst, typ = carrier("i", 2), carrier("t", 1)
    labels = carrier("c", 2)
    raw = ConceptLattice(
        inst, typ, Poset(labels, Relation(labels, labels, (0b11, 0b10))),
        (FormalConcept(Subset(inst, 0b01), Subset(typ, 0b1)),
         FormalConcept(Subset(inst, 0b11), Subset(typ, 0b1))),
        FinFunction(inst, labels, (0, 1)), FinFunction(typ, labels, (1,)))
    failures = validate_concept_lattice(raw)
    assert "extent adjunction is not a reflection" in failures
    assert failures[-1] == "bipole condition fails for {i0}|{t0}"


# ------------------------------------------------- validation by the basic theorem


def test_validation_builds_no_power_order_on_a_valid_lattice(power_order_calls, monkeypatch):
    """Nor does it run the complete-lattice or density checks: both follow."""
    skipped = []
    for name in ("is_complete_lattice", "_check_density"):
        real = getattr(clg, name)
        monkeypatch.setattr(clg, name, lambda x, name=name, real=real:
                            skipped.append(name) or real(x))
    lat = concept_lattice(context(random_rows(8, 0.4, 5), 8, 8))
    assert validate_concept_lattice(lat) == []
    assert lattice_roundtrip_iso(lat).forward.table == tuple(range(lat.size))
    parts = {f.name: getattr(lat, f.name) for f in dataclasses.fields(lat)}
    assert concept_lattice_from_parts(**parts) == lat
    assert power_order_calls == [] and skipped == []


def test_17x12_context_round_trips_past_the_carrier_bound():
    a = context([row & 0xfff for row in random_rows(17, 0.3, 17)], 17, 12)
    lat = concept_lattice(a)
    parts = {f.name: getattr(lat, f.name) for f in dataclasses.fields(lat)}
    rebuilt = concept_lattice_from_parts(**parts)
    assert lattice_roundtrip_iso(rebuilt).forward.table == tuple(range(lat.size))
    assert clg.classification_of(rebuilt) == a


@pytest.mark.parametrize("rows, n", [(contranominal_rows(12), 12),
                                     (random_rows(40, 0.3, 414), 40)])
def test_large_lattices_validate_within_budget(time_budget, rows, n):
    lat = concept_lattice(context(rows, n, n))
    with time_budget(2):
        assert validate_concept_lattice(lat) == []


# The child validates the concept lattice of a random 16 x 16 context and
# reports its own peak RSS (KB), read from VmHWM as in CHILD.
VALIDATE_CHILD = (
    "import random\n"
    "from conceptua.clg import concept_lattice, validate_concept_lattice\n"
    "from conceptua.clsn import Classification\n"
    "from conceptua.finrel import FinSet, Relation\n"
    "rng = random.Random(5)\n"
    "c = FinSet(tuple(f'e{i}' for i in range(16)))\n"
    "rows = tuple(sum(1 << j for j in range(16) if rng.random() < 0.4) for _ in range(16))\n"
    "assert validate_concept_lattice(concept_lattice(Classification(c, c, Relation(c, c, rows)))) == []\n"
    "with open('/proc/self/status') as status:\n"
    "    print(next(int(line.split()[1]) for line in status if line.startswith('VmHWM:')))\n")


def test_random_16x16_validates_in_a_child_under_50_mb():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", VALIDATE_CHILD], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) / 1024 < 50
