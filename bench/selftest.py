"""Self-test of the benchmark: wrong results, overruns and lost names are caught.

Run as ``python3 bench/run.py --self-test``; exits 0 when every check holds.
"""

import random
import shutil

import oracle
from harness import Runner
from layers import TARGETS
from tracer import Target, Tracer
from workloads import Institution, LatticePower, LatticeWide


def _oracle_known_answers():
    # The contranominal scale of size 3 has all 8 subsets as extents and
    # the 12 edges of a cube as covers.
    rows = [0b110, 0b101, 0b011]
    found = oracle.concepts(rows, 3)
    yield "contranominal-3 has 8 concepts", len(found) == 8
    yield "contranominal-3 has 12 covers", len(oracle.covers([e for e, _ in found], 3)) == 12
    # Nested object intents give a chain: 3 concepts, 2 covers.
    chain = oracle.concepts([0b001, 0b011, 0b111], 3)
    yield "nested intents give a 3-chain", \
        len(chain) == 3 and oracle.covers([e for e, _ in chain], 3) == [(0, 1), (1, 2)]
    yield "1 variable has 3 sentence types at depth 1", oracle.sentence_types(1, 1) == 3
    yield "2 variables reach all 16 truth tables by depth 4", oracle.sentence_types(2, 4) == 16
    yield "the fundamental condition finds a flipped cell", \
        oracle.first_witness([0b01], [0b10], [0], [0], 1) == (0, 0)


def _first_op(workload, seed, kind=None):
    ops = workload.make_ops(random.Random(seed), len(workload.cycle))
    ops = [op for op in ops if kind is None or op.get("kind") == kind]
    workload.workdir.mkdir(parents=True, exist_ok=True)
    workload.write_inputs(ops)
    return ops


def _counts_as_failed(workload, lib, ops, corrupt, status):
    runner = Runner(workload, lib, ops, 1)
    clean = runner.run(0)
    runner.run(0, corrupt=corrupt)
    return clean and runner.failures == {status: 1}


def _drop_last_edge(result):
    concepts, poset_concepts, edges = result
    return concepts, poset_concepts, list(edges)[:-1]


def _flip_verdict(result):
    code, out, err = result
    flipped = out.replace("infomorphism: valid", "infomorphism: INVALID, first witness pair (h0, m0)")
    return 1 - code, flipped.replace(": ok", ": FAILED"), err


def main(import_library, workdir):
    checks = list(_oracle_known_answers())
    lib = import_library()
    try:
        wide = LatticeWide(workdir)
        checks.append(("a dropped cover edge is a failed op",
                       _counts_as_failed(wide, lib, _first_op(wide, 0), _drop_last_edge,
                                         "mismatch")))
        inst = Institution(workdir)
        valid = _first_op(inst, 0, kind="infomap")
        valid = [op for op in valid if oracle.first_witness(
            op["a"][2], op["b"][2], op["inst_map"], op["typ_map"], len(op["a"][1])) is None]
        checks.append(("a flipped infomap verdict is a failed op",
                       _counts_as_failed(inst, lib, valid, _flip_verdict, "mismatch")))

        power = LatticePower(workdir)
        power.budget_s = 0.001
        runner = Runner(power, lib, _first_op(power, 0)[-1:], 1)
        runner.run(0)
        checks.append(("an op over its time budget is a timeout failure",
                       runner.failures == {"timeout": 1}))

        checks.extend(_tracer_checks(lib, wide))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


def _tracer_checks(lib, wide):
    original = lib.order.hasse_edges
    missing = [Target("order", "no_such_function", "x"), Target("nomodule", "f", "y"),
               Target("order", "NoSuchClass.method", "z")]
    tracer = Tracer(TARGETS + missing)
    tracer.install()
    try:
        wrapped = lib.order.hasse_edges is not original
        runner = Runner(wide, lib, _first_op(wide, 1), 1, tracer=tracer)
        traced_ok = runner.run(0)
    finally:
        tracer.uninstall()
    return [
        ("the tracer wraps public names", wrapped),
        ("vanished names are reported absent",
         tracer.absent == ["order.no_such_function", "nomodule.f", "order.NoSuchClass.method"]),
        ("a traced op still checks correct", traced_ok),
        ("the traced op recorded cover edges",
         tracer.groups["order.hasse_edges"].counters.get("edges", 0) > 0),
        ("uninstall restores the library", lib.order.hasse_edges is original
         and lib.clg.concepts_of is tracer.originals["clg.concepts_of"]),
    ]
