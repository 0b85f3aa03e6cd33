"""conceptua benchmark: four seeded workloads, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload lattice-power --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20     # one process per workload
    python3 bench/run.py --self-test

A run imports the library from ``src/``, builds its inputs from the seed,
and runs ops back to back, each checked against ``oracle``. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See bench/README.md.
"""

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import Runner, reference_speed
from layers import CACHED, PER_LAYER, TARGETS, largest_self_time, per_layer_values
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LAYERS = ("cli", "io", "finrel", "order", "galois", "clsn", "clg", "institution", "verify")

OPS = 105            # ops per pass: 15 cycles of 7 slots, 21 of 5
MIN_PASSES = 3       # a timed run makes at least this many passes
MAX_RUN_S = 120.0    # and starts none after this, so it ends within 180 s
SETUPS = 5           # setup_s is the median of this many set-ups

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def forget_library():
    for name in [m for m in sys.modules if m == "conceptua" or m.startswith("conceptua.")]:
        del sys.modules[name]


def import_library():
    """Import every layer afresh from src/, so each set-up pays for imports."""
    forget_library()
    lib = argparse.Namespace(**{name: importlib.import_module(f"conceptua.{name}") for name in LAYERS})
    if SRC not in Path(lib.cli.__file__).resolve().parents:
        raise ImportError(f"conceptua was imported from {lib.cli.__file__}, not from {SRC}")
    return lib


def set_up(workload, seed):
    """Import, generate the seeded ops, write their input files and warm up.

    Returns the library, the ops and the set-up time at the reference speed.
    """
    # Free the previous set-up's library first, so that each set-up starts
    # from the same heap.
    forget_library()
    gc.collect()
    speed = reference_speed()
    start = time.perf_counter()
    lib = import_library()
    ops = workload.make_ops(random.Random(seed), OPS)
    shutil.rmtree(workload.workdir, ignore_errors=True)
    workload.workdir.mkdir(parents=True)
    workload.write_inputs(ops)
    workload.warm_up(lib, ops)
    return lib, ops, (time.perf_counter() - start) * speed


def timed_run(workload, seed, seconds):
    """SETUPS set-ups, then passes over the same ops for at least ``seconds``.

    Passes start until ``seconds`` have gone by, so the last one ends up to
    one pass later. Returns the runner and the set-up times.
    """
    setups = []
    for _ in range(SETUPS):
        lib, ops, setup_s = set_up(workload, seed)
        setups.append(setup_s)
    runner = Runner(workload, lib, ops, OPS)
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < min(seconds, MAX_RUN_S):
        for index in range(OPS):
            runner.run(index)
        passes += 1
    return runner, setups


def traced_run(workload, seed):
    """One pass untraced, then the same ops traced."""
    lib, ops, _setup_s = set_up(workload, seed)
    untraced = Runner(workload, lib, ops, OPS)
    for index in range(OPS):
        untraced.run(index)
    tracer = Tracer(TARGETS)
    tracer.install()
    try:
        before = {prefix: _cache_info(tracer, name) for prefix, name in CACHED.items()}
        traced = Runner(workload, lib, ops, OPS, tracer=tracer)
        for index in range(OPS):
            traced.run(index)
        after = {prefix: _cache_info(tracer, name) for prefix, name in CACHED.items()}
    finally:
        tracer.uninstall()
    deltas = {prefix: (after[prefix][0] - before[prefix][0], after[prefix][1] - before[prefix][1])
              for prefix in CACHED}
    overhead = sum(traced.seconds) / sum(untraced.seconds)
    return untraced, traced, tracer, per_layer_values(tracer, deltas, overhead)


def _cache_info(tracer, name):
    """(hits, misses) of an lru-cached library function; (0, 0) if it has no cache."""
    info = getattr(tracer.originals.get(name), "cache_info", None)
    if info is None:
        return 0, 0
    stats = info()
    return stats.hits, stats.misses


def run_workload(args):
    workload = WORKLOADS[args.workload](OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        if args.trace:
            return report_traced(args, *traced_run(workload, args.seed))
        runner, setups = timed_run(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    values = runner.end_to_end()
    unscaled = runner.end_to_end(scaled=False)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = runner.attempted
    print(f"workload {args.workload} seed {args.seed}: {n // OPS} passes of {OPS} ops, "
          f"{n} ops in {sum(runner.seconds):.2f} s of op time "
          f"({n / sum(runner.seconds):.3f} ops/s over all passes)")
    print(f"fail_ratio {runner.failed / n:g} ({runner.failed}/{n} failed {runner.failures or ''}); "
          f"percentiles over the fastest pass of {OPS} ops, {OPS - int(0.9 * OPS)} beyond p90")
    if runner.first_problem:
        print(f"first failure: {runner.first_problem}")
    print("unscaled: " + ", ".join(f"{name} {value:.4f}" for name, value in unscaled.items())
          + f"; median reference loop {statistics.median(runner.references) * 1000:.3f} ms")
    print(f"traffic: {runner.traffic_summary()}")
    print(f"digest: {runner.digest}")
    for name, unit in END_TO_END.items():
        print(f"{name:12s} {values[name]:12.4f} {unit}")
    return {"correct": runner.failed == 0, "attempted": n, "failed": runner.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in END_TO_END.items()}}


def report_traced(args, untraced, traced, tracer, values):
    (group, group_s), (module, module_s) = largest_self_time(tracer)
    total = sum(g.self_s for g in tracer.groups.values())
    same_output = untraced.digest == traced.digest
    print(f"workload {args.workload} seed {args.seed}: traced {traced.attempted} ops, "
          f"overhead ratio {values['trace.overhead_ratio']:.3f}")
    print(f"largest self time: layer {group} {group_s:.3f} s ({group_s / total:.0%}), "
          f"module {module} {module_s:.3f} s ({module_s / total:.0%}) of {total:.3f} s")
    if tracer.absent:
        print(f"absent names: {', '.join(tracer.absent)}")
    if tracer.count_errors:
        print(f"counter errors: {tracer.count_errors}")
    print(f"digest untraced: {untraced.digest}")
    if not same_output:
        print(f"digest traced:   {traced.digest} (differs)")
    for runner in (untraced, traced):
        if runner.first_problem:
            print(f"first failure: {runner.first_problem}")
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-s{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "metrics": values,
        "largest": {"layer": group, "module": module}, "absent": tracer.absent,
        "groups": {name: vars(g) for name, g in tracer.groups.items()},
        "spans": tracer.spans,
    }))
    print(f"trace written to {trace_file.relative_to(ROOT)}")
    failed = untraced.failed + traced.failed
    return {"correct": failed == 0 and same_output,
            "attempted": untraced.attempted + traced.attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in PER_LAYER.items()}}


def run_all(args):
    """Each workload in its own process, one after another, then a summary table."""
    rows, merged = [], {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        fail_ratio = result["failed"] / result["attempted"]
        metrics = dict(result["metrics"], fail_ratio={"value": fail_ratio, "unit": "ratio"})
        rows.append((name, result, metrics))
        merged.update({f"{name}.{key}": value for key, value in metrics.items()})
    if not args.trace:
        names = list(END_TO_END) + ["fail_ratio"]
        print()
        print(f"{'workload':14s}" + "".join(f"{n:>14s}" for n in names))
        print(f"{'':14s}" + "".join(f"{rows[0][2][n]['unit']:>14s}" for n in names))
        for name, result, metrics in rows:
            print(f"{name:14s}" + "".join(f"{metrics[n]['value']:14.4f}" for n in names)
                  + f"   ({result['failed']}/{result['attempted']} failed)")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the oracles, time budget and tracer catch what they must")
    args = parser.parse_args(argv)
    if not (SRC / "conceptua" / "__init__.py").is_file():
        print(f"no library source at {SRC / 'conceptua'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        import selftest

        return selftest.main(import_library, OUT / f"self-test-p{os.getpid()}")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
