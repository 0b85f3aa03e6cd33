"""The library's layers as the traced run sees them.

``TARGETS`` lists the public names wrapped in a traced run, grouped by
layer; ``PER_LAYER`` lists the metrics derived from the groups, with their
units. Counts and times are totals over the traced pass (see run.py), so a
count repeats exactly for a fixed seed.
"""

from tracer import Target


def _elements(args, _res):
    return {"elements": 1 << len(args[0])}


def _cells(args, _res):
    return {"cells": args[0].source.size * args[0].target.size}


def _monotone_pairs(args, _res):
    return {"pairs": args[0].source.size ** 2}


def _covers(args, res):
    return {"elements": args[0].size, "edges": len(res)}


def _subsets(args, _res):
    f = args[0]
    return {"subsets": (1 << f.target.instances.size) + (1 << f.source.types.size)}


def _adjunction_pairs(args, _res):
    return {"pairs": args[0].source.size * args[0].target.size}


def _length(name):
    return lambda _args, res: {name: len(res)}


def _bytes(args, _res):
    return {"bytes": len(args[0])}


def _checks(_args, res):
    return {"checks": res.cases}


TARGETS = [
    Target("cli", "main", "cli.main"),
    Target("io", "read_context", "io.read_context", counts=_bytes),
    Target("finrel", "compose", "finrel.relalg", hot=True),
    Target("finrel", "transpose", "finrel.relalg", hot=True),
    Target("finrel", "residuate_left", "finrel.relalg", hot=True),
    Target("finrel", "residuate_right", "finrel.relalg", hot=True),
    Target("finrel", "derive_forward", "finrel.derive", hot=True),
    Target("finrel", "derive_reverse", "finrel.derive", hot=True),
    Target("order", "power_order", "order.power_order", counts=_elements),
    Target("order", "classify_endorelation", "order.validate", hot=True, counts=_cells),
    Target("order", "MonotoneMap.__post_init__", "order.monotone_check", hot=True,
           counts=_monotone_pairs),
    Target("order", "hasse_edges", "order.hasse_edges", counts=_covers),
    Target("galois", "check_adjunction", "galois.check_adjunction", hot=True,
           counts=_adjunction_pairs),
    Target("galois", "polar_factorize", "galois.polar_factorize"),
    Target("clsn", "check_infomorphism", "clsn.check_infomorphism", counts=_subsets),
    Target("clg", "concepts_of", "clg.concepts_of", counts=_length("concepts")),
    Target("clg", "concept_poset", "clg.concept_poset"),
    Target("clg", "concept_lattice", "clg.concept_lattice"),
    Target("clg", "lattice_to_json", "clg.serialize"),
    Target("clg", "lattice_to_dot", "clg.serialize"),
    Target("institution", "enumerate_sentences", "institution.sentences",
           counts=_length("types")),
    Target("institution", "truth_table", "institution.truth_table", hot=True),
    Target("institution", "theory_fiber", "institution.theory_fiber"),
    Target("institution", "transport_theory", "institution.transport", hot=True),
    Target("institution", "inverse_transport", "institution.transport", hot=True),
    Target("institution", "style_interconvert", "institution.style_interconvert"),
    Target("institution", "merge_theories", "institution.merge"),
    Target("institution", "verify_pushout_universal", "institution.pushout_check"),
] + [
    Target("verify", f"{suite}_suite", f"verify.{suite}", counts=_checks)
    for suite in ("finrel", "galois", "clsn", "clg", "institution")
]

# Names whose lru cache hit ratio is reported, keyed by metric prefix.
CACHED = {
    "institution.sentences": "institution.enumerate_sentences",
    "institution.theory_fiber": "institution.theory_fiber",
}

# metric name -> (group, field); field is "calls", "self_s" or a counter.
_FIELDS = {
    "order.power_order.calls": ("order.power_order", "calls"),
    "order.power_order.elements": ("order.power_order", "elements"),
    "order.power_order.self_s": ("order.power_order", "self_s"),
    "order.validate.calls": ("order.validate", "calls"),
    "order.validate.cells": ("order.validate", "cells"),
    "order.validate.self_s": ("order.validate", "self_s"),
    "order.monotone_check.calls": ("order.monotone_check", "calls"),
    "order.monotone_check.pairs": ("order.monotone_check", "pairs"),
    "order.monotone_check.self_s": ("order.monotone_check", "self_s"),
    "order.hasse_edges.calls": ("order.hasse_edges", "calls"),
    "order.hasse_edges.elements": ("order.hasse_edges", "elements"),
    "order.hasse_edges.edges": ("order.hasse_edges", "edges"),
    "order.hasse_edges.self_s": ("order.hasse_edges", "self_s"),
    "finrel.relalg.calls": ("finrel.relalg", "calls"),
    "finrel.relalg.self_s": ("finrel.relalg", "self_s"),
    "finrel.derive.calls": ("finrel.derive", "calls"),
    "finrel.derive.self_s": ("finrel.derive", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
    "io.read_context.bytes": ("io.read_context", "bytes"),
    "io.read_context.self_s": ("io.read_context", "self_s"),
    "clg.concept_lattice.self_s": ("clg.concept_lattice", "self_s"),
    "clg.serialize.self_s": ("clg.serialize", "self_s"),
    "clg.concepts_of.calls": ("clg.concepts_of", "calls"),
    "clg.concepts_of.self_s": ("clg.concepts_of", "self_s"),
    "clg.concepts": ("clg.concepts_of", "concepts"),
    "clg.concept_poset.self_s": ("clg.concept_poset", "self_s"),
    "clsn.check_infomorphism.calls": ("clsn.check_infomorphism", "calls"),
    "clsn.check_infomorphism.subsets": ("clsn.check_infomorphism", "subsets"),
    "clsn.check_infomorphism.self_s": ("clsn.check_infomorphism", "self_s"),
    "galois.check_adjunction.calls": ("galois.check_adjunction", "calls"),
    "galois.check_adjunction.pairs": ("galois.check_adjunction", "pairs"),
    "galois.check_adjunction.self_s": ("galois.check_adjunction", "self_s"),
    "galois.polar_factorize.calls": ("galois.polar_factorize", "calls"),
    "galois.polar_factorize.self_s": ("galois.polar_factorize", "self_s"),
    "institution.sentences.types": ("institution.sentences", "types"),
    "institution.truth_table.calls": ("institution.truth_table", "calls"),
    "institution.truth_table.self_s": ("institution.truth_table", "self_s"),
    "institution.style_interconvert.self_s": ("institution.style_interconvert", "self_s"),
    "institution.theory_fiber.self_s": ("institution.theory_fiber", "self_s"),
    "institution.transport.self_s": ("institution.transport", "self_s"),
    "institution.merge.self_s": ("institution.merge", "self_s"),
    "institution.pushout_check.self_s": ("institution.pushout_check", "self_s"),
    "verify.finrel.self_s": ("verify.finrel", "self_s"),
    "verify.galois.self_s": ("verify.galois", "self_s"),
    "verify.clsn.self_s": ("verify.clsn", "self_s"),
    "verify.clg.self_s": ("verify.clg", "self_s"),
    "verify.institution.self_s": ("verify.institution", "self_s"),
    "op.self_s": ("op", "self_s"),
}

PER_LAYER = {name: ("s" if field == "self_s" else "count") for name, (_g, field) in _FIELDS.items()}
PER_LAYER["io.read_context.bytes"] = "B"
PER_LAYER.update({
    "clg.useful_ratio": "ratio",
    "institution.sentences.hit_ratio": "ratio",
    "institution.theory_fiber.hit_ratio": "ratio",
    "verify.checks": "count",
    "trace.absent_names": "count",
    "trace.overhead_ratio": "ratio",
})


def per_layer_values(tracer, cache_deltas, overhead_ratio):
    """Every PER_LAYER metric from a finished traced pass.

    ``cache_deltas`` maps a CACHED prefix to (hits, misses) during the pass.
    A layer the pass never entered reads 0.
    """
    def read(group, field):
        g = tracer.groups.get(group)
        if g is None:
            return 0
        if field in ("calls", "self_s"):
            return getattr(g, field)
        return g.counters.get(field, 0)

    values = {name: read(*spec) for name, spec in _FIELDS.items()}
    elements = values["order.power_order.elements"]
    values["clg.useful_ratio"] = values["clg.concepts"] / elements if elements else 0
    for prefix, (hits, misses) in cache_deltas.items():
        values[f"{prefix}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0
    values["verify.checks"] = sum(read(g, "checks") for g in tracer.groups if g.startswith("verify."))
    values["trace.absent_names"] = len(tracer.absent)
    values["trace.overhead_ratio"] = overhead_ratio
    return values


def largest_self_time(tracer):
    """(group, seconds) and (module, seconds) with the most self time.

    The op group is the benchmark's own time outside every wrapped call.
    """
    groups = {name: g.self_s for name, g in tracer.groups.items() if name != "op"}
    modules = {}
    for name, seconds in groups.items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + seconds
    if not groups:
        return ("none", 0.0), ("none", 0.0)
    return max(groups.items(), key=lambda kv: kv[1]), max(modules.items(), key=lambda kv: kv[1])
