"""The four workloads: seeded inputs, the op that calls the library, and its check.

An op list is built from a cycle of slots: op k uses slot k mod len(cycle),
and the variant of a slot (density, file format, signature sizes) follows
from k too. So every seed gets the same mix of op kinds and sizes, and the
seed decides only the data: incidences, maps, sentences and suite seeds. ``call`` is the timed part: one call into the
library. ``check`` runs afterwards, untimed, and compares the result with
an answer from ``oracle``; it returns (problem or None, canonical output
text for the digest, traffic counters).
"""

import contextlib
import io
import json
import re
from pathlib import Path

import oracle


# ----------------------------------------------------------------- inputs


def random_context(rng, n_obj, n_att, density):
    """Object names, attribute names and rows with exactly round(density * cells) crosses."""
    crosses = rng.sample(range(n_obj * n_att), round(density * n_obj * n_att))
    rows = [0] * n_obj
    for cell in crosses:
        rows[cell // n_att] |= 1 << (cell % n_att)
    objects = [f"g{i}" for i in range(n_obj)]
    attributes = [f"m{j}" for j in range(n_att)]
    return objects, attributes, rows


def context_text(fmt, objects, attributes, rows):
    n_att = len(attributes)
    if fmt == "cxt":
        lines = ["B", "", str(len(objects)), str(n_att), ""] + objects + attributes
        lines += ["".join("X" if row >> j & 1 else "." for j in range(n_att)) for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        lines = ["," + ",".join(attributes)]
        lines += [name + "," + ",".join("1" if row >> j & 1 else "0" for j in range(n_att))
                  for name, row in zip(objects, rows)]
        return "\n".join(lines) + "\n"
    pairs = [[i, j] for i, row in enumerate(rows) for j in oracle.bit_indices(row)]
    return json.dumps({"source": objects, "target": attributes, "pairs": pairs}) + "\n"


def run_cli(lib, argv):
    """(exit code, stdout, stderr) of an in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_problem(result, expected_code):
    code, _out, err = result
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}: {err.strip()[:200]}"
    return None


class Workload:
    name = ""
    cycle = ()
    budget_s = 5.0

    def __init__(self, workdir):
        self.workdir = Path(workdir)

    def make_ops(self, rng, count):
        return [self.make_op(rng, k, self.cycle[k % len(self.cycle)]) for k in range(count)]

    def write_inputs(self, ops):
        for op in ops:
            for name, text in op.get("files", {}).items():
                (self.workdir / name).write_text(text)

    def path(self, name):
        return str(self.workdir / name)

    def warm_up(self, lib, ops):
        self.call(lib, ops[0])


# ------------------------------------------------------------ lattice-power


class LatticePower(Workload):
    """CLI ``lattice`` on contexts of 6-10 per side: the power orders dominate."""

    name = "lattice-power"
    cycle = ((6, 6), (6, 7), (7, 6), (7, 7), (8, 7), (7, 8), (6, 10))

    def make_op(self, rng, k, shape):
        density = (0.2, 0.3, 0.5)[k // 7 % 3]
        objects, attributes, rows = random_context(rng, *shape, density)
        fmt = ("cxt", "csv", "json")[k % 3]
        infile = f"ctx-{k:04d}.{fmt}"
        out_format = ("json", "dot")[k // 7 % 2]
        return {"objects": objects, "attributes": attributes, "rows": rows, "density": density,
                "infile": infile, "format": out_format, "outfile": f"lattice-{k % 7}.{out_format}",
                "files": {infile: context_text(fmt, objects, attributes, rows)}}

    def call(self, lib, op):
        return run_cli(lib, ["lattice", self.path(op["infile"]), "--format", op["format"],
                             "--out", self.path(op["outfile"])])

    def check(self, op, result):
        objects, attributes, rows = op["objects"], op["attributes"], op["rows"]
        found = oracle.concepts(rows, len(attributes))
        edges = oracle.covers([e for e, _ in found], len(objects))
        traffic = {"objects": len(objects), "attributes": len(attributes), "density": op["density"],
                   "concepts": len(found), "cover_edges": len(edges),
                   "power_order_elements": (1 << len(objects)) + (1 << len(attributes))}
        text = Path(self.path(op["outfile"])).read_text() if result[0] == 0 else ""
        canonical = f"{result[0]}\n{result[1]}{text}"
        problem = _cli_problem(result, 0)
        if problem is None and result[1] != f"{len(found)} concepts\n":
            problem = f"stdout {result[1]!r}, expected {len(found)} concepts"
        if problem is None:
            if op["format"] == "json":
                problem = _lattice_json_problem(text, objects, attributes, found, edges)
            else:
                problem = _lattice_dot_problem(text, objects, attributes, found, edges)
        return problem, canonical, traffic


def _lattice_json_problem(text, objects, attributes, found, edges):
    expected = {
        "objects": objects,
        "attributes": attributes,
        "concepts": [{"extent": oracle.bit_indices(e), "intent": oracle.bit_indices(i)}
                     for e, i in found],
        "cover": [list(edge) for edge in edges],
    }
    return None if json.loads(text) == expected else "lattice JSON differs from the oracle"


_DOT_NODE = re.compile(r'^\s*n(\d+) \[label="([^"]*)"\];$')
_DOT_EDGE = re.compile(r"^\s*n(\d+) -> n(\d+);$")


def _lattice_dot_problem(text, objects, attributes, found, edges):
    nodes, got_edges = [], []
    for line in text.splitlines():
        if m := _DOT_NODE.match(line):
            nodes.append((int(m[1]), m[2]))
        elif m := _DOT_EDGE.match(line):
            got_edges.append((int(m[1]), int(m[2])))

    def label(names, bits):
        return "{" + ",".join(names[i] for i in oracle.bit_indices(bits)) + "}"

    expected = [(k, label(objects, e) + "|" + label(attributes, i)) for k, (e, i) in enumerate(found)]
    if nodes != expected:
        return "lattice DOT nodes differ from the oracle"
    return None if got_edges == edges else "lattice DOT edges differ from the oracle"


# ------------------------------------------------------------- lattice-wide


class LatticeWide(Workload):
    """Library pipeline on contexts with 150-350 concepts: no power orders."""

    name = "lattice-wide"
    cycle = ((24, 24), (40, 14), (14, 40), (30, 18), (18, 30))

    def make_op(self, rng, k, shape):
        density = (0.25, 0.3)[k // 5 % 2]
        objects, attributes, rows = random_context(rng, *shape, density)
        fmt = ("cxt", "csv", "json")[k % 3]
        infile = f"ctx-{k:04d}.{fmt}"
        return {"objects": objects, "attributes": attributes, "rows": rows, "density": density,
                "infile": infile, "fmt": fmt,
                "files": {infile: context_text(fmt, objects, attributes, rows)}}

    def call(self, lib, op):
        text = Path(self.path(op["infile"])).read_text()
        a = lib.io.read_context(text, op["fmt"])
        concepts = lib.clg.concepts_of(a)
        poset, poset_concepts = lib.clg.concept_poset(a)
        return concepts, poset_concepts, lib.order.hasse_edges(poset)

    def check(self, op, result):
        concepts, poset_concepts, edges = result
        found = oracle.concepts(op["rows"], len(op["attributes"]))
        expected_edges = oracle.covers([e for e, _ in found], len(op["objects"]))
        traffic = {"objects": len(op["objects"]), "attributes": len(op["attributes"]),
                   "density": op["density"], "concepts": len(found),
                   "cover_edges": len(expected_edges)}
        got = [(c.extent.bits, c.intent.bits) for c in concepts]
        got_edges = [tuple(edge) for edge in edges]
        canonical = f"{got}\n{got_edges}"
        problem = None
        if got != found:
            problem = "concepts differ from the oracle"
        elif [(c.extent.bits, c.intent.bits) for c in poset_concepts] != found:
            problem = "concept order carries other concepts"
        elif got_edges != expected_edges:
            problem = "cover edges differ from the oracle"
        return problem, canonical, traffic


# -------------------------------------------------------------- institution

_VARS = ("p", "q", "r")


def _sigma(lib, n_src, n_tgt, table):
    inst = lib.institution
    source, target = inst.Signature.of(*_VARS[:n_src]), inst.Signature.of(*_VARS[:n_tgt])
    return inst.SignatureMorphism.of(source, target, {_VARS[v]: _VARS[t] for v, t in enumerate(table)})


class Institution(Workload):
    """A fixed mix of style interconversion, fiber transports, merge and infomap."""

    name = "institution"
    cycle = ("infomap-corrupt", "style-light", "merge", "fiber-light", "fiber-3",
             "infomap-valid", "style-heavy")

    def make_op(self, rng, k, kind):
        variant = k // len(self.cycle)
        if kind.startswith("style"):
            src, tgt, depth = (2, 3, 3) if kind == "style-heavy" else \
                ((1, 3, 3), (2, 3, 2), (1, 2, 3), (2, 2, 2))[variant % 4]
            return {"kind": "style", "src": src, "tgt": tgt, "depth": depth,
                    "table": tuple(rng.randrange(tgt) for _ in range(src))}
        if kind.startswith("fiber"):
            src, tgt = (3, 3) if kind == "fiber-3" else ((1, 3), (2, 3), (3, 1), (3, 2))[variant % 4]
            return {"kind": "fiber", "src": src, "tgt": tgt,
                    "table": tuple(rng.randrange(tgt) for _ in range(src))}
        if kind == "merge":
            return self._merge_op(rng, k, variant)
        return self._infomap_op(rng, k, corrupt=kind == "infomap-corrupt")

    def _merge_op(self, rng, k, variant):
        base = ["a", "b"][:variant % 3]
        left = ["p", "q"][:1 + variant // 3 % 2]
        right = ["r", "s"][:1 + variant % 2]
        left_s, right_s = oracle.random_sentence(rng, left, 3), oracle.random_sentence(rng, right, 3)
        span = {"base": base,
                "left": {"signature": left, "sentence": oracle.render(left_s)},
                "right": {"signature": right, "sentence": oracle.render(right_s)},
                "left_map": {b: rng.choice(left) for b in base},
                "right_map": {b: rng.choice(right) for b in base}}
        name = f"span-{k:04d}.json"
        return {"kind": "merge", "span": span, "sentences": (left_s, right_s), "infile": name,
                "outfile": "merged.json", "files": {name: json.dumps(span) + "\n"}}

    def _infomap_op(self, rng, k, corrupt):
        """A valid infomorphism A <=> B, with one map entry moved when ``corrupt``.

        The type map is injective, so B's incidence on its image is forced
        by A; B's remaining type column is random.
        """
        a_obj, a_att, a_rows = random_context(rng, 8, 11, 0.3)
        b_obj = [f"h{x}" for x in range(11)]
        b_att = [f"n{t}" for t in range(12)]
        inst_map = [rng.randrange(8) for _ in b_obj]
        typ_map = rng.sample(range(12), 11)
        free = (set(range(12)) - set(typ_map)).pop()
        b_rows = []
        for x in range(len(b_obj)):
            row = sum(1 << typ_map[y] for y in range(11) if a_rows[inst_map[x]] >> y & 1)
            b_rows.append(row | (rng.random() < 0.3) << free)
        if corrupt:
            if rng.random() < 0.5:
                x = rng.randrange(len(b_obj))
                inst_map[x] = (inst_map[x] + rng.randint(1, 7)) % 8
            else:
                y = rng.randrange(11)
                typ_map[y] = (typ_map[y] + rng.randint(1, 11)) % 12
        mapping = {"inst_map": {b_obj[x]: a_obj[inst_map[x]] for x in range(len(b_obj))},
                   "typ_map": {a_att[y]: b_att[typ_map[y]] for y in range(11)}}
        names = (f"a-{k:04d}.cxt", f"b-{k:04d}.cxt", f"map-{k:04d}.json")
        return {"kind": "infomap", "names": names, "a": (a_obj, a_att, a_rows),
                "b": (b_obj, b_att, b_rows), "inst_map": inst_map, "typ_map": typ_map,
                "files": {names[0]: context_text("cxt", a_obj, a_att, a_rows),
                          names[1]: context_text("cxt", b_obj, b_att, b_rows),
                          names[2]: json.dumps(mapping) + "\n"}}

    def warm_up(self, lib, ops):
        """Fill the sentence and fiber caches every op kind reads."""
        inst = lib.institution
        for n in range(1, 4):
            sig = inst.Signature.of(*_VARS[:n])
            for depth in (2, 3):
                inst.enumerate_sentences(sig, depth)
        for n in range(4):
            inst.theory_fiber(inst.Signature.of(*_VARS[:n]))

    def call(self, lib, op):
        kind = op["kind"]
        if kind == "style":
            return lib.institution.style_interconvert(
                _sigma(lib, op["src"], op["tgt"], op["table"]), op["depth"])
        if kind == "fiber":
            return lib.institution.fiber_transport_adjunction(
                _sigma(lib, op["src"], op["tgt"], op["table"]))
        if kind == "merge":
            return run_cli(lib, ["merge", self.path(op["infile"]), "--check-universal",
                                 "--out", self.path(op["outfile"])])
        return run_cli(lib, ["infomap"] + [self.path(name) for name in op["names"]])

    def check(self, op, result):
        return getattr(self, "_check_" + op["kind"])(op, result)

    def _check_style(self, op, report):
        traffic = {"sentence_types": oracle.sentence_types(op["src"], op["depth"])
                   + oracle.sentence_types(op["tgt"], op["depth"])}
        verdicts = (report.class_rel, report.class_adj, report.conc_adj, report.conc_rel)
        canonical = f"{verdicts} {sorted(report.witnesses.items())}"
        problem = None if all(verdicts) else f"styles failed: {report.witnesses}"
        return problem, canonical, traffic

    def _check_fiber(self, op, adj):
        left, right = oracle.fiber_transports(op["src"], op["tgt"], op["table"])
        got_left = [adj.left_idx(i) for i in range(len(left))]
        got_right = [adj.right_idx(j) for j in range(len(right))]
        traffic = {"fiber_elements": len(left) + len(right)}
        problem = None
        if got_left != left:
            problem = "transport table differs from the oracle"
        elif got_right != right:
            problem = "inverse transport table differs from the oracle"
        return problem, f"{got_left}\n{got_right}", traffic

    def _check_merge(self, op, result):
        labels, models = oracle.merge(op["span"], *op["sentences"])
        traffic = {"pushout_vars": len(labels), "merged_models": len(models)}
        text = Path(self.path(op["outfile"])).read_text() if result[0] == 0 else ""
        canonical = f"{result[0]}\n{result[1]}{text}"
        problem = _cli_problem(result, 0)
        if problem is None:
            merged = json.loads(text)
            if set(merged["signature"]) != labels:
                problem = f"pushout signature {merged['signature']}, expected {sorted(labels)}"
            elif {frozenset(m) for m in merged["models"]} != models or \
                    len(merged["models"]) != len(models):
                problem = "merged model class differs from the oracle"
            elif merged["inconsistent"] != (not models):
                problem = "inconsistency flag is wrong"
            elif "pushout universal property: ok" not in result[1].splitlines():
                problem = "universal property not reported ok"
        return problem, canonical, traffic

    def _check_infomap(self, op, result):
        (a_obj, a_att, a_rows), (b_obj, b_att, b_rows) = op["a"], op["b"]
        witness = oracle.first_witness(a_rows, b_rows, op["inst_map"], op["typ_map"], len(a_att))
        traffic = {"types": len(a_att) + len(b_att),
                   "subsets": (1 << len(b_obj)) + (1 << len(a_att))}
        canonical = f"{result[0]}\n{result[1]}"
        problem = _cli_problem(result, 0 if witness is None else 1)
        if problem is None:
            lines = result[1].splitlines()
            status = "ok" if witness is None else "FAILED"
            if [line.rsplit(" ", 1)[-1] for line in lines[:3]] != [status] * 3:
                problem = f"version verdicts {lines[:3]}, expected all {status}"
            elif witness is None and lines[3:] != ["infomorphism: valid"]:
                problem = f"verdict {lines[3:]}, expected valid"
            elif witness is not None and lines[3:] != [
                    f"infomorphism: INVALID, first witness pair "
                    f"({b_obj[witness[0]]}, {a_att[witness[1]]})"]:
                problem = f"verdict {lines[3:]}, expected witness {witness}"
        return problem, canonical, traffic


# --------------------------------------------------------------------- laws

_SUITE_LINE = re.compile(r"^suite (\S+): (ok|FAILED) \((\d+) checks, [0-9.]+s\)$")


class Laws(Workload):
    """In-process ``verify`` over seeded k, plus the negative control."""

    name = "laws"
    cycle = ("finrel", "galois", "clsn", "clg", "institution", "negative-control", "clsn")
    budget_s = 10.0

    def make_op(self, rng, k, suite):
        return {"suite": suite, "seed": rng.randrange(1_000_000)}

    def warm_up(self, lib, ops):
        for suite in ("clsn", "institution"):
            run_cli(lib, ["verify", "--suite", suite, "--seed", "0", "--cases", "100"])

    def call(self, lib, op):
        argv = ["verify", "--seed", str(op["seed"]), "--cases", "100"]
        if op["suite"] == "negative-control":
            argv += ["--suite", "clsn", "--negative-control"]
        else:
            argv += ["--suite", op["suite"]]
        return run_cli(lib, argv)

    def check(self, op, result):
        negative = op["suite"] == "negative-control"
        canonical = f"{result[0]}\n" + re.sub(r", [0-9.]+s\)$", ")", result[1], flags=re.M)
        verdicts = {m[1]: (m[2], int(m[3])) for m in map(_SUITE_LINE.match, result[1].splitlines())
                    if m}
        traffic = {"checks": sum(n for _, n in verdicts.values())}
        expected = {"clsn": "ok", "negative-control": "FAILED"} if negative else {op["suite"]: "ok"}
        problem = _cli_problem(result, 1 if negative else 0)
        if problem is None and {s: v for s, (v, _) in verdicts.items()} != expected:
            problem = f"suite verdicts {verdicts}, expected {expected}"
        return problem, canonical, traffic


WORKLOADS = {w.name: w for w in (LatticePower, LatticeWide, Institution, Laws)}
