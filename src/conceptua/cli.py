"""Command-line interface.

Exit codes: 0 success, 1 law/validation failure, 2 parse error, unreadable
input or unwritable output, 3 resource limit.  All commands are
deterministic for fixed inputs and seed.  Each command imports the layers it
uses when it runs, so ``lattice`` loads neither the institution nor the law
suites.

A call is parsed once, by the parser of the command it names.  The
top-level parser parses only a call that names no known command (no
arguments, ``--help``, an unknown word) or leaves words its command does not
take, so it stays the one source of those messages.
"""

import argparse
import functools
import os
import stat
import sys

from .errors import ConceptuaError, ParseError, SizeLimitError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3


def _read_file(path: str) -> str:
    """The text of ``path`` as ``Path.read_text`` reads it (default encoding,
    universal newlines), through the builtin ``open``, which takes about half
    the time; a read error names the path as given."""
    try:
        with open(path) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write_file(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as ``Path.write_text`` would, but over the
    old bytes and then trimmed, so an existing file keeps its inode and mode.

    ``write_text`` truncates to zero first, which ext4 takes for "replace via
    truncate" (``auto_da_alloc``) and answers by starting writeback at
    ``close``: on a 3 KB file on ext4 mounted with ``discard`` that took
    0.1-1 ms, against ~10 us for writing over the old bytes.  Only a regular
    file is trimmed, so ``/dev/null`` and FIFOs still work.
    """
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
            f.write(text)
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()
    except (OSError, UnicodeEncodeError) as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _label_map(source: "FinSet", target: "FinSet", data, what: str) -> "FinFunction":
    """A total function from a JSON object sending every source label to a target label."""
    from .finrel import FinFunction

    if not isinstance(data, dict):
        raise ParseError(f"{what} must be an object from labels to labels")
    for label in source:
        if label not in data:
            raise ParseError(f"{what} has no entry for {label!r}")
        if data[label] not in target:
            raise ParseError(f"{what} sends {label!r} to {data[label]!r}, "
                             f"which is not in {list(target)}")
    return FinFunction.from_map(source, target, data)


def cmd_lattice(args) -> int:
    from .io import detect_format, read_context
    from .clg import concept_lattice, lattice_to_dot, lattice_to_json

    fmt = args.informat or detect_format(args.input)
    a = read_context(_read_file(args.input), fmt)
    lat = concept_lattice(a)
    payload = (lattice_to_json if args.format == "json" else lattice_to_dot)(lat)
    if args.out:
        _write_file(args.out, payload)
    else:
        sys.stdout.write(payload)
    print(f"{lat.size} concepts")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import negative_control_report, run_suite

    if args.cases < 0:
        raise ParseError(f"--cases must be at least 0, got {args.cases}")
    reports = run_suite(args.suite, seed=args.seed, cases=args.cases)
    if args.negative_control:
        reports.append(negative_control_report())
    failed = False
    for rep in reports:
        for line in rep.lines():
            print(line)
        if not rep.ok:
            failed = True
    return EXIT_FAILURE if failed else EXIT_OK


def cmd_infomap(args) -> int:
    from .io import detect_format, load_json_object, read_context
    from .clsn import Infomorphism, check_infomorphism

    a = read_context(_read_file(args.context_a), detect_format(args.context_a))
    b = read_context(_read_file(args.context_b), detect_format(args.context_b))
    data = load_json_object(_read_file(args.mapping), "mapping")
    if "inst_map" not in data or "typ_map" not in data:
        raise ParseError("mapping JSON needs 'inst_map' and 'typ_map' objects")
    inst_map = _label_map(b.instances, a.instances, data["inst_map"], "inst_map")
    typ_map = _label_map(a.types, b.types, data["typ_map"], "typ_map")
    report = check_infomorphism(Infomorphism(a, b, inst_map, typ_map))
    print(f"relation version:   {'ok' if report.relation_version else 'FAILED'}")
    print(f"morphism version:   {'ok' if report.morphism_version else 'FAILED'}")
    print(f"adjunction version: {'ok' if report.adjunction_version else 'FAILED'}")
    if report.valid:
        print("infomorphism: valid")
        return EXIT_OK
    x, y = report.witness if report.witness else ("?", "?")
    print(f"infomorphism: INVALID, first witness pair ({x}, {y})")
    return EXIT_FAILURE


def cmd_merge(args) -> int:
    from .io import _json_list, _json_string, load_json_object
    from .institution import (MergeSpan, SignatureMorphism, merge_theories, signature_from_json,
                              theory_from_json, theory_to_json, verify_pushout_universal)

    data = load_json_object(_read_file(args.span), "span")
    for key in ("base", "left", "right", "left_map", "right_map"):
        if key not in data:
            raise ParseError(f"span JSON is missing {key!r}")
    base = signature_from_json(data["base"], "span base")
    left = theory_from_json(data["left"], "left theory")
    right = theory_from_json(data["right"], "right theory")
    span = MergeSpan(
        base,
        SignatureMorphism(base, left.signature,
                          _label_map(base.vars, left.signature.vars, data["left_map"], "left_map")),
        SignatureMorphism(base, right.signature,
                          _label_map(base.vars, right.signature.vars, data["right_map"], "right_map")),
        left,
        right,
    )
    result = merge_theories(span)
    payload = theory_to_json(result.theory)
    names = {v: _json_string(v) for v in payload["signature"]}
    # json.dumps({**payload, "inconsistent": ...}, indent=2), laid out by hand: the
    # indented json.dumps is pure Python, 12 us against 3 us on a 3-variable merge.
    text = ('{\n  "signature": ' + _json_list(list(names.values()), "  ")
            + ',\n  "models": '
            + _json_list([_json_list([names[v] for v in m], "    ") for m in payload["models"]], "  ")
            + ',\n  "inconsistent": ' + ("true" if result.inconsistent else "false") + "\n}\n")
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)
    print(f"pushout signature: {list(result.signature.vars.elements)}")
    if result.inconsistent:
        print("warning: merged theory is inconsistent (bottom theory)")
    if args.check_universal:
        failures = verify_pushout_universal(span, result)
        if failures:
            print(f"pushout universal property FAILED: {failures[0]}")
            return EXIT_FAILURE
        print("pushout universal property: ok")
    return EXIT_OK


def cmd_institution(args) -> int:
    from .institution import Signature, SignatureMorphism, style_interconvert

    names = ("p", "q", "r", "s", "t")
    if args.vars < 1:
        raise ParseError(f"--vars must be at least 1, got {args.vars}")
    if args.vars > len(names):
        raise SizeLimitError(f"--vars must be at most {len(names)}, the fixed cap of "
                             "signature size")
    if args.depth < 1:
        raise ParseError("--depth must be at least 1: depth 0 has no sentences to check")
    big = Signature.of(*names[: args.vars])
    small = Signature.of(*names[: max(args.vars - 1, 0)])
    cases = [("identity", SignatureMorphism.identity(big))]
    if small.size < big.size:
        cases.append(("inclusion", SignatureMorphism.of(
            small, big, {v: v for v in small.vars.elements})))
    cases.append(("collapse", SignatureMorphism.of(
        big, big, {v: names[0] for v in big.vars.elements})))
    failed = False
    for label, sigma in cases:
        rep = style_interconvert(sigma, args.depth)
        verdict = "all four styles pass" if rep.all_pass else f"FAILED {rep.witnesses}"
        print(f"{label}: class-rel={rep.class_rel} class-adj={rep.class_adj} "
              f"conc-adj={rep.conc_adj} conc-rel={rep.conc_rel} -> {verdict}")
        if not rep.all_pass:
            failed = True
    return EXIT_FAILURE if failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one:
    parsing leaves it unchanged, and help reads the terminal width when it
    is printed.  ``parser.commands`` maps each command to its own parser."""
    parser = argparse.ArgumentParser(
        prog="conceptua",
        description="Concept lattices, Galois adjunctions, and a lattice of theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p_lat = sub.add_parser("lattice", help="compute the concept lattice of a context file")
    p_lat.add_argument("input", help="context file (.cxt, .csv, or .json)")
    p_lat.add_argument("--format", choices=["json", "dot"], default="json",
                       help="output format (default json)")
    p_lat.add_argument("--informat", choices=["cxt", "csv", "json"],
                       help="override input format detection")
    p_lat.add_argument("--out", help="write the lattice here instead of stdout")
    p_lat.set_defaults(func=cmd_lattice)

    p_ver = sub.add_parser("verify", help="run the law suites")
    p_ver.add_argument("--suite", default="all",
                       choices=["all", "finrel", "galois", "clsn", "clg", "institution"])
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--cases", type=int, default=100)
    p_ver.add_argument("--negative-control", action="store_true",
                       help="also run corrupted fixtures that must fail (forces exit 1)")
    p_ver.set_defaults(func=cmd_verify)

    p_info = sub.add_parser("infomap", help="validate an infomorphism between two contexts")
    p_info.add_argument("context_a")
    p_info.add_argument("context_b")
    p_info.add_argument("mapping", help="JSON with 'inst_map' (B->A) and 'typ_map' (A->B)")
    p_info.set_defaults(func=cmd_infomap)

    p_mrg = sub.add_parser("merge", help="merge two theories over a signature span")
    p_mrg.add_argument("span", help="JSON span file")
    p_mrg.add_argument("--out", help="write the merged theory here instead of stdout")
    p_mrg.add_argument("--check-universal", action="store_true",
                       help="also verify the pushout universal property by the pushout's kernel")
    p_mrg.set_defaults(func=cmd_merge)

    p_inst = sub.add_parser("institution", help="four-style institution interconversion demo")
    p_inst.add_argument("--vars", type=int, default=2)
    p_inst.add_argument("--depth", type=int, default=3)
    p_inst.set_defaults(func=cmd_institution)

    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, parsed by the command's own parser
    when ``argv`` names a command and leaves no word over."""
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConceptuaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
