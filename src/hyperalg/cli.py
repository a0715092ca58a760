"""Command-line front end.

Exit codes: 0 all requested checks pass, 1 a mathematical check failed,
2 usage or parse failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import ddhyper, fuzzy, functors, hyper, io, matroid, ordgrp

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
# violations printed per report; the rest are counted on one line
SHOWN_VIOLATIONS = 10


def _load(arg: str, kind: str | None = None):
    """A path to a structure file, or the name of a builtin.  A builtin of
    another kind than `kind` is refused like a file of another kind."""
    for builtin_kind, names, make in (
        ("hyperring", hyper.BUILTIN_HYPERRINGS, hyper.builtin),
        ("fuzzyring", fuzzy.BUILTIN_FUZZY, fuzzy.builtin_fuzzy),
    ):
        if arg in names:
            if kind not in (None, builtin_kind):
                raise io.StructureError(
                    f"expected kind {kind}, found {builtin_kind} {arg!r}"
                )
            return make(arg)
    return io.load_structure(arg, kind)


def _print_report(label: str, rep) -> bool:
    if rep.passed:
        print(f"{label}: pass")
        return True
    print(f"{label}: FAIL")
    for axiom, witness in rep.violations[:SHOWN_VIOLATIONS]:
        print(f"  violated {axiom} at {witness}")
    hidden = len(rep.violations) - SHOWN_VIOLATIONS
    if hidden > 0:
        print(f"  ... and {hidden} more violations")
    return False


def _axiom_report(obj):
    """(label, report) of the axiom check for any structure kind."""
    # built per call, so checkers are looked up on their modules at call time
    checkers = (
        (hyper.FiniteHyperring, "hyperring axioms", hyper.check_hyperring),
        (fuzzy.FiniteFuzzyRing, "fuzzy ring axioms", fuzzy.check_fuzzy_axioms),
        (matroid.GPFunction, "exchange relations", matroid.verify_gp),
        (ordgrp.ZariskiSystem, "Zariski axioms", ordgrp.check_zariski),
        (
            ddhyper.PartialDemifield,
            "partial demifield axioms",
            ddhyper.check_partial_demifield,
        ),
    )
    label, check = next((l, c) for t, l, c in checkers if isinstance(obj, t))
    return label, check(obj)


def cmd_check(args) -> int:
    obj = _load(args.path, args.kind)
    t0 = time.perf_counter()
    ok = _print_report(*_axiom_report(obj))
    print(f"elapsed {time.perf_counter() - t0:.3f}s")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_construct(args) -> int:
    op = args.op
    if op == "F":
        src = _load(args.src, "hyperring")
        out = functors.F_obj(src).fuzzy
    elif op == "Fbar":
        out = ddhyper.Fbar(_load(args.src, "hyperring"))
    elif op == "G":
        out = functors.G_obj(_load(args.src, "fuzzyring"))
    elif op == "F1":
        out = ddhyper.F1(_load(args.src, "hyperring"))
    elif op == "quotient":
        ring = _field_ring(args.src)
        from .core import mask_of

        out = hyper.quotient(ring, mask_of(int(x) for x in args.units.split(",")))
    elif op == "KH":
        out = hyper.kh(_group(args.src))
    elif op == "KHef":
        out = hyper.khef(_group(args.src))
    elif op == "unitfield":
        if args.src.lower() == "z":
            out = functors.unit_field_z()
        else:
            out = functors.unit_field(_load(args.src, "hyperring"))
    else:  # unreachable through argparse
        raise io.StructureError(f"unknown construction {op}")
    # re-verify before writing
    _, rep = _axiom_report(out)
    if not _print_report(f"construct {op}", rep):
        return EXIT_FAIL
    io.save_structure(out, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _field_ring(name: str) -> hyper.FiniteRing:
    if not name.startswith("gf"):
        raise io.StructureError("quotient expects a gf<q> base field")
    return hyper.galois_field(int(name[2:]))


def _group(name: str):
    if name == "klein4":
        return hyper.klein_four()
    if name.startswith("c") and name[1:].isdigit():
        return hyper.cyclic_group(int(name[1:]))
    raise io.StructureError(f"unknown group {name!r} (klein4, c<k>)")


def _fuzzy_rings_fail(named) -> bool:
    """Print, as `check` does, the report of each (argument, structure) that
    fails FR0-FR7, which the fuzzy morphism searches presume; any failed?"""
    failed = False
    for arg, k in named:
        rep = fuzzy.check_fuzzy_axioms(k)
        if not rep.passed:
            _print_report(f"fuzzy ring axioms of {arg}", rep)
            failed = True
    return failed


def cmd_morphisms(args) -> int:
    kind = "hyperring" if args.kind == "hyperring" else "fuzzyring"
    src, dst = _load(args.src, kind), _load(args.dst, kind)
    if kind == "fuzzyring" and _fuzzy_rings_fail([(args.src, src), (args.dst, dst)]):
        return EXIT_FAIL
    if args.kind == "hyperring":
        homs = hyper.enumerate_homs(src, dst, strict=args.strict)
        print(f"{len(homs)} homomorphisms")
        for h in homs:
            print(f"  {h}")
    elif args.kind == "fuzzy-weak":
        tables = fuzzy.enumerate_weak_morphisms(src, dst)
        print(f"{len(tables)} weak morphisms")
        for t in tables:
            print(f"  {dict(t.map)}")
    else:  # fuzzy-strong
        homs = fuzzy.enumerate_unit_homs(src, dst)
        verdicts = [
            functors.strong_extension_search(src, dst, dict(h)).verdict for h in homs
        ]
        accepted = verdicts.count("extends")
        print(f"{accepted} strong morphisms (of {len(homs)} unit maps)")
        undecided = verdicts.count("unknown")
        if undecided:
            print(f"{undecided} unit maps undecided: the search ran out of budget")
    return EXIT_OK


def cmd_matroids(args) -> int:
    for flag, value in (("-n", args.n), ("-r", args.r)):
        if value < 0:
            print(f"error: {flag} must be non-negative, got {value}", file=sys.stderr)
            return EXIT_USAGE
    coeff = _load(args.coeff)
    enum = matroid.enumerate_gp(coeff, args.n, args.r, normalize=args.normalize)
    print(f"{len(enum)} Grassmann-Pluecker functions over {coeff.name or 'coeff'}")
    if args.oracle:
        fams = matroid.basis_exchange_oracle(args.n, args.r)
        supports = {matroid.underlying_matroid(phi) for phi in enum}
        print(f"oracle families: {len(fams)}; gp supports: {len(supports)}")
        if set(fams) != supports:
            print("MISMATCH between enumeration and basis-exchange oracle")
            return EXIT_FAIL
        print("oracle agreement: pass")
    return EXIT_OK


def cmd_iso(args) -> int:
    kind = "hyperring" if args.kind == "hyperring" else "fuzzyring"
    a, b = _load(args.a, kind), _load(args.b, kind)
    if kind == "fuzzyring" and _fuzzy_rings_fail([(args.a, a), (args.b, b)]):
        return EXIT_FAIL
    if args.kind == "hyperring":
        witness = hyper.iso_hyper(a, b)
    else:
        witness = fuzzy.weak_iso(a, b)
    if witness is None:
        print("no isomorphism")
        return EXIT_FAIL
    print(f"isomorphism: {witness}")
    return EXIT_OK


def cmd_triangle_demo(args) -> int:
    rep = ddhyper.triangle_counterexample()
    print(f"2 (+) 3             = {rep.two_plus_three}")
    print(f"(2 (+) 3)^2         = {rep.square}")
    print(f"4 (+) 6 (+) 6 (+) 9 = {rep.expanded}")
    print("equal" if rep.equal else "not equal: double distributivity fails")
    return EXIT_OK


def cmd_ordgrp_demo(args) -> int:
    b = args.window
    if b < 1:
        raise ValueError("window must be >= 1")
    ok = True
    ok &= _print_report(
        f"hypergroup laws on [-{b},{b}]", ordgrp.check_window_hypergroup(b)
    )
    ok &= _print_report(
        f"double distributivity on [-{b},{b}]",
        ordgrp.check_window_doubly_distributive(b),
    )
    ok &= _print_report(
        f"fuzzy ring laws on [-{b},{b}]", ordgrp.check_window_fuzzy_axioms(b)
    )
    ok &= _print_report(
        f"reduced powerset ring matches symbolic ring on [-{b},{b}]",
        ordgrp.check_fbar_hgamma_iso_kgamma(b),
    )
    return EXIT_OK if ok else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: main() parses
    each argv with it, and every parse starts from a fresh namespace."""
    p = argparse.ArgumentParser(
        prog="hyperalg",
        description="Finite hyperrings, fuzzy rings, and their functors.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify the axioms of a structure file")
    c.add_argument("path")
    c.add_argument(
        "--kind",
        choices=["hyperring", "fuzzyring", "gp", "zariski", "demifield"],
    )
    c.set_defaults(func=cmd_check)

    c = sub.add_parser("construct", help="build a structure and write it out")
    c.add_argument(
        "op", choices=["F", "Fbar", "G", "quotient", "KH", "KHef", "unitfield", "F1"]
    )
    c.add_argument("--in", dest="src", required=True, help="input file/builtin/group")
    c.add_argument("--out", required=True)
    c.add_argument("--units", default="", help="for quotient: U as indices, e.g. 1,4")
    c.set_defaults(func=cmd_construct)

    c = sub.add_parser("morphisms", help="enumerate morphisms between structures")
    c.add_argument("src")
    c.add_argument("dst")
    c.add_argument(
        "--kind",
        choices=["hyperring", "fuzzy-weak", "fuzzy-strong"],
        default="hyperring",
    )
    c.add_argument("--strict", action="store_true")
    c.set_defaults(func=cmd_morphisms)

    c = sub.add_parser("matroids", help="enumerate Grassmann-Pluecker functions")
    c.add_argument("--coeff", required=True)
    c.add_argument("-n", type=int, required=True)
    c.add_argument("-r", type=int, required=True)
    c.add_argument("--oracle", action="store_true")
    c.add_argument("--normalize", action="store_true")
    c.set_defaults(func=cmd_matroids)

    c = sub.add_parser("iso", help="search for an isomorphism")
    c.add_argument("a")
    c.add_argument("b")
    c.add_argument(
        "--kind", choices=["hyperring", "fuzzy-weak"], default="hyperring"
    )
    c.set_defaults(func=cmd_iso)

    c = sub.add_parser("triangle-demo", help="interval counterexample demo")
    c.set_defaults(func=cmd_triangle_demo)

    c = sub.add_parser("ordgrp-demo", help="window checks for the ordered-group structures")
    c.add_argument("--window", type=int, default=3)
    c.set_defaults(func=cmd_ordgrp_demo)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as e:  # io.StructureError included
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
