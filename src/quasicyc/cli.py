"""Command-line surface: tables, check suites, characters, cohomology, transport.

Subcommands:

  table       multiplication table as TSV, optionally twisted
  verify      run a named check suite and emit a JSON certificate
  character   evaluate the volume character on a tuple of group elements
  cohomology  braided Hochschild or cyclic dimension report as JSON
  twist       transport a serialized cyclic cochain by the preset twist

Exit codes: 0 success, 1 failed verification, 2 usage or input error.
Sampled checks take --seed (default 0); rerunning a command with the same
arguments and seed is byte-identical.  Only the window samples on groups
with a free part are sampled: on a finite group every check is exhaustive
or exact and none reads the seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from functools import lru_cache

from .calculus import (
    DegreeMismatch,
    KindMismatch,
    character_closed,
    character_direct,
    check_calculus,
)
from .cochains import (
    braiding_R,
    check_cochain_laws,
    coboundary_phi,
    domain_elements,
)
from .cyclic import (
    MAX_FILE_DIM,
    CyclicCochain,
    cohomology_dims,
    identity_suite,
    mixed_complex_report,
    operators,
    periodicity_report,
)
from .groups import InfiniteGroup, SpecMismatch
from .presets import Preset, load, read_json
from .quasialgebra import (
    GradedElement,
    check_algebra_laws,
    check_ribbon_axiom,
    twisted_product,
)
from .scalars import RingMismatch, Scalar
from .twist import (
    TransportPrefactor,
    _timestamp,
    cert_row,
    certificate_ok,
    transport,
    verify_transport,
)

# periodicity needs an exact kernel basis of C^k and applies S, lambda and b
# to it on C^(k+2) -> C^(k+3), so its cost grows with |G|^(k+3).  On the
# octonions degree 2 takes 0.6-0.9 s and degree 3 19-23 s in-process
# on a 2-vCPU host; capped so the suite stays at desk scale
PERIODICITY_DEGREE_CAP = 2

_SUITES = ("cochain", "algebra", "calculus", "cyclic", "twist", "all")


def _check_degree_max(pre: Preset, degree_max: int, extra: int) -> None:
    """Reject, before anything is built, a --degree-max whose largest cochain
    space |G|^(degree_max + extra) exceeds a cochain file's MAX_FILE_DIM."""
    n, top = pre.group.order() or 1, degree_max + extra
    if n ** min(top, MAX_FILE_DIM.bit_length()) > MAX_FILE_DIM:
        raise ValueError(f"--degree-max {degree_max} on a group of order {n} needs cochains on "
                         f"|G|^{top} > {MAX_FILE_DIM} support tuples")


def _domain_for(pre: Preset, window: int):
    if pre.group.free_rank:
        return ("window", window)
    return "exhaustive"


def _law_rows(prefix: str, reports) -> list[dict]:
    return [
        cert_row(
            f"{prefix}.{rep.law}", "pass" if rep.holds else "fail", rep.domain,
            None if rep.holds
            else repr(rep.counterexample) + (f" ({rep.detail})" if rep.detail else ""),
        )
        for rep in reports
    ]


def _skip_rows(prefix: str, names, reason: str) -> list[dict]:
    return [cert_row(f"{prefix}.{n}", f"skipped: {reason}") for n in names]


# -- suites --------------------------------------------------------------------


def _suite_cochain(pre: Preset, args) -> list[dict]:
    F = pre.cochain()
    domain = _domain_for(pre, args.window)
    phi = coboundary_phi(F)
    rows = _law_rows("cochain", [
        check_cochain_laws(F, "unital", domain),
        replace(check_cochain_laws(phi, "unital", domain), law="phi_unital"),
        check_cochain_laws(phi, "three_cocycle", domain),
    ])
    # whether F itself is a 2-cocycle (and R a bicharacter) varies by preset
    for x, law in ((F, "two_cocycle"), (braiding_R(F), "bicharacter")):
        rep = check_cochain_laws(x, law, domain)
        status = "holds" if rep.holds else "does not hold"
        rows.append(cert_row(f"cochain.{law}", status, rep.domain))
    return rows


def _suite_algebra(pre: Preset, args) -> list[dict]:
    F = pre.cochain()
    domain = _domain_for(pre, args.window)
    return _law_rows("algebra", [
        check_algebra_laws(F, "braided_commutativity", domain),
        check_algebra_laws(F, "quasi_associativity", domain),
        check_ribbon_axiom(F, pre.ribbon_weight(), domain),
    ])


def _suite_calculus(pre: Preset, args) -> list[dict]:
    spec = pre.calculus()
    F = pre.cochain()
    domain = _domain_for(pre, args.window)
    rows = []
    for law in ("leibniz", "d_squared", "closedness", "graded_trace", "d_products_vanish"):
        kmax = min(args.degree_max, spec.n) if law == "d_products_vanish" else None
        try:
            rep = check_calculus(spec, law, F=F, domain=domain, degree_max=kmax)
        except KindMismatch as exc:
            rows += _skip_rows("calculus", [law], str(exc))
            continue
        rows += _law_rows("calculus", [rep])
    return rows


def _suite_cyclic(pre: Preset, args) -> list[dict]:
    grp = pre.group
    chi = pre.ribbon_weight()
    window = args.window if grp.free_rank else None
    rows = _law_rows("cyclic", identity_suite(
        grp, chi, args.degree_max, window=window, seed=args.seed,
    ))
    if grp.free_rank:
        rows += _skip_rows(
            "cyclic",
            ("mixed_complex", "periodicity"),
            "needs a finite group",
        )
        return rows
    rows += _law_rows("cyclic", mixed_complex_report(grp, chi, args.degree_max))
    rows += _law_rows("cyclic", periodicity_report(
        grp, chi, min(args.degree_max, PERIODICITY_DEGREE_CAP),
    ))
    return rows


def _suite_twist(pre: Preset, args) -> list[dict]:
    window = args.window if pre.group.free_rank else None
    cert = verify_transport(
        pre.cochain(),
        pre.ribbon_weight(),
        pre.group,
        args.degree_max,
        calculus=pre.calculus(),
        window=window,
        seed=args.seed,
        preset=pre.name,
    )
    return cert["identities"]


_SUITE_FNS = {
    "cochain": _suite_cochain,
    "algebra": _suite_algebra,
    "calculus": _suite_calculus,
    "cyclic": _suite_cyclic,
    "twist": _suite_twist,
}


# -- subcommands ---------------------------------------------------------------


def _cmd_table(pre: Preset, args) -> int:
    grp = pre.group
    F = pre.cochain() if args.twisted else None
    els, _ = domain_elements(grp, _domain_for(pre, 1))
    labels = [grp.render_element(g) for g in els]
    out = ["\t".join(["."] + labels)]
    for g in els:
        cells = [grp.render_element(g)]
        for h in els:
            prod = twisted_product(
                F, GradedElement.basis(grp, g), GradedElement.basis(grp, h)
            )
            cells.append(_signed_label(grp, prod))
        out.append("\t".join(cells))
    print("\n".join(out))
    return 0


def _signed_label(grp, a: GradedElement) -> str:
    ((g, c),) = a.terms.items()
    name = grp.render_element(g)
    if c == Scalar.one():
        return name
    if c == -Scalar.one():
        return "-" + name
    return f"({c.render()})*{name}"


def _cmd_verify(pre: Preset, args) -> int:
    if pre.group.free_rank and not args.window:
        # window(0) holds only the identity, so every row would pass vacuously
        raise ValueError("--window must be >= 1 on a group with a free part")
    _check_degree_max(pre, args.degree_max, 2)
    suites = _SUITES[:-1] if args.suite == "all" else (args.suite,)
    rows = []
    for s in suites:
        rows += _SUITE_FNS[s](pre, args)
    cert = {
        "preset": pre.name,
        "suite": args.suite,
        "degree_max": args.degree_max,
        "seed": args.seed,
        "identities": rows,
        "timestamp": _timestamp(),
    }
    print(json.dumps(cert, indent=2, sort_keys=True))
    if certificate_ok(cert):
        return 0
    for row in rows:
        if row["status"] == "fail":
            print(
                f"FAILED {row['name']}"
                + (f" at {row['counterexample']}" if "counterexample" in row else ""),
                file=sys.stderr,
            )
    return 1


def _cmd_character(pre: Preset, args) -> int:
    spec = pre.calculus()
    grp = pre.group
    # split at the commas outside parentheses: "(1,0,1)" is one element
    gs = [grp.parse_element(t) for t in re.split(r",(?![^()]*\))", args.args)]
    F = pre.cochain()
    if not args.closed_form:
        val = character_direct(spec, gs, F=F if args.twisted else None)
    else:
        val = character_closed(spec, "torus" if spec.kind == "derivations" else "general", gs)
        if args.twisted:
            val = TransportPrefactor(F).value(tuple(grp.reduce(g) for g in gs)) * val
    print(val.render())
    return 0


def _cmd_cohomology(pre: Preset, args) -> int:
    _check_degree_max(pre, args.degree_max, 1)
    chi, twist = pre.ribbon_weight(), pre.cochain() if args.twisted else None
    rows = cohomology_dims(pre.group, chi, args.degree_max, args.which, twist=twist)
    N = operators(pre.group, chi, twist).N
    report = {
        "preset": pre.name,
        "which": args.which,
        "degree_max": args.degree_max,
        "twisted": args.twisted,
        "field": "Q" if N == 1 else f"Q(zeta_{N})",
        "rows": rows,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_twist(pre: Preset, args) -> int:
    phi = CyclicCochain.from_json(read_json(args.infile, "cochain"))
    out = transport(phi, pre.cochain())
    with open(args.outfile, "w") as fh:
        json.dump(out.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


# -- entry point ---------------------------------------------------------------


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# built once per process: parse_args leaves the parser as it found it
@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="quasicyc",
        description="exact checks for twisted group quasialgebras and braided cyclic cohomology",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, degree=False, seed=False):
        p.add_argument("--preset", required=True, help="built-in name or preset JSON path")
        if degree:
            p.add_argument("--degree-max", type=nonnegative_int, default=2, dest="degree_max")
        if seed:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument(
                "--window",
                type=nonnegative_int,
                default=2,
                help="coordinate bound standing in for exhaustion on infinite groups",
            )

    p = sub.add_parser("table", help="multiplication table as TSV")
    common(p)
    p.add_argument("--twisted", action="store_true")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("verify", help="run a check suite, emit a JSON certificate")
    common(p, degree=True, seed=True)
    p.add_argument("--suite", required=True, choices=_SUITES)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("character", help="volume character at a comma-separated tuple")
    common(p)
    p.add_argument("--args", required=True, help='e.g. "uvw,u,v,w" or "(1,1,1),u,v,w"')
    p.add_argument("--closed-form", action="store_true", dest="closed_form")
    p.add_argument("--twisted", action="store_true")
    p.set_defaults(fn=_cmd_character)

    p = sub.add_parser("cohomology", help="Hochschild or cyclic dimension report")
    common(p, degree=True)
    p.add_argument("--which", required=True, choices=("hh", "hc"))
    p.add_argument("--twisted", action="store_true")
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("twist", help="transport a serialized cyclic cochain")
    common(p)
    p.add_argument("--in", required=True, dest="infile", metavar="COCHAIN_JSON")
    p.add_argument("--out", required=True, dest="outfile", metavar="COCHAIN_F_JSON")
    p.set_defaults(fn=_cmd_twist)
    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        pre = load(args.preset)
        return args.fn(pre, args)
    except (
        SpecMismatch,
        InfiniteGroup,
        KindMismatch,
        DegreeMismatch,
        RingMismatch,
        OSError,
        json.JSONDecodeError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
