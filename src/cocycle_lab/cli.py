"""Command-line front-end for generating, classifying, and verifying structures.

Subcommands: generate, classify, braidings, check-hexagon, cohomology,
hopf {reassociator, build, delta-crosscheck}, verify-paper.  All output is
JSON unless a table format is requested; exit codes are 0 on success, 1 on
invalid input, 2 when a classification is undecidable.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .braidings import (
    categorical_hexagon_check,
    enumerate_klein_braidings,
    hexagon_failure,
    is_symmetric,
)
from .cochains import (
    Cochain,
    NotACocycle,
    cohomology,
    cyclic_phi_q,
    cyclic_qabc,
)
from .groups import FiniteAbelianGroup, cyclic, klein
from .hopf import (
    check_weak_hopf,
    cyclic_comult_crosscheck,
    cyclic_power_twist,
    klein_diagonal_twist,
    klein_mixed_twist,
    reassociator_phi_l,
)
from .klein import classify, g_b, h_a, phi_X
from .scalars import CycScalar, root_of_unity
from .verify import run_claims

_SCALAR_RE = re.compile(
    r"^(?P<sign>-?)(?:(?P<num>\d+)(?:/(?P<den>\d+))?|(?P<i>i)|zeta(?P<n>\d+)(?:\^(?P<k>-?\d+))?)$"
)


def parse_scalar(text: str, conductor: int) -> CycScalar:
    """Parse '2', '-1', '1/2', 'i', '-i', 'zeta3', 'zeta8^3' into a scalar."""
    match = _SCALAR_RE.match(text.strip())
    if not match:
        raise ValueError(f"cannot parse scalar {text!r}")
    if match["num"] is not None:
        value = Fraction(int(match["num"]), int(match["den"] or 1))
        scalar = CycScalar.rational(value, 1)
    elif match["i"]:
        scalar = root_of_unity(4, 1)
    else:
        scalar = root_of_unity(int(match["n"]), int(match["k"] or 1))
    if match["sign"]:
        scalar = -scalar
    if conductor % scalar.conductor == 0:
        scalar = scalar.lift(conductor)
    return scalar


def _parse_group(spec: str) -> FiniteAbelianGroup:
    spec = spec.strip().lower()
    if spec in ("klein", "c2xc2", "2x2"):
        return klein()
    match = re.match(r"^c(\d+)$", spec)
    if match:
        return cyclic(int(match.group(1)))
    match = re.match(r"^\[([\d,\s]+)\]$", spec)
    if match:
        return FiniteAbelianGroup([int(t) for t in match.group(1).split(",")])
    raise ValueError(f"cannot parse group {spec!r}")


def _read_json(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as handle:
        return json.load(handle)


def _emit(data) -> None:
    print(json.dumps(data, indent=1))


def cmd_generate(args) -> int:
    family = args.family
    if family == "phi_X":
        names = [t for t in (args.X or "").replace(" ", "").split(",") if t]
        table = phi_X(names)
    elif family == "h_a":
        if args.a is None:
            raise ValueError("--a is required for the h family")
        table = h_a(parse_scalar(args.a, args.conductor))
    elif family == "g_b":
        if args.b is None:
            raise ValueError("--b is required for the g family")
        table = g_b(parse_scalar(args.b, args.conductor))
    elif family == "phi_q":
        q = parse_scalar(args.q, args.conductor) if args.q else root_of_unity(args.n, 1)
        table = cyclic_phi_q(args.n, q)
    elif family == "qabc":
        q = parse_scalar(args.q, args.conductor) if args.q else root_of_unity(args.n, 1)
        table = cyclic_qabc(args.n, q)
    else:
        raise ValueError(f"unknown family {family!r}")
    _emit(table.to_json())
    return 0


def cmd_classify(args) -> int:
    table = Cochain.from_json(_read_json(args.input))
    if table.group.orders != (2, 2) or table.degree != 3:
        print("input must be a degree-3 cochain on the [2,2] group", file=sys.stderr)
        return 1
    field = args.conductor  # square classes are decided in Q(zeta_field)
    if outside := [v.conductor for v in table.values if field % v.conductor]:
        raise ValueError(f"--conductor {field}: a value of conductor {outside[0]} is not in Q(zeta_{field})")
    table = Cochain(table.group, 3, [v.lift(field) for v in table.values])
    try:
        result = classify(table)  # checks the cocycle law once
    except NotACocycle as failure:
        print(
            "not a 3-cocycle; first failing quadruple: "
            + str([g.to_json() for g in failure.point]),
            file=sys.stderr,
        )
        return 1
    _emit(result.to_json())
    return 2 if result.b_class == "undecided" else 0


def cmd_braidings(args) -> int:
    reps = enumerate_klein_braidings(args.conductor)
    if args.format == "json":
        _emit([ac.to_json(label) for label, ac in reps])
        return 0
    G = klein()
    named = (G.sigma, G.tau, G.rho)
    pairs = [(x, y) for x in named for y in named]
    header = "label     " + "".join(f"{f'R({x},{y})':>12}" for x, y in pairs) + "  symmetric"
    print(header)
    for label, ac in reps:
        cells = "".join(f"{str(ac.R(*p)):>12}" for p in pairs)
        print(f"{label:<10}{cells}  {'yes' if is_symmetric(ac) else 'no'}")
    return 0


def cmd_check_hexagon(args) -> int:
    phi = Cochain.from_json(_read_json(args.phi))
    r_matrix = Cochain.from_json(_read_json(args.r))
    bad = hexagon_failure(phi, r_matrix)
    oracle = categorical_hexagon_check(phi, r_matrix)
    result = {
        "hexagons_hold": bad is None,
        "matrix_oracle": oracle,
    }
    if bad is not None:
        which, x, y, z = bad
        result["first_failure"] = {
            "identity": which,
            "triple": [g.to_json() for g in (x, y, z)],
        }
    _emit(result)
    return 0 if bad is None else 1


def cmd_cohomology(args) -> int:
    group = _parse_group(args.group)
    report = cohomology(group, args.degree, args.modulus)
    data = report.to_json()
    if args.generators:
        data["generators"] = [gen.to_json() for gen in report.generators]
    _emit(data)
    return 0


def cmd_hopf_reassociator(args) -> int:
    xi = parse_scalar(args.xi, args.conductor) if args.xi else root_of_unity(args.n, 1)
    _emit(reassociator_phi_l(args.n, args.l, xi).to_json())
    return 0


def cmd_hopf_build(args) -> int:
    family = args.family
    if family == "prop54i":
        if args.a is None:
            raise ValueError("--a is required for this family")
        built = klein_diagonal_twist(parse_scalar(args.a, args.conductor))
    elif family == "prop54ii":
        if args.d is None:
            raise ValueError("--d is required for this family")
        built = klein_mixed_twist(parse_scalar(args.d, args.conductor))
    elif family == "prop53":
        q = parse_scalar(args.q, args.conductor) if args.q else None
        built = cyclic_power_twist(args.n, q)
    else:
        raise ValueError(f"unknown family {family!r}")
    G = built.group
    exit_code, report = 0, None
    if args.check:  # before serializing: a group past the law bound is refused at once
        report = check_weak_hopf(built)
        print(report.summary(), file=sys.stderr)
        exit_code = 0 if report.passed else 1
    data = {
        "group": G.to_json(),
        "multiplication": [
            {
                "left": x.to_json(),
                "right": y.to_json(),
                "coeff": coeff.to_json(),
                "result": elem.to_json(),
            }
            for (x, y), (coeff, elem) in sorted(
                built.multiplication.items(),
                key=lambda kv: (kv[0][0].exponents, kv[0][1].exponents),
            )
        ],
        "comultiplication": {
            str(x): built.comultiplication[x].to_json() for x in G.elements()
        },
        "counit": {str(x): built.counit[x].to_json() for x in G.elements()},
    }
    if report is not None:
        data["axioms"] = report.results
    _emit(data)
    return exit_code


def cmd_hopf_crosscheck(args) -> int:
    q = parse_scalar(args.q, args.conductor) if args.q else None
    _emit(cyclic_comult_crosscheck(args.n, q))
    return 0


def cmd_verify(args) -> int:
    report = run_claims(args.only)
    print(report.summary())
    if args.json:
        _emit(report.to_json())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocycle-lab",
        description="construct, verify, and classify braided structures on graded vector spaces",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--conductor",
        type=int,
        default=4,
        help="conductor of the ambient cyclotomic field (default 4)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a cocycle family table as JSON", parents=[shared])
    p.add_argument("--family", required=True, choices=["phi_X", "h_a", "g_b", "phi_q", "qabc"])
    p.add_argument("--X", help="comma-separated subset of sigma,tau,rho")
    p.add_argument("--a", help="scalar parameter for the h family")
    p.add_argument("--b", help="scalar parameter for the g family")
    p.add_argument("--n", type=int, default=2, help="cyclic group order")
    p.add_argument("--q", help="root-of-unity parameter (default: zeta_n)")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("classify", parents=[shared], help="cohomology class of a Klein 3-cocycle")
    p.add_argument("--input", required=True, help="cochain JSON file, or - for stdin")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("braidings", parents=[shared], help="enumerate the Klein braiding census")
    p.add_argument("--group", default="klein", choices=["klein"])
    p.add_argument("--format", default="table", choices=["table", "json"])
    p.set_defaults(fn=cmd_braidings)

    p = sub.add_parser("check-hexagon", parents=[shared], help="test a (phi, R) pair against the hexagons")
    p.add_argument("--phi", required=True)
    p.add_argument("--r", required=True)
    p.set_defaults(fn=cmd_check_hexagon)

    p = sub.add_parser("cohomology", parents=[shared], help="invariant factors of H^n(G, mu_m)")
    p.add_argument("--group", required=True, help="klein, cN, or [n1,n2,...]")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--generators", action="store_true", help="include generator cochains")
    p.set_defaults(fn=cmd_cohomology)

    hopf = sub.add_parser("hopf", help="reassociators and twisted structures")
    hopf_sub = hopf.add_subparsers(dest="hopf_command", required=True)

    p = hopf_sub.add_parser("reassociator", parents=[shared], help="closed-form reassociator on k[C_n]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--xi", help="primitive n-th root (default zeta_n)")
    p.set_defaults(fn=cmd_hopf_reassociator)

    p = hopf_sub.add_parser("build", parents=[shared], help="build a twisted weak Hopf structure")
    p.add_argument("--family", required=True, choices=["prop54i", "prop54ii", "prop53"])
    p.add_argument("--a", help="parameter of the diagonal twist")
    p.add_argument("--d", help="parameter of the mixed twist")
    p.add_argument("--n", type=int, default=3, help="cyclic group order")
    p.add_argument("--q", help="root parameter for the cyclic family")
    p.add_argument("--check", action="store_true", help="run the six axiom checks")
    p.set_defaults(fn=cmd_hopf_build)

    p = hopf_sub.add_parser("delta-crosscheck", parents=[shared], help="coproduct coefficient comparison")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", help="root parameter (default zeta_n)")
    p.set_defaults(fn=cmd_hopf_crosscheck)

    p = sub.add_parser("verify-paper", parents=[shared], help="run the full verification suite")
    p.add_argument("--only", help="restrict to one section of claims")
    p.add_argument("--json", action="store_true", help="also emit the report as JSON")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.conductor < 1:
            raise ValueError(f"--conductor must be a positive integer, got {args.conductor}")
        return args.fn(args)
    except (ValueError, TypeError, OSError, KeyError, json.JSONDecodeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
