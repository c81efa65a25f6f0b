"""Command-line front end.

Subcommands map one-to-one onto the library modules; output is JSON by
default (big integers rendered as decimal strings) or aligned text with
--format=text.  Exit codes: 0 success / verdict true, 1 verdict false,
2 usage error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import gfcodes, homopoly, krawtchouk, macwilliams, moments
from .gfcodes import CodeFormatError, EnumerationBudgetError
from .qcombinat import SchemeParams
from .selftest import run_selftest

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj))
        return
    for key, val in obj.items():
        if isinstance(val, list) and val and isinstance(val[0], list):
            print(f"{key}:")
            for row in val:
                print("  " + " ".join(str(x) for x in row))
        elif isinstance(val, list):
            print(f"{key}: " + " ".join(str(x) for x in val))
        else:
            print(f"{key}: {val}")


def _load_code(path: str | None) -> gfcodes.LinearCode:
    if not path:
        raise ValueError("--code PATH is required for this subcommand")
    return gfcodes.parse_code(Path(path).read_text(encoding="utf-8"))


def _params_from(args: argparse.Namespace) -> SchemeParams:
    if args.q is None or args.t is None:
        raise ValueError("--q and --t are required here")
    return SchemeParams(args.q, args.t)


def _dist_strs(counts) -> list[str]:
    return [str(c) for c in counts]


def cmd_wdist(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    dist = gfcodes.weight_distribution(code, args.budget)
    _emit(
        {
            "q": code.params.q,
            "t": code.params.t,
            "k": code.k,
            "dist": _dist_strs(dist.counts),
        },
        args.format,
    )
    return EXIT_OK


def cmd_dual(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    dcode = gfcodes.dual(code)
    _emit(
        {
            "q": code.params.q,
            "t": code.params.t,
            "k": dcode.k,
            "basis": [list(r) for r in dcode.basis_rows()],
        },
        args.format,
    )
    return EXIT_OK


def cmd_macwilliams(args: argparse.Namespace) -> int:
    if args.code:
        code = _load_code(args.code)
        params = code.params
        dist = gfcodes.weight_distribution(code, args.budget)
        counts: list[int] = list(dist.counts)
        size = code.size
    else:
        if args.dist is None or args.size is None:
            raise ValueError("need --code, or --dist with --size (and --q/--t)")
        params = _params_from(args)
        counts = [int(c) for c in args.dist.split(",")]
        size = args.size
    w_mat = macwilliams.transform_matrix(counts, size, params)
    w_fun = macwilliams.transform_functional(counts, size, params)
    agree = w_mat.counts == w_fun.counts
    _emit(
        {
            "q": params.q,
            "t": params.t,
            "size": str(size),
            "dist": _dist_strs(counts),
            "dual_matrix": _dist_strs(w_mat.counts),
            "dual_functional": _dist_strs(w_fun.counts),
            "agree": agree,
        },
        args.format,
    )
    return EXIT_OK if agree else EXIT_FALSE


def cmd_krawtchouk(args: argparse.Namespace) -> int:
    params = _params_from(args)
    mat = krawtchouk.p_matrix(params)
    _emit(
        {
            "q": params.q,
            "t": params.t,
            "n": params.n,
            "matrix": [[str(v) for v in row] for row in mat.entries],
        },
        args.format,
    )
    return EXIT_OK


def cmd_omega(args: argparse.Namespace) -> int:
    params = _params_from(args)
    om = homopoly.omega(params)
    coeffs = [c.eval_lambda(0) for c in om.coeffs]
    _emit(
        {
            "q": params.q,
            "t": params.t,
            "coeffs": [str(int(c)) for c in coeffs],
        },
        args.format,
    )
    return EXIT_OK


def _fraction_str(x: Fraction) -> str:
    return str(x)


def cmd_moments(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    params = code.params
    dist = gfcodes.weight_distribution(code, args.budget)
    dcode = gfcodes.dual(code)
    ddist = gfcodes.weight_distribution(dcode, args.budget)
    phis = [args.phi] if args.phi is not None else list(range(params.n + 1))
    checks = []
    ok = True
    for phi in phis:
        l1, r1 = moments.check_first_moment(dist, ddist, phi, params)
        checks.append(
            {
                "name": "first_moment",
                "phi": phi,
                "lhs": _fraction_str(l1),
                "rhs": _fraction_str(r1),
                "ok": l1 == r1,
            }
        )
        l2, r2 = moments.check_second_moment(dist, ddist, phi, code.k, params)
        checks.append(
            {
                "name": "second_moment",
                "phi": phi,
                "lhs": _fraction_str(l2),
                "rhs": _fraction_str(r2),
                "ok": l2 == r2,
            }
        )
        ok = ok and l1 == r1 and l2 == r2
    d_dual = None
    if dcode.k > 0:
        d_dual = gfcodes.min_distance(dcode, args.budget)
    for chk in moments.corollary_bounds(
        dist, params, d_dual, gfcodes.diameter(dcode, args.budget)
    ):
        if args.phi is not None and chk.phi != args.phi:
            continue
        checks.append(
            {
                "name": chk.name,
                "phi": chk.phi,
                "lhs": _fraction_str(chk.lhs),
                "rhs": _fraction_str(chk.rhs),
                "ok": chk.ok,
            }
        )
        ok = ok and chk.ok
    _emit(
        {
            "q": params.q,
            "t": params.t,
            "k": code.k,
            "dist": _dist_strs(dist.counts),
            "dual_dist": _dist_strs(ddist.counts),
            "checks": checks,
            "ok": ok,
        },
        args.format,
    )
    return EXIT_OK if ok else EXIT_FALSE


def cmd_msrd_dist(args: argparse.Namespace) -> int:
    params = _params_from(args)
    if args.d is None:
        raise ValueError("--d is required for msrd-dist")
    dist = moments.msrd_distribution(params, args.d)
    _emit(
        {
            "q": params.q,
            "t": params.t,
            "d": args.d,
            "size": str(dist.size),
            "dist": _dist_strs(dist.counts),
        },
        args.format,
    )
    return EXIT_OK


def cmd_msrd_find(args: argparse.Namespace) -> int:
    params = _params_from(args)
    if args.d is None:
        raise ValueError("--d is required for msrd-find")
    code = moments.find_msrd(params, args.d, budget=args.budget, seed=args.seed)
    if code is None:
        _emit(
            {"q": params.q, "t": params.t, "d": args.d, "found": False},
            args.format,
        )
        return EXIT_BUDGET
    dist = gfcodes.weight_distribution(code)
    _emit(
        {
            "q": params.q,
            "t": params.t,
            "d": args.d,
            "found": True,
            "k": code.k,
            "basis": [list(r) for r in code.basis_rows()],
            "dist": _dist_strs(dist.counts),
        },
        args.format,
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    report = macwilliams.verify_code(code, args.budget)
    _emit(report.to_dict(), args.format)
    return EXIT_OK if report.verdict else EXIT_FALSE


def cmd_selftest(args: argparse.Namespace) -> int:
    results = run_selftest(seed=args.seed)
    ok = all(flag for _, flag in results)
    _emit(
        {
            "checks": [{"name": name, "ok": flag} for name, flag in results],
            "ok": ok,
        },
        args.format,
    )
    return EXIT_OK if ok else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewrank",
        description=(
            "Exact MacWilliams identities for codes of alternating matrices "
            "under the skew rank metric."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--code", help="path to a code file")
        p.add_argument("--q", type=int, help="field size (prime power)")
        p.add_argument("--t", type=int, help="matrix order")
        p.add_argument("--d", type=int, help="minimum skew rank distance")
        p.add_argument("--dist", help="comma-separated weight distribution")
        p.add_argument("--size", type=int, help="code size for --dist")
        p.add_argument("--phi", type=int, help="restrict moment checks to one phi")
        p.add_argument(
            "--format", choices=("json", "text"), default="json",
            help="output format (default json)",
        )
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument(
            "--budget", type=int, default=gfcodes.DEFAULT_BUDGET,
            help="enumeration budget (for msrd-find: candidate samples)",
        )

    commands = {
        "wdist": (cmd_wdist, "weight distribution of a code file"),
        "dual": (cmd_dual, "dual code basis"),
        "macwilliams": (
            cmd_macwilliams,
            "both MacWilliams transforms of a distribution or code",
        ),
        "krawtchouk": (cmd_krawtchouk, "the (n+1)x(n+1) eigenmatrix"),
        "omega": (cmd_omega, "weight enumerator of the whole space"),
        "moments": (cmd_moments, "moment identity checks for a code"),
        "msrd-dist": (cmd_msrd_dist, "forced MSRD weight distribution"),
        "msrd-find": (cmd_msrd_find, "randomized search for an MSRD code"),
        "verify": (cmd_verify, "three-way MacWilliams cross-check"),
        "selftest": (cmd_selftest, "run the condensed identity suite"),
    }
    for name, (fn, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except EnumerationBudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CodeFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
