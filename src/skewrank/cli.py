"""Command-line front end.

Subcommands map one-to-one onto the library modules; output is JSON by
default (big integers rendered as decimal strings) or aligned text with
--format=text.  Exit codes: 0 success / verdict true, 1 verdict false,
2 usage error, 3 enumeration budget exceeded, 4 internal invariant
violated (an ArithmeticError: a bug, never a verdict).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import gfcodes, homopoly, krawtchouk, macwilliams, moments
from .gfcodes import CodeFormatError, EnumerationBudgetError
from .qcombinat import SchemeParams
from .selftest import run_checks

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


def _emit(fmt: str, params: SchemeParams | None = None, **fields) -> None:
    """Print the fields, after q and t when params is given."""
    obj = fields if params is None else {"q": params.q, "t": params.t, **fields}
    if fmt == "json":
        print(json.dumps(obj))
        return
    for key, val in obj.items():
        if isinstance(val, list) and val and isinstance(val[0], (list, dict)):
            # one indented line per row or record
            print(f"{key}:")
            for row in val:
                if isinstance(row, dict):
                    row = [f"{name}={x}" for name, x in row.items()]
                print("  " + " ".join(str(x) for x in row))
        elif isinstance(val, list):
            print(f"{key}: " + " ".join(str(x) for x in val))
        else:
            print(f"{key}: {val}")


def _load_code(path: str) -> gfcodes.LinearCode:
    with open(path, encoding="utf-8") as f:
        return gfcodes.parse_code(f.read())


def _dist_strs(counts) -> list[str]:
    return [str(c) for c in counts]


def cmd_wdist(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    dist = gfcodes.weight_distribution(code, args.budget)
    _emit(args.format, code.params, k=code.k, dist=_dist_strs(dist.counts))
    return EXIT_OK


def cmd_dual(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    dcode = gfcodes.dual(code)
    basis = [list(r) for r in dcode.basis_rows()]
    _emit(args.format, code.params, k=dcode.k, basis=basis)
    return EXIT_OK


def cmd_macwilliams(args: argparse.Namespace) -> int:
    given = [f"--{key}" for key in ("dist", "size", "q", "t")
             if getattr(args, key) is not None]
    if args.code:
        if given:
            raise ValueError(f"--code excludes {', '.join(given)}")
        code = _load_code(args.code)
        params = code.params
        budget = gfcodes.DEFAULT_BUDGET if args.budget is None else args.budget
        counts = gfcodes.weight_distribution(code, budget).counts
        size = code.size
    else:
        if len(given) < 4:
            raise ValueError("need --code, or --dist with --size (and --q/--t)")
        if args.budget is not None:  # nothing is enumerated
            raise ValueError("--dist excludes --budget")
        params = SchemeParams(args.q, args.t)
        counts = [int(c) for c in args.dist.split(",")]
        size = args.size
    w_mat = macwilliams.transform_matrix(counts, size, params)
    w_fun = macwilliams.transform_functional(counts, size, params)
    agree = w_mat.counts == w_fun.counts
    _emit(
        args.format,
        params,
        size=str(size),
        dist=_dist_strs(counts),
        dual_matrix=_dist_strs(w_mat.counts),
        dual_functional=_dist_strs(w_fun.counts),
        agree=agree,
    )
    return EXIT_OK if agree else EXIT_FALSE


def cmd_krawtchouk(args: argparse.Namespace) -> int:
    params = SchemeParams(args.q, args.t)
    mat = krawtchouk.p_matrix(params)
    matrix = [[str(v) for v in row] for row in mat.entries]
    _emit(args.format, params, n=params.n, matrix=matrix)
    return EXIT_OK


def cmd_omega(args: argparse.Namespace) -> int:
    params = SchemeParams(args.q, args.t)
    om = homopoly.omega(params)
    coeffs = [str(int(c.eval_lambda(0))) for c in om.coeffs]
    _emit(args.format, params, coeffs=coeffs)
    return EXIT_OK


def cmd_moments(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    params = code.params
    dist = gfcodes.weight_distribution(code, args.budget)
    ddist = gfcodes.weight_distribution(gfcodes.dual(code), args.budget)
    phis = range(params.n + 1) if args.phi is None else [args.phi]
    checks = moments.moment_checks(dist, ddist, code.k, phis, params)
    ok = all(chk.ok for chk in checks)
    _emit(
        args.format,
        params,
        k=code.k,
        dist=_dist_strs(dist.counts),
        dual_dist=_dist_strs(ddist.counts),
        checks=[
            {
                "name": chk.name,
                "phi": chk.phi,
                "lhs": str(chk.lhs),
                "rhs": str(chk.rhs),
                "ok": chk.ok,
            }
            for chk in checks
        ],
        ok=ok,
    )
    return EXIT_OK if ok else EXIT_FALSE


def cmd_msrd_dist(args: argparse.Namespace) -> int:
    params = SchemeParams(args.q, args.t)
    dist = moments.msrd_distribution(params, args.d)
    _emit(
        args.format,
        params,
        d=args.d,
        size=str(dist.size),
        dist=_dist_strs(dist.counts),
    )
    return EXIT_OK


def cmd_msrd_find(args: argparse.Namespace) -> int:
    params = SchemeParams(args.q, args.t)
    code = moments.find_msrd(params, args.d, budget=args.budget, seed=args.seed)
    if code is None:
        _emit(args.format, params, d=args.d, found=False)
        return EXIT_BUDGET
    dist = gfcodes.weight_distribution(code)
    _emit(
        args.format,
        params,
        d=args.d,
        found=True,
        k=code.k,
        basis=[list(r) for r in code.basis_rows()],
        dist=_dist_strs(dist.counts),
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    report = macwilliams.verify_code(code, args.budget)
    _emit(args.format, **report.to_dict())
    return EXIT_OK if report.verdict else EXIT_FALSE


def cmd_selftest(args: argparse.Namespace) -> int:
    results = run_checks(seed=args.seed)
    for name, _, failure in results:
        if failure is not None:
            print(f"selftest: {name}: {failure}", file=sys.stderr)
    checks = [{"name": name, "ok": failure is None}
              for name, _, failure in results]
    ok = all(chk["ok"] for chk in checks)
    _emit(args.format, checks=checks, ok=ok)
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

    flags = {
        "code": {"help": "path to a code file"},
        "q": {"type": int, "help": "field size (prime power)"},
        "t": {"type": int, "help": "matrix order"},
        "d": {"type": int, "help": "minimum skew rank distance"},
        "dist": {"help": "comma-separated weight distribution"},
        "size": {"type": int, "help": "code size for --dist"},
        "phi": {"type": int, "help": "restrict moment checks to one phi"},
        "seed": {"type": int, "default": 0, "help": "random seed"},
        "budget": {
            "type": int,
            "default": gfcodes.DEFAULT_BUDGET,
            "help": "enumeration budget (for msrd-find: candidate samples)",
        },
    }
    # name: (help, flags read); "!" marks a required flag.  main runs
    # cmd_<name>, "-" read as "_".
    commands = {
        "wdist": ("weight distribution of a code file", "code! budget"),
        "dual": ("dual code basis", "code!"),
        "macwilliams": (
            "both MacWilliams transforms of a distribution or code",
            "code q t dist size budget",
        ),
        "krawtchouk": ("the (n+1)x(n+1) eigenmatrix", "q! t!"),
        "omega": ("weight enumerator of the whole space", "q! t!"),
        "moments": ("moment identity checks for a code", "code! phi budget"),
        "msrd-dist": ("forced MSRD weight distribution", "q! t! d!"),
        "msrd-find": ("randomized search for an MSRD code", "q! t! d! seed budget"),
        "verify": ("three-way MacWilliams cross-check", "code! budget"),
        "selftest": ("run the condensed identity suite", "seed"),
    }
    for name, (help_text, names) in commands.items():
        p = sub.add_parser(name, help=help_text)
        for flag in names.split():
            key = flag.rstrip("!")
            p.add_argument(f"--{key}", required=flag != key, **flags[key])
        p.add_argument(
            "--format", choices=("json", "text"), default="json",
            help="output format (default json)",
        )
    # msrd-find's budget counts candidate samples, not words
    sub.choices["msrd-find"].set_defaults(budget=moments.SEARCH_BUDGET)
    # macwilliams enumerates only with --code, so it must see an unset budget
    sub.choices["macwilliams"].set_defaults(budget=None)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The one parser main reuses, built on its first call, not at import:
    building it costs about 1 ms, more than most commands' own work, and a
    fresh process that only imports the module should not pay it.  Each
    parse_args call fills a new Namespace, so no call sees another's flags.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if (getattr(args, "budget", None) or 0) < 0:  # a count: negative is a typo
            parser.error(f"argument --budget: {args.budget} is negative")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # looked up on each call, not bound in the parser that main reuses,
        # so a cmd_ function replaced after the first call is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except EnumerationBudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CodeFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"invariant error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
