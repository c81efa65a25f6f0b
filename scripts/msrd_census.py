#!/usr/bin/env python3
"""Tabulate forced MSRD weight distributions and search for attaining codes.

For each requested (q, t) pair this prints, for every distance d, the
distribution a bound-attaining code must have, then runs the randomized
search and reports whether a code was found and whether its enumerated
distribution matches.

    python scripts/msrd_census.py --pairs 2,4 2,5 3,4 --budget 20000
"""

import argparse
import sys

from skewrank.gfcodes import dual, min_distance
from skewrank.moments import SEARCH_BUDGET
from skewrank.qcombinat import SchemeParams
from skewrank.selftest import msrd_searches


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", nargs="*", default=["2,4", "2,5", "3,4"])
    ap.add_argument("--budget", type=int, default=SEARCH_BUDGET)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    for pair in args.pairs:
        q, t = (int(x) for x in pair.split(","))
        params = SchemeParams(q, t)
        print(f"q={q} t={t} (n={params.n}, m={params.m})")
        searches = msrd_searches(
            params, range(1, params.n + 1), args.seed, args.budget
        )
        for d, forced, code, found in searches:
            print(f"  d={d}: forced distribution {forced.counts} "
                  f"(size {forced.size})")
            if code is None:
                print("        search: no code found within budget")
                continue
            match = "matches" if found == forced else "MISMATCH"
            dcode = dual(code)
            d_dual = min_distance(dcode) if dcode.k else None
            print(f"        search: found k={code.k}, distribution "
                  f"{found.counts} ({match}); dual min distance {d_dual}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
