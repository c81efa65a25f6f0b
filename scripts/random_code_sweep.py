#!/usr/bin/env python3
"""Sweep seeded random codes through the three-way MacWilliams cross-check.

For each (q, t) pair this verifies that the brute-force dual distribution,
the eigenmatrix transform, and the functional transform agree exactly, and
that both moment identities and their corollaries hold for every phi. A
code whose own or dual enumeration exceeds the budget is reported as
skipped, with both dimensions, and the sweep goes on; only a mismatch makes
the exit status non-zero.

    python scripts/random_code_sweep.py --count 50 --seed 7
    python scripts/random_code_sweep.py --pairs 2,4 3,5
"""

import argparse
import random
import sys
import time

from skewrank.selftest import random_code_sweep

DEFAULT_PAIRS = ["2,4", "2,5", "2,6", "3,4", "3,5", "17,4"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=25, help="codes per (q,t)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--pairs", nargs="*", default=DEFAULT_PAIRS,
        help="q,t pairs, e.g. --pairs 2,4 3,5",
    )
    args = ap.parse_args()

    rng = random.Random(args.seed)
    failures = skips = 0
    for pair in args.pairs:
        q, t = (int(x) for x in pair.split(","))
        start = time.perf_counter()
        verified = skipped = 0
        for code, rep, ok in random_code_sweep(rng, [(q, t)], args.count):
            if rep is None:
                skipped += 1
                dual_k = code.params.num_coords - code.k
                print(f"  skipped q={q} t={t} k={code.k} dual k={dual_k}: "
                      f"over the enumeration budget")
            elif ok:
                verified += 1
            else:
                failures += 1
                print(f"  MISMATCH at q={q} t={t} k={code.k}: "
                      f"{rep.to_dict()}")
        elapsed = time.perf_counter() - start
        skips += skipped
        print(
            f"q={q} t={t}: {verified}/{args.count} codes verified"
            f"{f', {skipped} skipped' if skipped else ''} ({elapsed:.2f}s)"
        )
    if failures:
        print(f"{failures} failures")
        return 1
    print(f"all checked codes verified, {skips} skipped" if skips
          else "all codes verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
