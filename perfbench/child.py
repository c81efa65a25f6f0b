"""Fresh-interpreter probes started by run.py, one at a time.

    python3 -S perfbench/child.py setup '[[q, t], ...]'
        Times import, make_field and rank_table for each (q, t) and prints
        the seconds.
    python3 -S perfbench/child.py import
        Times the import of the skewrank CLI module and prints the seconds.

Both expect the package on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def setup(pairs: list[list[int]]) -> float:
    t0 = perf_counter()
    import skewrank
    from skewrank import gfcodes

    for q, t in pairs:
        gfcodes.rank_table(skewrank.SchemeParams(q, t), skewrank.make_field(q))
    return perf_counter() - t0


def import_cli() -> float:
    t0 = perf_counter()
    import skewrank.cli  # noqa: F401

    return perf_counter() - t0


def main() -> int:
    mode = sys.argv[1]
    if mode == "setup":
        print(repr(setup(json.loads(sys.argv[2]))))
        return 0
    if mode == "import":
        print(repr(import_cli()))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
