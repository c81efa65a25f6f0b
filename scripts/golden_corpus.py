#!/usr/bin/env python3
"""Regenerate the golden CLI corpus under data/golden/.

The corpus is a fixed list of `skewrank` invocations: every subcommand in
both formats, the example code, one seeded code per ranking path, and one
usage error (exit 2) and one exhausted search (exit 3).  `cases.json`
holds each case's name, argv and exit code, in order, and `out/<name>.txt`
its stdout.  tests/test_cli.py replays the whole list in one process
through `cli.main`, in this order, and compares every byte.

Run it from anywhere; argv paths are relative to the repository root:

    python scripts/golden_corpus.py

Regenerate only when an output is meant to change, and name each changed
case and the reason in CHANGES.md.
"""

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

from skewrank import SchemeParams, make_field, random_code, serialize_code
from skewrank.cli import main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "data" / "golden"
EXAMPLE = "data/example_q3_t4.skc"

# one seeded code per ranking path, (q, t, k): a q = 2 table, a q > 2
# table, bit lanes, byte lanes at small k, and word by word at q = 17
SEEDED = ((2, 5, 4), (3, 5, 3), (2, 7, 5), (3, 6, 2), (17, 4, 2))


def code_path(q: int, t: int, k: int) -> str:
    return f"data/golden/codes/q{q}t{t}k{k}.skc"


def write_codes() -> None:
    (GOLDEN / "codes").mkdir(parents=True, exist_ok=True)
    for q, t, k in SEEDED:
        code = random_code(SchemeParams(q, t), make_field(q), k, random.Random(0))
        (REPO / code_path(q, t, k)).write_text(serialize_code(code),
                                               encoding="utf-8")


def cases() -> list[tuple[str, list[str]]]:
    """(name, argv) of every case, in replay order."""
    both = []
    for fmt in ("json", "text"):
        for cmd in ("wdist", "dual", "verify", "moments", "macwilliams"):
            both.append((f"{cmd}-example", [cmd, "--code", EXAMPLE], fmt))
        for name, argv in (
            ("macwilliams-dist", ["macwilliams", "--dist", "1,44,36",
                                  "--size", "81", "--q", "3", "--t", "4"]),
            ("krawtchouk", ["krawtchouk", "--q", "3", "--t", "4"]),
            ("omega", ["omega", "--q", "2", "--t", "6"]),
            ("msrd-dist", ["msrd-dist", "--q", "2", "--t", "5", "--d", "2"]),
            ("msrd-find", ["msrd-find", "--q", "2", "--t", "5", "--d", "2"]),
            ("selftest", ["selftest"]),
        ):
            both.append((name, argv, fmt))
    out = [(f"{name}-{fmt}", argv + ["--format", fmt])
           for name, argv, fmt in both]
    for q, t, k in SEEDED:
        path = code_path(q, t, k)
        out.append((f"wdist-q{q}t{t}k{k}", ["wdist", "--code", path]))
        out.append((f"dual-q{q}t{t}k{k}", ["dual", "--code", path]))
    for q, t, k in SEEDED[:2]:  # tabled, so the duals are cheap to enumerate
        path = code_path(q, t, k)
        out.append((f"verify-q{q}t{t}k{k}", ["verify", "--code", path]))
        out.append((f"moments-q{q}t{t}k{k}", ["moments", "--code", path]))
    # flags a call sets that the next call, without them, must not inherit
    out += [
        ("moments-example-phi1", ["moments", "--code", EXAMPLE, "--phi", "1"]),
        ("moments-example-after", ["moments", "--code", EXAMPLE]),
        ("msrd-find-seed4", ["msrd-find", "--q", "2", "--t", "5", "--d", "2",
                             "--seed", "4", "--budget", "5000"]),
        ("usage-missing-q", ["krawtchouk", "--t", "4"]),
        ("msrd-find-exhausted", ["msrd-find", "--q", "2", "--t", "4",
                                 "--d", "2", "--budget", "300"]),
        ("msrd-find-after", ["msrd-find", "--q", "2", "--t", "5", "--d", "2"]),
        ("selftest-seed1", ["selftest", "--seed", "1"]),
    ]
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call; stderr dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def regenerate() -> int:
    os.chdir(REPO)
    write_codes()
    outdir = GOLDEN / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    for stale in outdir.glob("*.txt"):
        stale.unlink()
    listing = []
    for name, argv in cases():
        code, text = run(argv)
        (outdir / f"{name}.txt").write_text(text, encoding="utf-8")
        listing.append({"name": name, "argv": argv, "exit": code})
    lines = ",\n".join(json.dumps(case) for case in listing)
    (GOLDEN / "cases.json").write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    exits = sorted({c["exit"] for c in listing})
    print(f"{len(listing)} cases written to {GOLDEN}, exit codes {exits}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
