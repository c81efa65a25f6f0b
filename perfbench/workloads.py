"""The four seeded workloads: inputs, operations and output checks.

Each workload is planned from the seed alone (plain `random`, no package
code), so the set-up can be timed on exactly the (q, t) params the workload
uses before any input exists.  `ops(sk)` then materialises the inputs with
the package and returns the op list.  An op's `run` calls the package through
module attributes looked up at call time, so the traced run's wrappers see
every call; its `check` runs outside the timed interval.

Where a property drives the cost (q, t and k), its values are fixed per
workload, or for k in verify-tabled spread evenly over its range, and only
the order, the codes and the CLI's d are random, so two seeds load the same
layers by about the same amount.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9)

# The example code shipped with the package (q=3, t=4, four free entries).
EXAMPLE_CODE = """q=3 t=4 k=4
1 0 0 0 0 0
0 1 0 0 0 0
0 0 1 0 0 0
0 0 0 0 0 1
"""
EXAMPLE_DIST = ["1", "44", "36"]
EXAMPLE_DUAL = ["1", "8", "0"]


@dataclass
class Op:
    label: str
    pair: tuple[int, int] | None  # (q, t), None when the op has no params
    k: int | None  # code dimension, None when the op has no code
    check: Callable[[Any], bool]
    run: Callable[[], Any]
    argv: list[str] | None = None  # CLI ops: arguments after `skewrank`


def num_coords(t: int) -> int:
    return t * (t - 1) // 2


def spread(values: list, count: int, rng: random.Random) -> list:
    """`count` draws from `values`, each value used equally often (+-1), shuffled."""
    out = values * (count // len(values)) + rng.sample(values, count % len(values))
    rng.shuffle(out)
    return out


def weighted_counts(weights: list[float], total: int) -> list[int]:
    """Split `total` in proportion to `weights` (largest remainder)."""
    exact = [w * total / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_rest = sorted(range(len(exact)), key=lambda i: counts[i] - exact[i])
    for i in by_rest[: total - sum(counts)]:
        counts[i] += 1
    return counts


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.code_rng = random.Random(f"{self.name}/{seed}/codes")
        self.workdir = workdir

    def pairs(self) -> list[tuple[int, int]]:
        raise NotImplementedError

    def ops(self, sk) -> list[Op]:
        raise NotImplementedError


def _moment_checks(sk, rep, params, k):
    pairs = []
    for phi in range(params.n + 1):
        pairs.append(sk.check_first_moment(rep.dist, rep.dual_dist_enum, phi, params))
        pairs.append(
            sk.check_second_moment(rep.dist, rep.dual_dist_enum, phi, k, params)
        )
    ranks = [i for i, c in enumerate(rep.dual_dist_enum.counts) if c]
    d_dual = ranks[1] if len(ranks) > 1 else None
    corollary = sk.corollary_bounds(rep.dist, params, d_dual, ranks[-1])
    return pairs, corollary


class VerifyTabled(Workload):
    """Three-way verify plus every moment identity on small, tabled codes."""

    name = "verify-tabled"
    PARAMS = ((2, 5), (2, 6), (3, 4), (3, 5), (4, 4), (5, 4))
    # 200 ops make a pass of about a second, so a run gets ~20 passes: with
    # ~10 the fastest pass still varied by a quarter when the host was slow.
    OPS = 200

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        per = weighted_counts([1] * len(self.PARAMS), self.OPS)
        self.specs = []
        for (q, t), count in zip(self.PARAMS, per):
            ks = spread(list(range(1, num_coords(t))), count, self.rng)
            self.specs += [(q, t, k) for k in ks]
        self.rng.shuffle(self.specs)

    def pairs(self):
        return sorted({(q, t) for q, t, _ in self.specs})

    def ops(self, sk):
        out = []
        for q, t, k in self.specs:
            params = sk.SchemeParams(q, t)
            code = sk.random_code(params, sk.make_field(q), k, self.code_rng)

            def run(code=code, params=params):
                rep = sk.verify_code(code)
                return rep, *_moment_checks(sk, rep, params, code.k)

            def check(out):
                rep, pairs, corollary = out
                return (
                    rep.verdict
                    and all(lhs == rhs for lhs, rhs in pairs)
                    and all(c.ok for c in corollary)
                )

            out.append(Op(f"verify q={q} t={t} k={k}", (q, t), k, check, run=run))
        return out


class WdistUntabled(Workload):
    """weight_distribution where the space is above the rank-table cap."""

    name = "wdist-untabled"
    # (q, t) -> {k: ops}.  q^k runs from 125 to 2^11 words, at 20-30 us a
    # word, so a pass of these 100 ops takes about 0.7 s, and a run times
    # each op 20-40 times even when the host is slow: with ops of up to
    # 220 ms, or passes of 1.3 s, an op's fastest pass varied between runs
    # by a quarter or a sixth.  At (2,7), N = 21, so k = 11 is above N/2.
    # The counts put the median and the 90th percentile inside a block of
    # ops of one size, (3,6,5) and (5,5,4), not on the edge between two
    # sizes.
    OPS = {
        (2, 7): {7: 14, 8: 14, 9: 2, 11: 2},
        (2, 8): {7: 11, 8: 10},
        (3, 6): {5: 22},
        (5, 5): {3: 14, 4: 11},
    }

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.specs = [
            (q, t, k)
            for (q, t), per_k in self.OPS.items()
            for k, count in per_k.items()
            for _ in range(count)
        ]
        self.rng.shuffle(self.specs)

    def pairs(self):
        return sorted({(q, t) for q, t, _ in self.specs})

    def ops(self, sk):
        out = []
        for q, t, k in self.specs:
            params = sk.SchemeParams(q, t)
            code = sk.random_code(params, sk.make_field(q), k, self.code_rng)

            def check(dist, code=code, params=params):
                counts = dist.counts
                if counts[0] != 1 or sum(counts) != code.size:
                    return False
                image = sk.transform_matrix(dist, code.size, params)  # raises if not integral
                return image.size == params.q ** (params.num_coords - code.k)

            out.append(
                Op(f"wdist q={q} t={t} k={k}", (q, t), k, check,
                   run=lambda code=code: sk.weight_distribution(code))
            )
        return out


class TransformSweep(Workload):
    """MSRD distribution and both MacWilliams transforms at large t."""

    name = "transform-sweep"
    # (q, t) pairs, n = t // 2 from 3 to 7, every field size and both
    # parities of t: one op per d in 1..n gives 100 ops, a pass of about
    # 0.7 s, so a run times each op 20-40 times.  An op is all of its input,
    # so the pairs are fixed and the seed sets the order of the ops, which
    # decides how soon params recur.  When the seed drew q and t, the median
    # op moved by a sixth between seeds; with n up to 11, ops of up to 50 ms
    # and passes of 3 s left the fastest pass varying between runs by a
    # quarter on a slow host.  No pair is small enough for a rank table,
    # which these ops never use: at (2,6) its build was most of setup_s,
    # and it moved by a quarter between sets of runs.
    PARAMS = (
        (2, 7), (5, 7), (8, 6), (3, 6),
        (4, 8), (7, 9), (9, 8), (2, 9), (5, 8),
        (3, 10), (8, 11), (4, 10), (9, 11), (7, 10), (2, 11),
        (5, 12), (3, 13), (8, 12), (4, 13),
        (7, 14), (9, 15),
    )

    def pairs(self):
        return sorted(self.PARAMS)

    def ops(self, sk):
        specs = [(q, t, d) for q, t in self.PARAMS for d in range(1, t // 2 + 1)]
        self.rng.shuffle(specs)
        out = []
        for q, t, d in specs:
            params = sk.SchemeParams(q, t)

            def run(params=params, d=d):
                w = sk.msrd_distribution(params, d)
                return (
                    sk.transform_matrix(w, w.size, params),
                    sk.transform_functional(w, w.size, params),
                )

            def check(out, params=params, d=d):
                # MSRD duality: the dual of a d-MSRD code is (n-d+2)-MSRD.
                want = sk.msrd_distribution(params, params.n - d + 2).counts
                return out[0].counts == out[1].counts == want

            k = params.m * (params.n - d + 1)
            out.append(Op(f"transform q={q} t={t} d={d}", (q, t), k, check, run=run))
        return out


class CliCommands(Workload):
    """One `skewrank` CLI command per op, run through `cli.main` in-process."""

    name = "cli-commands"
    # One op per subcommand, and more of the cheap file commands.  In-process
    # a pass takes about 0.3 s, so a run times each command about 100 times.
    # As one fresh `python -m skewrank.cli` process per op (70-250 ms each,
    # about 20 runs of each in 30 s) the same code's results varied between
    # runs by a sixth to a fifth, past a third of the bound; the cold start
    # (import and rank tables) is timed by setup_s instead.
    # The file commands run on the package's example code and on a
    # generated code (name, q, t, k); k is fixed, because it sets the cost,
    # and the seed draws the code.  The seven of them are the cheapest ops,
    # so the median falls inside that group, and the 90th percentile among
    # krawtchouk, macwilliams and msrd-find, not between ops of very
    # different cost.
    CODE_FILES = (("a", 2, 5, 6),)
    FILE_COMMANDS = {
        "example": ("wdist", "verify", "dual"),
        "a": ("wdist", "verify", "moments", "dual"),
    }
    # Commands on large t, (command, q, t): q and t are fixed, because q
    # moves the cost of these ops by up to a third; the seed draws d.
    LARGE = (("krawtchouk", 4, 22), ("macwilliams", 5, 21), ("msrd-dist", 9, 27))
    MSRD_FIND = ((2, 5, 2),)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.large_d = [self.rng.randint(2, t // 2 - 1) for _, _, t in self.LARGE]

    def pairs(self):
        out = {(3, 4)} | {(q, t) for _, q, t, _ in self.CODE_FILES}
        out |= {(q, t) for _, q, t in self.LARGE}
        out |= {(q, t) for q, t, _ in self.MSRD_FIND}
        return sorted(out)

    def _code_files(self, sk):
        """name -> (path, code); the example is written from its known rows."""
        codes_dir = self.workdir / "codes"
        codes_dir.mkdir(parents=True, exist_ok=True)
        files = {"example": sk.parse_code(EXAMPLE_CODE)}
        for name, q, t, k in self.CODE_FILES:
            params = sk.SchemeParams(q, t)
            files[name] = sk.random_code(params, sk.make_field(q), k, self.code_rng)
        out = {}
        for name, code in files.items():
            path = codes_dir / f"{name}.skc"
            path.write_text(sk.serialize_code(code), encoding="utf-8")
            out[name] = (str(path), code)
        return out

    def ops(self, sk):
        cli = importlib.import_module("skewrank.cli")

        def op(label, pair, k, check, argv):
            return Op(label, pair, k, check, run=partial(_run_cli, cli, argv), argv=argv)

        out = []
        for name, (path, code) in self._code_files(sk).items():
            if name == "example":
                want = EXAMPLE_DIST
            else:
                want = [str(c) for c in sk.weight_distribution(code).counts]
            pair = (code.params.q, code.params.t)
            for cmd in self.FILE_COMMANDS[name]:
                check = _file_check(sk, cmd, code, want, name == "example")
                out.append(op(f"{cmd} {name}", pair, code.k, check,
                              [cmd, "--code", path]))
        for (cmd, q, t), d in zip(self.LARGE, self.large_d):
            params = sk.SchemeParams(q, t)
            qt = ["--q", str(q), "--t", str(t)]
            if cmd == "krawtchouk":
                want = [str(sk.xi(params, k)) for k in range(params.n + 1)]
                check = _json_check(lambda o, w=want: o["matrix"][0] == w)
                out.append(op(f"krawtchouk q={q} t={t}", (q, t), None, check,
                              [cmd, *qt]))
            elif cmd == "macwilliams":
                w = sk.msrd_distribution(params, d)
                dual = [str(c) for c in sk.msrd_distribution(params, params.n - d + 2).counts]
                check = _json_check(
                    lambda o, want=dual: o["agree"] and o["dual_matrix"] == want
                )
                dist = ",".join(str(c) for c in w.counts)
                out.append(op(f"macwilliams q={q} t={t} d={d}", (q, t),
                              params.m * (params.n - d + 1), check,
                              [cmd, *qt, "--dist", dist, "--size", str(w.size)]))
            else:
                size = q ** (params.m * (params.n - d + 1))
                check = _json_check(
                    lambda o, size=size, d=d: _msrd_shape(o["dist"], size, d)
                    and o["size"] == str(size)
                )
                out.append(op(f"msrd-dist q={q} t={t} d={d}", (q, t),
                              params.m * (params.n - d + 1), check,
                              [cmd, *qt, "--d", str(d)]))
        # msrd-find and selftest keep their default seeds, as typed by a user.
        for q, t, d in self.MSRD_FIND:
            params = sk.SchemeParams(q, t)
            k = params.m * (params.n - d + 1)
            check = _json_check(
                lambda o, k=k, q=q, d=d: o["found"] and o["k"] == k
                and _msrd_shape(o["dist"], q**k, d)
            )
            out.append(op(f"msrd-find q={q} t={t} d={d}", (q, t), k, check,
                          ["msrd-find", "--q", str(q), "--t", str(t), "--d", str(d)]))
        out.append(op("selftest", None, None, _json_check(lambda o: o["ok"] is True),
                      ["selftest"]))
        self.rng.shuffle(out)
        return out


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """One CLI command: its exit code and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _msrd_shape(dist: list[str], size: int, d: int) -> bool:
    counts = [int(c) for c in dist]
    return counts[0] == 1 and not any(counts[1:d]) and sum(counts) == size


def _json_check(pred: Callable[[dict], bool]) -> Callable[[Any], bool]:
    """Check of a finished CLI command: exit code 0 and `pred` on its JSON."""

    def check(result) -> bool:
        returncode, stdout = result
        return returncode == 0 and bool(pred(json.loads(stdout)))

    return check


def _file_check(sk, cmd: str, code, want: list[str], example: bool):
    if cmd == "wdist":
        return _json_check(lambda o: o["dist"] == want)
    if cmd == "verify":
        return _json_check(
            lambda o: o["verdict"] and o["dist"] == want
            and (not example or o["dual_enum"] == EXAMPLE_DUAL)
        )
    if cmd == "moments":
        return _json_check(lambda o: o["ok"] and o["dist"] == want)

    field = code.field

    def orthogonal(o: dict) -> bool:
        # Every dual row pairs to zero with every code row, and the sizes add up.
        if o["k"] != code.params.num_coords - code.k:
            return False
        for row in o["basis"]:
            for crow in code.basis_rows():
                acc = 0
                for a, b in zip(row, crow):
                    acc = field.add(acc, field.mul(a, b))
                if acc:
                    return False
        return True

    return _json_check(orthogonal)


WORKLOADS = {
    w.name: w for w in (VerifyTabled, WdistUntabled, TransformSweep, CliCommands)
}
