#!/usr/bin/env python3
"""Benchmark of the skewrank package, run from the repository root.

    python3 perfbench/run.py --workload verify-tabled --seed 1 --seconds 30 --trace 0

A workload is a fixed op list made from --seed, run pass after pass for
about --seconds (at least two passes; the last ends within half a pass of
the budget).  An op's service time is its
fastest pass: the host's speed drifts over seconds, and the best pass is the
steadiest estimate of the work itself.  Every op's output is checked after
its timed interval and every failure is counted.

--trace 0 reports the end-to-end metrics, with times scaled to a host that
runs the calibration kernel in REF_CALIB_MS; set-up is timed in fresh
processes started between passes.  --trace 1 alternates plain passes with traced ones, whose
wrappers record a span per layer call, and reports the per-layer metrics of
the set-up plus the fastest traced pass, and the tracing overhead.

Progress and a `record:` line with the inputs' properties and host speed go
to stdout; the last line is the result as one JSON object.  Records and
spans are also written under perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import (
    RANK_TABLE_BUILD,
    TABLE_ENTRIES,
    WDIST_TABLED,
    WDIST_UNTABLED,
    WORDS_TABLED,
    WORDS_UNTABLED,
    LayerTracer,
    SpanRecorder,
)
from workloads import WORKLOADS, num_coords

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
SRC = ROOT / "src"
# Set-up probes: at least 3, and up to 7 while they have measured < 3 s.
SETUP_MIN, SETUP_MAX, SETUP_PROBE_S = 3, 7, 3.0
MIN_PASSES = 2
CHILD_TIMEOUT_S = 60
# Probes start without `site` (-S): the package needs only the standard
# library, and the .pth hooks of an installation's site-packages can take
# longer than the package's own import.
PYTHON = [sys.executable, "-S"]
CLI_SUBCOMMANDS = (
    "wdist", "verify", "moments", "dual", "macwilliams", "krawtchouk",
    "msrd-dist", "msrd-find", "selftest",
)


class SetupError(RuntimeError):
    """The benchmark cannot run here (no package, or a set-up probe failed)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


# calibrate_ms() at its fastest on the 2-core host the benchmark was built on.
REF_CALIB_MS = 7.0


def calibrate_ms() -> float:
    """Fixed pure-Python kernel, best of three: how fast the host runs now."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        best = min(best, perf_counter() - t0)
    return best * 1e3


def probe(*args: str) -> float:
    """Seconds a `child.py` probe measured in a fresh interpreter."""
    proc = subprocess.run(
        [*PYTHON, str(BENCH_DIR / "child.py"), *args],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"{args[0]} probe failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def probe_setup(pairs: list[tuple[int, int]]) -> float:
    """Import, make_field and rank_table for `pairs` in a fresh interpreter."""
    return probe("setup", json.dumps(pairs))


class SetupSampler:
    """Set-up probes and the peak-RSS reading, taken between passes.

    The first SETUP_MIN probes are spread evenly over the run, so that a slow
    stretch of the host does not catch all of them; any further ones follow
    the last pass.
    """

    def __init__(self, pairs):
        self.pairs = pairs
        self.samples: list[float] = []
        self.peak_rss_mb: float | None = None

    def wanted(self) -> bool:
        n = len(self.samples)
        return n < SETUP_MIN or (n < SETUP_MAX and sum(self.samples) < SETUP_PROBE_S)

    def after_pass(self, progress: float) -> None:
        """`progress`: the share of the run's budget spent so far."""
        if self.peak_rss_mb is None:  # after the first pass
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        n = len(self.samples)
        if n < SETUP_MIN and progress >= n / SETUP_MIN:
            self.samples.append(probe_setup(self.pairs))

    def finish(self) -> None:
        while self.wanted():
            self.samples.append(probe_setup(self.pairs))


class Runner:
    """Runs one op, plain or traced, and checks its output afterwards."""

    def __init__(self, rec: SpanRecorder | None, tracer: LayerTracer | None):
        self.rec = rec
        self.tracer = tracer
        self.reported = 0

    def run(self, op, traced: bool, op_id: int) -> tuple[float, bool]:
        if traced:
            self.rec.op_id = op_id
            self.tracer.install()
        out = None
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception:
            self._report(op, traceback.format_exc())
        dt = perf_counter() - t0
        if traced:
            self.tracer.uninstall()
            self.rec.op_id = -1
        if out is None:
            return dt, False
        try:
            ok = bool(op.check(out))
        except Exception:
            self._report(op, traceback.format_exc())
            return dt, False
        if not ok:
            self._report(op, f"output check failed: {str(out)[:300]}")
        return dt, ok

    def _report(self, op, msg: str) -> None:
        self.reported += 1
        if self.reported <= 5:
            print(f"FAILED {op.label}: {msg}", file=sys.stderr)


def run_passes(ops, runner: Runner, modes: tuple[str, ...], seconds: float,
               after_pass=None):
    """Passes over `ops`, cycling through `modes`, until `seconds` are spent.

    `after_pass(progress)` runs between passes, with the share of the budget
    spent so far; its own time is not part of the budget.
    """
    best = {m: [float("inf")] * len(ops) for m in modes}
    passes = []  # (mode, sum of op times, first op id)
    calib = []
    attempted = failed = 0
    start = perf_counter()
    while True:
        mode = modes[len(passes) % len(modes)]
        calib.append(calibrate_ms())
        t_pass = perf_counter()
        first_id = attempted
        total = 0.0
        for i, op in enumerate(ops):
            dt, ok = runner.run(op, mode == "traced", attempted)
            attempted += 1
            failed += not ok
            total += dt
            best[mode][i] = min(best[mode][i], dt)
        passes.append((mode, total, first_id))
        pass_wall = perf_counter() - t_pass
        if after_pass:
            t_between = perf_counter()
            after_pass((t_between - start) / seconds)
            start += perf_counter() - t_between
        # Another pass if it should end no more than half a pass late.
        if (len(passes) >= MIN_PASSES
                and perf_counter() + pass_wall / 2 > start + seconds):
            break
    calib.append(calibrate_ms())
    return best, passes, calib, attempted, failed


def end_to_end(service, setup_samples, peak_rss_mb, attempted, failed, slowdown):
    """Times are divided by `slowdown`, the host's calibration floor in this run
    over REF_CALIB_MS: they are the times on a host running the kernel at
    REF_CALIB_MS."""
    ms = sorted(s * 1e3 / slowdown for s in service)
    return {
        "ops_per_s": (len(service) / sum(service) * slowdown, "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "setup_s": (min(setup_samples) / slowdown, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(rec: SpanRecorder, ops, best, passes, cli_import_s: float):
    """Set-up spans plus those of the fastest traced pass, by layer."""
    traced = [p for p in passes if p[0] == "traced"]
    _, _, first_id = min(traced, key=lambda p: p[1])
    ids = set(range(first_id, first_id + len(ops))) | {-1}
    by_op = rec.totals_by_op()
    layer: dict[str, list] = {}
    for op_id in ids:
        for name, row in by_op.get(op_id, {}).items():
            acc = layer.setdefault(name, [0, 0.0, 0.0])
            for j in range(3):
                acc[j] += row[j]
    counts: dict[str, int] = {}
    for (op_id, key), n in rec.counts.items():
        if op_id in ids:
            counts[key] = counts.get(key, 0) + n

    def calls(name):
        return layer.get(name, [0])[0]

    def self_s(*names):
        return sum(layer.get(n, [0, 0.0])[1] for n in names)

    def wall_s(name):
        return layer.get(name, [0, 0.0, 0.0])[2]

    def us_per_word(span, words):
        return self_s(span) / counts[words] * 1e6 if counts.get(words) else 0.0

    def median_or_zero(values):
        return statistics.median(values) if values else 0.0

    m = {
        "gfcodes.rank_table.build_s": (wall_s(RANK_TABLE_BUILD), "s"),
        "gfcodes.rank_table.entries": (counts.get(TABLE_ENTRIES, 0), "count"),
        "gfcodes.weight_distribution.words": (
            counts.get(WORDS_TABLED, 0) + counts.get(WORDS_UNTABLED, 0), "count"),
        "gfcodes.weight_distribution.self_s": (self_s(WDIST_TABLED, WDIST_UNTABLED), "s"),
        "gfcodes.weight_distribution.us_per_word_tabled": (
            us_per_word(WDIST_TABLED, WORDS_TABLED), "us"),
        "gfcodes.weight_distribution.us_per_word_untabled": (
            us_per_word(WDIST_UNTABLED, WORDS_UNTABLED), "us"),
        "gfcodes.dual.self_s": (self_s("gfcodes.dual"), "s"),
        "gfcodes.make_field.s": (wall_s("gfcodes.make_field"), "s"),
    }
    for name in ("krawtchouk.p_matrix", "qcombinat.gauss",
                 "homopoly.skew_q_product", "lambda_ring.eval_lambda"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("krawtchouk.p_matrix", "qcombinat.gauss",
                 "macwilliams.transform_matrix", "macwilliams.transform_functional",
                 "macwilliams.verify_code", "homopoly.skew_q_product",
                 "homopoly.mu_power", "homopoly.nu_power", "lambda_ring.eval_lambda",
                 "moments.msrd_distribution", "moments.check_first_moment",
                 "moments.check_second_moment", "moments.corollary_bounds"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["cli.import_s"] = (cli_import_s, "s")
    for sub in CLI_SUBCOMMANDS:
        walls = [b for op, b in zip(ops, best["plain"]) if op.argv and op.argv[0] == sub]
        m[f"cli.{sub}.s"] = (median_or_zero(walls), "s")
    m["trace.untraced_ops_per_s"] = (len(ops) / sum(best["plain"]), "1/s")
    m["trace.traced_ops_per_s"] = (len(ops) / sum(best["traced"]), "1/s")
    m["trace.spans"] = (sum(row[0] for row in layer.values()), "count")
    return m


def input_properties(ops, tabled: dict) -> dict:
    """Shares of the input properties that later changes may key on."""
    with_code = [op for op in ops if op.k is not None]
    with_pair = [op for op in ops if op.pair is not None]
    pairs = {op.pair for op in with_pair}
    return {
        "ops": len(ops),
        "share_k_above_half": (
            sum(2 * op.k > num_coords(op.pair[1]) for op in with_code)
            / len(with_code) if with_code else 0.0),
        "share_tabled_params": (
            sum(tabled[op.pair] for op in with_pair) / len(with_pair)
            if with_pair else 0.0),
        "distinct_params": len(pairs),
        "ops_per_params": len(with_pair) / len(pairs) if pairs else 0.0,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "skewrank" / "__init__.py").is_file():
        print(f"no skewrank package under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # The package is pure Python: building it is compiling its bytecode.
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    import skewrank as sk

    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    pairs = workload.pairs()
    rec = SpanRecorder() if args.trace else None
    tracer = LayerTracer(rec) if args.trace else None

    # Set-up the ops rely on; traced when the ops run in this process.
    if tracer:
        tracer.install()
    tabled = {
        (q, t): sk.gfcodes.rank_table(sk.SchemeParams(q, t), sk.make_field(q)) is not None
        for q, t in pairs
    }
    if tracer:
        tracer.uninstall()
    ops = workload.ops(sk)
    props = input_properties(ops, tabled)
    print(f"{workload.name}: {len(ops)} ops, {len(pairs)} params, seed {args.seed}",
          flush=True)

    modes = ("plain", "traced") if args.trace else ("plain",)
    sampler = None if args.trace else SetupSampler(pairs)
    best, passes, calib, attempted, failed = run_passes(
        ops, Runner(rec, tracer), modes, args.seconds,
        sampler.after_pass if sampler else None)

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "passes": [[mode, round(total, 6)] for mode, total, _ in passes],
        "latency_samples": len(ops),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "host_calib_ms": [round(c, 3) for c in calib],
        "host_calib_ms_median": statistics.median(calib),
        "inputs": props,
    }
    if args.trace:
        cli_import_s = min(probe("import") for _ in range(SETUP_MIN))
        metrics = per_layer(rec, ops, best, passes, cli_import_s)
        rec.dump(str(OUT_DIR / f"{workload.name}.spans"), header={
            "workload": workload.name, "seed": args.seed,
            "ops": [op.label for op in ops],
            "passes": [[mode, first] for mode, _, first in passes],
        })
    else:
        sampler.finish()
        record["setup_samples_s"] = sampler.samples
        record["service_ms"] = [[op.label, b * 1e3] for op, b in zip(ops, best["plain"])]
        slowdown = min(calib) / REF_CALIB_MS
        record["slowdown"] = slowdown
        record["unscaled_metrics"] = {
            k: v for k, (v, _) in end_to_end(best["plain"], sampler.samples,
                                             sampler.peak_rss_mb, attempted, failed,
                                             1.0).items()}
        metrics = end_to_end(best["plain"], sampler.samples, sampler.peak_rss_mb,
                             attempted, failed, slowdown)
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    suffix = "trace" if args.trace else "e2e"
    (OUT_DIR / f"{workload.name}.{suffix}.json").write_text(json.dumps(record, indent=1))
    print("record: " + json.dumps(
        {k: v for k, v in record.items() if k not in ("metrics", "service_ms")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
