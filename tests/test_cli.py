import inspect
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from skewrank import SchemeParams, gfcodes, krawtchouk, macwilliams, selftest
from skewrank.cli import build_parser, main
from skewrank.moments import find_msrd
from skewrank.gfcodes import WeightDist

REPO = Path(__file__).resolve().parents[1]
EXAMPLE = str(REPO / "data" / "example_q3_t4.skc")
SRC_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    ),
}

SELFTEST_CHECKS = [
    "gauss_identities",
    "xi_sums",
    "lambda_ring",
    "mu_nu_powers",
    "omega_3_4",
    "krawtchouk_equivalences",
    "leibniz_q_derivative",
    "nu_derivative_delta",
    "example_code_pipeline",
    "random_code_sweep",
    "delta_epsilon_lemmas",
    "msrd_distribution_and_search",
    "sequence_inversion",
]


def run_process(*argv):
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=SRC_ENV,
        cwd=REPO,
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestWdist:
    def test_example_json(self, capsys):
        code, out = run_cli(capsys, "wdist", "--code", EXAMPLE)
        assert code == 0
        assert json.loads(out) == {
            "q": 3,
            "t": 4,
            "k": 4,
            "dist": ["1", "44", "36"],
        }

    def test_deterministic_output(self, capsys):
        _, out1 = run_cli(capsys, "wdist", "--code", EXAMPLE)
        _, out2 = run_cli(capsys, "wdist", "--code", EXAMPLE)
        assert out1 == out2

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "wdist", "--code", EXAMPLE, "--format", "text")
        assert code == 0
        assert "dist: 1 44 36" in out

    def test_budget_exit(self, capsys):
        code, _ = run_cli(capsys, "wdist", "--code", EXAMPLE, "--budget", "10")
        assert code == 3

    def test_negative_budget_is_usage_error(self, capsys):
        code = main(["wdist", "--code", EXAMPLE, "--budget", "-5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--budget: -5 is negative" in captured.err

    def test_repeated_header_field_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "twice.skc"
        path.write_text("q=3 q=5 t=4 k=1\n1 0 0 0 0 0\n")
        code = main(["wdist", "--code", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: line 1: header repeats q=\n"

    def test_byte_order_mark_file(self, capsys, tmp_path):
        marked = tmp_path / "bom.skc"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(EXAMPLE).read_bytes())
        _, want = run_cli(capsys, "wdist", "--code", EXAMPLE)
        code, out = run_cli(capsys, "wdist", "--code", str(marked))
        assert code == 0
        assert out == want

    def test_missing_code_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "wdist")
        assert code == 2

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        # a missing file and a directory are the two OSErrors of the read
        for path in (tmp_path / "nonexistent.skc", tmp_path):
            code = main(["wdist", "--code", str(path)])
            assert code == 2
            assert capsys.readouterr().err.startswith("error: ")


class TestSubcommands:
    def test_krawtchouk(self, capsys):
        code, out = run_cli(capsys, "krawtchouk", "--q", "3", "--t", "4")
        assert code == 0
        data = json.loads(out)
        assert data["matrix"][0] == ["1", "260", "468"]
        assert data["matrix"][2] == ["1", "-10", "9"]

    def test_krawtchouk_text_prints_one_line_per_row(self, capsys):
        code, out = run_cli(capsys, "krawtchouk", "--q", "3", "--t", "4",
                            "--format", "text")
        assert code == 0
        assert out == ("q: 3\nt: 4\nn: 2\nmatrix:\n"
                       "  1 260 468\n  1 17 -18\n  1 -10 9\n")

    def test_omega(self, capsys):
        code, out = run_cli(capsys, "omega", "--q", "3", "--t", "4")
        assert code == 0
        assert json.loads(out)["coeffs"] == ["1", "260", "468"]

    def test_dual(self, capsys):
        code, out = run_cli(capsys, "dual", "--code", EXAMPLE)
        assert code == 0
        data = json.loads(out)
        assert data["k"] == 2
        assert len(data["basis"]) == 2

    def test_verify(self, capsys):
        code, out = run_cli(capsys, "verify", "--code", EXAMPLE)
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] is True
        assert data["dual_enum"] == ["1", "8", "0"]

    def test_macwilliams_from_dist(self, capsys):
        code, out = run_cli(
            capsys,
            "macwilliams",
            "--dist", "1,44,36",
            "--size", "81",
            "--q", "3",
            "--t", "4",
        )
        assert code == 0
        data = json.loads(out)
        assert data["agree"] is True
        assert data["dual_matrix"] == ["1", "8", "0"]

    def test_macwilliams_from_code(self, capsys):
        code, out = run_cli(capsys, "macwilliams", "--code", EXAMPLE)
        assert code == 0
        assert json.loads(out)["dual_functional"] == ["1", "8", "0"]

    def test_macwilliams_needs_input(self, capsys):
        code, _ = run_cli(capsys, "macwilliams", "--q", "3", "--t", "4")
        assert code == 2

    @pytest.mark.parametrize("extra, named", [
        (["--dist", "1,44,36", "--size", "81", "--q", "3", "--t", "4"],
         "--dist, --size, --q, --t"),
        (["--q", "3"], "--q"),
        (["--size", "81", "--t", "4"], "--size, --t"),
    ])
    def test_macwilliams_code_excludes_dist(self, capsys, extra, named):
        code = main(["macwilliams", "--code", EXAMPLE, *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --code excludes {named}\n"

    def test_macwilliams_dist_excludes_budget(self, capsys):
        # only the --code route enumerates, so a dist-mode budget is a typo
        code = main(["macwilliams", "--dist", "1,44,36", "--size", "81",
                     "--q", "3", "--t", "4", "--budget", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --dist excludes --budget\n"
        # with --code the budget still bounds the enumeration
        code, _ = run_cli(capsys, "macwilliams", "--code", EXAMPLE, "--budget", "80")
        assert code == 3

    @pytest.mark.parametrize("dist, size, message", [
        ("-81,0,0", "-81", "code size -81 is not positive"),
        ("2,-1,0", "1", "negative count"),
        ("0,0,0", "0", "code size 0 is not positive"),
    ])
    def test_macwilliams_impossible_input(self, capsys, dist, size, message):
        code = main(["macwilliams", f"--dist={dist}", f"--size={size}",
                     "--q", "3", "--t", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_invariant_failure_has_its_own_exit(self, capsys, monkeypatch):
        def broken(params):
            raise ArithmeticError("eigenmatrix row sums are off")

        monkeypatch.setattr(krawtchouk, "p_matrix", broken)
        code = main(["krawtchouk", "--q", "3", "--t", "4"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "invariant error: eigenmatrix row sums are off\n"

    def test_moments(self, capsys):
        code, out = run_cli(capsys, "moments", "--code", EXAMPLE)
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        first = [c for c in data["checks"] if c["name"] == "first_moment"]
        assert {c["phi"] for c in first} == {0, 1, 2}
        phi1 = next(c for c in first if c["phi"] == 1)
        assert phi1["lhs"] == "54"

    def test_moments_full_json(self, capsys):
        def check(name, phi, lhs):
            return {"name": name, "phi": phi, "lhs": lhs, "rhs": lhs, "ok": True}

        code, out = run_cli(capsys, "moments", "--code", EXAMPLE)
        assert code == 0
        assert json.loads(out) == {
            "q": 3,
            "t": 4,
            "k": 4,
            "dist": ["1", "44", "36"],
            "dual_dist": ["1", "8", "0"],
            "checks": [
                check("first_moment", 0, "81"),
                check("second_moment", 0, "81"),
                check("first_moment", 1, "54"),
                check("second_moment", 1, "756"),
                check("first_moment", 2, "1"),
                check("second_moment", 2, "36"),
                check("first_moment_low_phi", 0, "81"),
                check("second_moment_low_phi", 0, "81"),
                check("second_moment_high_phi", 2, "0"),
            ],
            "ok": True,
        }

    def test_moments_phi_out_of_range(self, capsys):
        code, _ = run_cli(capsys, "moments", "--code", EXAMPLE, "--phi", "9")
        assert code == 2

    def test_moments_single_phi(self, capsys):
        code, out = run_cli(capsys, "moments", "--code", EXAMPLE, "--phi", "1")
        assert code == 0
        data = json.loads(out)
        assert all(c["phi"] == 1 for c in data["checks"])

    def test_moments_enumerates_each_side_once(self, capsys, monkeypatch):
        real = gfcodes.weight_distribution
        calls = []

        def counted(code, *args, **kwargs):
            calls.append(code.k)
            return real(code, *args, **kwargs)

        monkeypatch.setattr(gfcodes, "weight_distribution", counted)
        code, out = run_cli(capsys, "moments", "--code", EXAMPLE)
        assert code == 0 and json.loads(out)["ok"] is True
        assert calls == [4, 2]

    def test_msrd_dist(self, capsys):
        code, out = run_cli(capsys, "msrd-dist", "--q", "2", "--t", "4", "--d", "2")
        assert code == 0
        assert json.loads(out)["dist"] == ["1", "0", "7"]

    def test_msrd_find_success(self, capsys):
        code, out = run_cli(
            capsys,
            "msrd-find", "--q", "2", "--t", "5", "--d", "2",
            "--seed", "0", "--budget", "5000",
        )
        assert code == 0
        data = json.loads(out)
        assert data["found"] is True
        assert data["dist"] == ["1", "0", "31"]

    def test_msrd_find_exhausted(self, capsys):
        code, out = run_cli(
            capsys,
            "msrd-find", "--q", "2", "--t", "4", "--d", "2",
            "--seed", "0", "--budget", "300",
        )
        assert code == 3
        assert json.loads(out)["found"] is False

    def test_msrd_find_negative_budget_is_usage_error(self, capsys):
        code = main(["msrd-find", "--q", "2", "--t", "4", "--d", "2",
                     "--budget", "-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--budget: -3 is negative" in captured.err

    def test_msrd_find_default_budget(self):
        args = build_parser().parse_args(
            ["msrd-find", "--q", "2", "--t", "4", "--d", "2"]
        )
        assert args.budget == inspect.signature(find_msrd).parameters["budget"].default

    def test_msrd_find_determinism(self, capsys):
        _, out1 = run_cli(
            capsys, "msrd-find", "--q", "2", "--t", "5", "--d", "2",
            "--seed", "4", "--budget", "5000",
        )
        _, out2 = run_cli(
            capsys, "msrd-find", "--q", "2", "--t", "5", "--d", "2",
            "--seed", "4", "--budget", "5000",
        )
        assert out1 == out2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["wdist", "--code", EXAMPLE, "--seed", "1"],
            ["krawtchouk", "--q", "3", "--t", "4", "--code", EXAMPLE],
            ["dual", "--code", EXAMPLE, "--budget", "10"],
            ["selftest", "--phi", "1"],
            ["wdist", "--code", EXAMPLE, "--threads", "0"],  # no command has it
        ],
    )
    def test_flag_of_another_subcommand_is_usage_error(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["krawtchouk", "--t", "4"],
            ["omega", "--q", "3"],
            ["msrd-dist", "--q", "2", "--t", "4"],
            ["msrd-find", "--q", "2", "--t", "5"],
            ["moments"],
        ],
    )
    def test_missing_required_flag_is_usage_error(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""


class TestSelftestCommand:
    def test_selftest_passes(self, capsys):
        code, out = run_cli(capsys, "selftest")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert all(c["ok"] for c in data["checks"])

    def test_selftest_check_names(self, capsys):
        _, out = run_cli(capsys, "selftest")
        assert [c["name"] for c in json.loads(out)["checks"]] == SELFTEST_CHECKS

    def test_selftest_reports_a_wrong_route(self, capsys, monkeypatch):
        # the functional transform miscounts the zero word
        real = macwilliams.transform_functional

        def off_by_one(w, size, params):
            got = real(w, size, params)
            return WeightDist(got.params, (got.counts[0] + 1, *got.counts[1:]))

        monkeypatch.setattr(macwilliams, "transform_functional", off_by_one)
        sweep = list(selftest.random_code_sweep(random.Random(0)))
        assert sweep and not any(ok for *_, ok in sweep)
        code, out = run_cli(capsys, "selftest")
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False
        checks = {c["name"]: c["ok"] for c in data["checks"]}
        assert checks["random_code_sweep"] is False
        assert checks["gauss_identities"] is True


class TestProcessInvocation:
    def test_module_entry_point(self):
        proc = run_process("-m", "skewrank.cli", "wdist", "--code", EXAMPLE)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["dist"] == ["1", "44", "36"]

    def test_selftest_under_optimize(self):
        # python -O strips asserts; the checks must not depend on them
        proc = run_process("-O", "-m", "skewrank.cli", "selftest")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"] is True

    def test_wdist_builds_any_sub_cap_table_within_a_second(self, tmp_path):
        # every code under the cap, even one of one row, is ranked through
        # its space's table, built here in a fresh process: (4,5) is the
        # largest space, 4^10 entries, and the slowest build, ~16 ms by
        # bordering; (2,6), in bit lanes, takes ~2.5 ms
        for q, t, k, want in ((4, 5, 7, ["1", "303", "16080"]),
                              (2, 6, 1, ["1", "0", "1", "0"])):
            p = SchemeParams(q, t)
            code = gfcodes.random_code(p, gfcodes.make_field(q), k, random.Random(3))
            path = tmp_path / f"c{q}{t}.skc"
            path.write_text(gfcodes.serialize_code(code))
            start = time.perf_counter()
            proc = run_process("-O", "-m", "skewrank.cli", "wdist", "--code", str(path))
            elapsed = time.perf_counter() - start
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["dist"] == want
            assert elapsed < 1.0


class TestScripts:
    def test_random_code_sweep(self):
        proc = run_process(
            "scripts/random_code_sweep.py", "--pairs", "2,4", "--count", "2"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("q=2 t=4: 2/2 codes verified")
        assert proc.stdout.splitlines()[-1] == "all codes verified"

    def test_random_code_sweep_skips_an_over_budget_code(self):
        # seed 31 draws k = 1 at (2,8), whose dual of 2^27 words is over
        # the 2^26 budget: reported and skipped, not a failure
        proc = run_process(
            "scripts/random_code_sweep.py", "--pairs", "2,8", "2,4",
            "--count", "1", "--seed", "31"
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == (
            "  skipped q=2 t=8 k=1 dual k=27: over the enumeration budget")
        assert lines[1].startswith("q=2 t=8: 0/1 codes verified, 1 skipped (")
        assert lines[2].startswith("q=2 t=4: 1/1 codes verified (")
        assert lines[3:] == ["all checked codes verified, 1 skipped"]

    def test_msrd_census(self):
        proc = run_process("scripts/msrd_census.py", "--pairs", "2,4")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[1] == "  d=1: forced distribution (1, 35, 28) (size 64)"
        assert "(matches)" in lines[2]
        assert lines[-1] == "        search: no code found within budget"
