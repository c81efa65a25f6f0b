"""Condensed end-to-end identity suite, runnable from the CLI.

run_selftest runs each check once and reports (name, ok); scripts/ runs
the sweep and MSRD checks at larger ranges.  The pytest suite covers the
same ground with its own assertions.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from fractions import Fraction

from . import gfcodes, homopoly, krawtchouk, macwilliams, moments, qcalculus
from .lambda_ring import LambdaScalar, gamma_lambda
from .qcombinat import SchemeParams, beta, gamma, gauss, xi


def _random_lambda_scalar(rng: random.Random, q: int) -> LambdaScalar:
    terms = {
        rng.randint(-2, 2): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for _ in range(rng.randint(1, 3))
    }
    return LambdaScalar(q, terms)


def _random_hpoly(rng: random.Random, q: int, max_deg: int) -> homopoly.HPoly:
    deg = rng.randint(0, max_deg)
    return homopoly.HPoly(
        q, [_random_lambda_scalar(rng, q) for _ in range(deg + 1)]
    )


def gauss_identities() -> bool:
    for q in (2, 3):
        for x in range(9):
            for k in range(x + 1):
                if gauss(q, x, k) != gauss(q, x, x - k):
                    return False
                if k >= 1 and gauss(q, x, k) != (
                    gauss(q, x - 1, k)
                    + q ** (2 * (x - k)) * gauss(q, x - 1, k - 1)
                ):
                    return False
    return True


def xi_sums() -> bool:
    for q in (2, 3):
        for t in range(2, 6):
            p = SchemeParams(q, t)
            if sum(xi(p, s) for s in range(p.n + 1)) != q ** (p.m * p.n):
                return False
    return True


def lambda_ring_ops(rng: random.Random) -> bool:
    for _ in range(30):
        q = rng.choice((2, 3))
        s = _random_lambda_scalar(rng, q)
        j = rng.randint(-3, 3)
        lam = rng.randint(-5, 5)
        if s.shift(j).eval_lambda(lam) != s.eval_lambda(lam - 2 * j):
            return False
    for k in range(5):
        for x in range(8):
            if gamma_lambda(3, k).eval_lambda(x) != gamma(3, x, k):
                return False
    return True


def power_closed_forms() -> bool:
    for q in (2, 3):
        mu = homopoly.mu_poly(q)
        nu = homopoly.nu_poly(q)
        for k in range(5):
            if homopoly.skew_q_power(mu, k) != homopoly.mu_power(q, k):
                return False
            if homopoly.skew_q_power(nu, k) != homopoly.nu_power(q, k):
                return False
    return True


def omega_value() -> bool:
    om = homopoly.omega(SchemeParams(3, 4))
    return [c.eval_lambda(0) for c in om.coeffs] == [1, 260, 468]


def krawtchouk_equivalences() -> bool:
    for q, t in ((2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 4), (5, 4)):
        p = SchemeParams(q, t)
        b, c = krawtchouk.matched_bc(p)
        mat = krawtchouk.p_matrix(p)
        for x in range(p.n + 1):
            for k in range(p.n + 1):
                sp = krawtchouk.skew_p(p, k, x)
                if mat.entries[x][k] != sp:
                    return False
                if krawtchouk.skew_c(p, k, x) != sp:
                    return False
                if krawtchouk.generalized_p(b, c, k, x, p.n) != sp:
                    return False
        col = mat.transform([xi(p, x) for x in range(p.n + 1)])
        want = [q ** (p.m * p.n)] + [0] * p.n
        if col != want:
            return False
    return True


def leibniz_rules(rng: random.Random) -> bool:
    for _ in range(15):
        q = rng.choice((2, 3))
        f = _random_hpoly(rng, q, 3)
        g = _random_hpoly(rng, q, 3)
        r, s = f.degree, g.degree
        prod = homopoly.skew_q_product(f, g)
        for phi in range(0, min(4, r + s) + 1):
            # every term has degree r + s - phi
            terms = [
                homopoly.skew_q_product(
                    qcalculus.q_derivative(f, l), qcalculus.q_derivative(g, phi - l)
                ).scale(gauss(q, phi, l) * q ** (2 * (phi - l) * (r - l)))
                for l in range(max(0, phi - s), min(phi, r) + 1)
            ]
            if qcalculus.q_derivative(prod, phi) != sum(terms[1:], terms[0]):
                return False
    return True


def nu_delta_eval() -> bool:
    for q in (2, 3):
        for j in range(4):
            for l in range(j + 1):
                want = beta(q, j, j) if j == l else 0
                if qcalculus.eval_nu_derivative_at_ones(q, j, l) != want:
                    return False
    return True


def example_code_pipeline() -> bool:
    p = SchemeParams(3, 4)
    field = gfcodes.make_field(3)
    rows = [
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 1),
    ]
    code = gfcodes.LinearCode.from_rows(p, field, rows)
    rep = macwilliams.verify_code(code)
    return (
        rep.dist.counts == (1, 44, 36)
        and rep.dual_dist_enum.counts == (1, 8, 0)
        and rep.verdict
    )


def random_code_sweep(rng: random.Random, pairs=((2, 4), (2, 5), (3, 4)),
                      count: int = 5):
    """Yield (code, report, ok) for `count` seeded random codes per (q, t).

    ok: the three MacWilliams routes agree and both moments and their
    corollaries hold at every phi.
    A code whose own or dual enumeration exceeds the budget is yielded as
    (code, None, None): its check is skipped, which is not a pass.
    """
    for q, t in pairs:
        p = SchemeParams(q, t)
        field = gfcodes.make_field(q)
        for _ in range(count):
            k = rng.randint(1, p.num_coords - 1)
            code = gfcodes.random_code(p, field, k, rng)
            try:
                rep = macwilliams.verify_code(code)
            except gfcodes.EnumerationBudgetError:
                yield code, None, None
                continue
            ok = rep.verdict and all(
                chk.ok
                for chk in moments.moment_checks(
                    rep.dist, rep.dual_dist_enum, code.k, range(p.n + 1), p
                )
            )
            yield code, rep, ok


def closed_form_lemmas() -> bool:
    for q in (2, 3):
        for phi in range(4):
            for j in range(phi + 1):
                for lam in range(0, 9, 2):
                    moments.delta_closed(q, lam, phi, j)
            for i in range(phi + 1):
                for lam_big in range(phi, 9):
                    moments.epsilon_closed(q, lam_big, phi, i)
    return True


def msrd_searches(params: SchemeParams, ds, seed: int,
                  budget: int = moments.SEARCH_BUDGET):
    """Yield (d, forced, code, found) for each distance d.

    forced is the distribution of any code attaining the bound, code what
    the seeded search finds (or None) and found its enumerated distribution.
    """
    for d in ds:
        forced = moments.msrd_distribution(params, d)
        code = moments.find_msrd(params, d, budget=budget, seed=seed)
        found = None if code is None else gfcodes.weight_distribution(code)
        yield d, forced, code, found


def msrd_formulas() -> bool:
    if moments.msrd_distribution(SchemeParams(3, 4), 1).counts != (1, 260, 468):
        return False
    if moments.msrd_distribution(SchemeParams(2, 4), 2).counts != (1, 0, 7):
        return False
    return all(
        found == forced
        for _, forced, _, found in msrd_searches(SchemeParams(2, 5), (2,), seed=1)
    )


def inversion_roundtrip(rng: random.Random) -> bool:
    for _ in range(10):
        q = rng.choice((2, 3))
        l = rng.randint(0, 5)
        b = [Fraction(rng.randint(-9, 9)) for _ in range(l + 1)]
        a = moments.forward_sequence(b, l, q)
        if moments.invert_sequence(a, l, q) != b:
            return False
    return True


def _passes(check: Callable[[], bool]) -> bool:
    try:
        return bool(check())
    except Exception:
        return False


def run_selftest(seed: int = 0) -> list[tuple[str, bool]]:
    rng = random.Random(seed)
    # Run in this order: the rng-drawing checks share one stream.
    suite = (
        ("gauss_identities", gauss_identities),
        ("xi_sums", xi_sums),
        ("lambda_ring", lambda: lambda_ring_ops(rng)),
        ("mu_nu_powers", power_closed_forms),
        ("omega_3_4", omega_value),
        ("krawtchouk_equivalences", krawtchouk_equivalences),
        ("leibniz_q_derivative", lambda: leibniz_rules(rng)),
        ("nu_derivative_delta", nu_delta_eval),
        ("example_code_pipeline", example_code_pipeline),
        ("random_code_sweep", lambda: all(ok for *_, ok in random_code_sweep(rng))),
        ("delta_epsilon_lemmas", closed_form_lemmas),
        ("msrd_distribution_and_search", msrd_formulas),
        ("sequence_inversion", lambda: inversion_roundtrip(rng)),
    )
    return [(name, _passes(check)) for name, check in suite]
