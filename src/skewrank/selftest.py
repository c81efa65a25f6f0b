"""The identity checks, each written once, and the condensed suite that runs them.

Each public check takes its grid (the q values and ranges, or the cases
drawn from an rng), raises ArithmeticError naming the first failing case,
and returns how many cases it checked.  run_checks runs them all at small
grids from one seeded rng, for `skewrank selftest`; the pytest suite calls
the same checks at larger grids and asserts the counts, and scripts/ runs
random_code_sweep and msrd_searches at larger ranges.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import gfcodes, homopoly, krawtchouk, macwilliams, moments, qcalculus
from .lambda_ring import LambdaScalar, gamma_lambda
from .qcombinat import SchemeParams, beta, gamma, gauss, xi


def _fail(identity: str, **case) -> ArithmeticError:
    """The error a check raises at its first failing case."""
    where = " ".join(f"{key}={val}" for key, val in case.items())
    return ArithmeticError(f"{identity} fails at {where}")


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


def _shift_eval_draws(rng: random.Random, count: int):
    """Yield count (s, j, lam): a scalar over q in {2, 3}, a shift, a point."""
    for _ in range(count):
        q = rng.choice((2, 3))
        s = _random_lambda_scalar(rng, q)
        yield s, rng.randint(-3, 3), rng.randint(-5, 5)


def _hpoly_pairs(rng: random.Random, count: int, max_deg: int):
    """Yield count (f, g) of random polynomials over one q in {2, 3}."""
    for _ in range(count):
        q = rng.choice((2, 3))
        yield _random_hpoly(rng, q, max_deg), _random_hpoly(rng, q, max_deg)


def random_sequences(rng: random.Random, count: int, max_l: int, bound: int):
    """Yield count (q, b): q in {2, 3}, and b of l + 1 <= max_l + 1 ints in
    -bound..bound, as Fractions."""
    for _ in range(count):
        q = rng.choice((2, 3))
        l = rng.randint(0, max_l)
        yield q, [Fraction(rng.randint(-bound, bound)) for _ in range(l + 1)]


def gauss_identities(qs, xs) -> int:
    """[x,k] = [x,x-k], and for k >= 1 the Pascal step
    [x,k] = [x-1,k] + q^{2(x-k)} [x-1,k-1], at q in qs, x in xs, k <= x."""
    cases = 0
    for q in qs:
        for x in xs:
            for k in range(x + 1):
                if gauss(q, x, k) != gauss(q, x, x - k):
                    raise _fail("gauss symmetry", q=q, x=x, k=k)
                if k >= 1 and gauss(q, x, k) != (
                    gauss(q, x - 1, k)
                    + q ** (2 * (x - k)) * gauss(q, x - 1, k - 1)
                ):
                    raise _fail("gauss Pascal step", q=q, x=x, k=k)
                cases += 1
    return cases


def xi_sums(qs, ts) -> int:
    """sum_s xi(s) = q^{mn}: the rank classes fill the space."""
    cases = 0
    for q in qs:
        for t in ts:
            p = SchemeParams(q, t)
            if sum(xi(p, s) for s in range(p.n + 1)) != q ** (p.m * p.n):
                raise _fail("xi sum", q=q, t=t)
            cases += 1
    return cases


def shift_eval(cases) -> int:
    """s.shift(j) at lam equals s at lam - 2j, for each (s, j, lam) in cases."""
    checked = 0
    for s, j, lam in cases:
        if s.shift(j).eval_lambda(lam) != s.eval_lambda(lam - 2 * j):
            raise _fail("lambda shift/eval", q=s.q, s=s, j=j, lam=lam)
        checked += 1
    return checked


def gamma_lambda_values(qs, ks, xs) -> int:
    """gamma_lambda(q, k) at lambda = x equals gamma(q, x, k)."""
    cases = 0
    for q in qs:
        for k in ks:
            g = gamma_lambda(q, k)
            for x in xs:
                if g.eval_lambda(x) != gamma(q, x, k):
                    raise _fail("gamma_lambda value", q=q, k=k, x=x)
                cases += 1
    return cases


def power_closed_forms(qs, ks) -> int:
    """The k-th skew powers of mu and nu equal mu_power and nu_power."""
    cases = 0
    for q in qs:
        mu = homopoly.mu_poly(q)
        nu = homopoly.nu_poly(q)
        for k in ks:
            if homopoly.skew_q_power(mu, k) != homopoly.mu_power(q, k):
                raise _fail("mu power closed form", q=q, k=k)
            if homopoly.skew_q_power(nu, k) != homopoly.nu_power(q, k):
                raise _fail("nu power closed form", q=q, k=k)
            cases += 1
    return cases


def omega_values(expected) -> int:
    """omega's coefficients at lambda = 0, per {(q, t): coefficients}."""
    for (q, t), want in expected.items():
        om = homopoly.omega(SchemeParams(q, t))
        if [c.eval_lambda(0) for c in om.coeffs] != list(want):
            raise _fail("omega value", q=q, t=t)
    return len(expected)


def krawtchouk_equivalences(pairs) -> int:
    """p_matrix = skew_p = skew_c = generalized_p at every entry, and the
    column relation P xi = (q^{mn}, 0, ..., 0), at each (q, t) in pairs."""
    cases = 0
    for q, t in pairs:
        p = SchemeParams(q, t)
        b, c = krawtchouk.matched_bc(p)
        mat = krawtchouk.p_matrix(p)
        for x in range(p.n + 1):
            for k in range(p.n + 1):
                sp = krawtchouk.skew_p(p, k, x)
                if mat.entries[x][k] != sp:
                    raise _fail("p_matrix = skew_p", q=q, t=t, x=x, k=k)
                if krawtchouk.skew_c(p, k, x) != sp:
                    raise _fail("skew_c = skew_p", q=q, t=t, x=x, k=k)
                if krawtchouk.generalized_p(b, c, k, x, p.n) != sp:
                    raise _fail("generalized_p = skew_p", q=q, t=t, x=x, k=k)
                cases += 1
        col = mat.transform([xi(p, x) for x in range(p.n + 1)])
        if col != [q ** (p.m * p.n)] + [0] * p.n:
            raise _fail("column relation", q=q, t=t)
        cases += 1
    return cases


def leibniz_x_rule(pairs, max_phi: int) -> int:
    """(f*g)^(phi) = sum_l [phi,l] q^{2(phi-l)(r-l)} f^(l) * g^(phi-l) for
    each (f, g) in pairs and phi <= min(max_phi, r + s); past r + s both
    sides vanish."""
    cases = 0
    for f, g in pairs:
        q, r, s = f.q, f.degree, g.degree
        prod = homopoly.skew_q_product(f, g)
        for phi in range(min(max_phi, r + s) + 1):
            # every term has degree r + s - phi
            terms = [
                homopoly.skew_q_product(
                    qcalculus.q_derivative(f, l), qcalculus.q_derivative(g, phi - l)
                ).scale(gauss(q, phi, l) * q ** (2 * (phi - l) * (r - l)))
                for l in range(max(0, phi - s), min(phi, r) + 1)
            ]
            if qcalculus.q_derivative(prod, phi) != sum(terms[1:], terms[0]):
                raise _fail("X-Leibniz rule", q=q, r=r, s=s, phi=phi)
            cases += 1
    return cases


def nu_delta_eval(qs, js) -> int:
    """The l-th X-derivative of nu^[j] at X = Y = 1 is beta(j, j) delta_jl."""
    cases = 0
    for q in qs:
        for j in js:
            for l in range(j + 1):
                want = beta(q, j, j) if j == l else 0
                if qcalculus.eval_nu_derivative_at_ones(q, j, l) != want:
                    raise _fail("nu-derivative delta", q=q, j=j, l=l)
                cases += 1
    return cases


def example_code_pipeline() -> int:
    """The paper's q = 3, t = 4 example: (1, 44, 36), its dual (1, 8, 0), and
    all three MacWilliams routes agreeing."""
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
    if not (
        rep.dist.counts == (1, 44, 36)
        and rep.dual_dist_enum.counts == (1, 8, 0)
        and rep.verdict
    ):
        raise _fail("example code pipeline", q=3, t=4, k=code.k)
    return 1


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


def random_codes(rng: random.Random, pairs, count: int) -> int:
    """random_code_sweep as a check: a skipped code fails it too."""
    cases = 0
    for code, rep, ok in random_code_sweep(rng, pairs, count):
        p = code.params
        if rep is None:
            raise gfcodes.EnumerationBudgetError(
                f"random code at q={p.q} t={p.t} k={code.k} is over the budget"
            )
        if not ok:
            raise _fail("random code", q=p.q, t=p.t, k=code.k)
        cases += 1
    return cases


def delta_epsilon_lemmas(qs, phis, lams, lam_bigs) -> int:
    """delta_closed at j <= phi and lam in lams, and epsilon_closed at
    i <= phi <= lam_big in lam_bigs: each raises unless its sum equals its
    closed form."""
    cases = 0
    for q in qs:
        for phi in phis:
            for j in range(phi + 1):
                for lam in lams:
                    moments.delta_closed(q, lam, phi, j)
                    cases += 1
            for i in range(phi + 1):
                for lam_big in lam_bigs:
                    if lam_big >= phi:
                        moments.epsilon_closed(q, lam_big, phi, i)
                        cases += 1
    return cases


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


def msrd_formulas(expected) -> int:
    """msrd_distribution's counts, per {(q, t, d): counts}."""
    for (q, t, d), want in expected.items():
        if moments.msrd_distribution(SchemeParams(q, t), d).counts != tuple(want):
            raise _fail("forced MSRD distribution", q=q, t=t, d=d)
    return len(expected)


def msrd_search(params: SchemeParams, ds, seed: int) -> int:
    """The seeded search finds, at each d in ds, a code with the forced
    distribution."""
    cases = 0
    for d, forced, _, found in msrd_searches(params, ds, seed):
        if found != forced:
            raise _fail("MSRD search", q=params.q, t=params.t, d=d, seed=seed)
        cases += 1
    return cases


def inversion_roundtrip(cases) -> int:
    """invert_sequence undoes forward_sequence, for each (q, b) in cases."""
    checked = 0
    for q, b in cases:
        l = len(b) - 1
        if moments.invert_sequence(moments.forward_sequence(b, l, q), l, q) != b:
            raise _fail("sequence inversion round trip", q=q, b=b)
        checked += 1
    return checked


def run_checks(seed: int = 0) -> list[tuple[str, int, str | None]]:
    """(name, cases checked, failure) for each check at the selftest grid.

    failure is None when the check held at one case or more; otherwise it
    names the first failing case, or says that no case was checked.
    """
    rng = random.Random(seed)
    # Run in this order: the rng-drawing checks share one stream.
    suite = (
        ("gauss_identities", lambda: gauss_identities((2, 3), range(9))),
        ("xi_sums", lambda: xi_sums((2, 3), range(2, 6))),
        ("lambda_ring", lambda: (
            shift_eval(_shift_eval_draws(rng, 30))
            + gamma_lambda_values((3,), range(5), range(8))
        )),
        ("mu_nu_powers", lambda: power_closed_forms((2, 3), range(5))),
        ("omega_3_4", lambda: omega_values({(3, 4): (1, 260, 468)})),
        ("krawtchouk_equivalences", lambda: krawtchouk_equivalences(
            ((2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 4), (5, 4))
        )),
        ("leibniz_q_derivative",
         lambda: leibniz_x_rule(_hpoly_pairs(rng, 15, 3), 4)),
        ("nu_derivative_delta", lambda: nu_delta_eval((2, 3), range(4))),
        ("example_code_pipeline", example_code_pipeline),
        ("random_code_sweep",
         lambda: random_codes(rng, ((2, 4), (2, 5), (3, 4)), 5)),
        ("delta_epsilon_lemmas", lambda: delta_epsilon_lemmas(
            (2, 3), range(4), range(0, 9, 2), range(9)
        )),
        ("msrd_distribution_and_search", lambda: (
            msrd_formulas({(3, 4, 1): (1, 260, 468), (2, 4, 2): (1, 0, 7)})
            + msrd_search(SchemeParams(2, 5), (2,), seed=1)
        )),
        ("sequence_inversion",
         lambda: inversion_roundtrip(random_sequences(rng, 10, 5, 9))),
    )
    results = []
    for name, check in suite:
        try:
            cases = check()
        except Exception as exc:
            failure = str(exc) if isinstance(exc, ArithmeticError) else repr(exc)
            results.append((name, 0, failure))
        else:
            results.append((name, cases, None if cases else "checked no case"))
    return results


def run_selftest(seed: int = 0) -> list[tuple[str, bool]]:
    """(name, ok) for each check of run_checks."""
    return [(name, failure is None) for name, _, failure in run_checks(seed)]
