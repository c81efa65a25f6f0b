import random
from fractions import Fraction

import pytest

from skewrank.homopoly import HPoly, mu_power, skew_q_product
from skewrank.lambda_ring import LambdaScalar, gamma_lambda
from skewrank.qcalculus import q_inv_derivative
from skewrank.qcombinat import beta, gauss, sigma

ACCEPTANCE_PAIRS = ((2, 4), (2, 5), (2, 6), (3, 4), (3, 5))

# the built-in fields: every prime q <= 97, and 4, 8 and 9
SUPPORTED_Q = sorted(
    {4, 8, 9} | {q for q in range(2, 98) if all(q % d for d in range(2, q))}
)

EXAMPLE_CODE_ROWS = [
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1),
]


def random_lambda_scalar(rng: random.Random, q: int,
                         max_terms: int = 3) -> LambdaScalar:
    terms = {
        rng.randint(-2, 2): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for _ in range(rng.randint(1, max_terms))
    }
    return LambdaScalar(q, terms)


def eval_fraction_sum(s: LambdaScalar, lam: int) -> Fraction:
    """The value of s at Q = q**lam as a plain Fraction sum, term by term:
    an oracle of LambdaScalar.eval_lambda's common-denominator int sum."""
    return sum(
        (c * Fraction(s.q) ** (lam * e) for e, c in s.terms().items()),
        Fraction(0),
    )


def random_hpoly(rng: random.Random, q: int, max_deg: int = 4,
                 min_deg: int = 0) -> HPoly:
    deg = rng.randint(min_deg, max_deg)
    return HPoly(q, [random_lambda_scalar(rng, q) for _ in range(deg + 1)])


def random_hpoly_pairs(rng: random.Random, count: int,
                       max_deg: int = 4) -> list[tuple[HPoly, HPoly]]:
    """count (f, g) pairs, each over a q drawn from {2, 3}."""
    pairs = []
    for _ in range(count):
        q = rng.choice((2, 3))
        pairs.append((random_hpoly(rng, q, max_deg), random_hpoly(rng, q, max_deg)))
    return pairs


def mu_inv_derivative_closed(q: int, k: int, phi: int) -> HPoly:
    """Closed form of the phi-th Y-derivative of mu^[k], 0 <= phi <= k.

    q^{-2 sigma(phi)} beta(k,phi) gamma_lambda(phi) mu^[k-phi](lambda - 2 phi):
    the reference side of the mu inverse-derivative rule.
    """
    base = mu_power(q, k - phi).shift_lambda(phi)
    scalar = gamma_lambda(q, phi) * (
        Fraction(q) ** (-2 * sigma(phi)) * beta(q, k, phi)
    )
    return base.scale(scalar)


def leibniz_y_rhs(f, g, phi):
    """sum_l [phi,l] q^{2l(s-phi+l)} f^{l} * shift_l(g^{phi-l})."""
    q = f.q
    r, s = f.degree, g.degree
    rhs = None
    for l in range(phi + 1):
        if l > r or phi - l > s:
            continue
        gshift = q_inv_derivative(g, phi - l).shift_lambda(l)
        weight = gauss(q, phi, l) * Fraction(q) ** (2 * l * (s - phi + l))
        term = skew_q_product(q_inv_derivative(f, l), gshift).scale(weight)
        rhs = term if rhs is None else rhs + term
    return rhs


@pytest.fixture(scope="session")
def example_code():
    from skewrank.gfcodes import LinearCode, make_field
    from skewrank.qcombinat import SchemeParams

    params = SchemeParams(3, 4)
    return LinearCode.from_rows(params, make_field(3), EXAMPLE_CODE_ROWS)


@pytest.fixture(scope="session")
def small_corpus():
    """A handful of verified random codes per (q, t), shared across modules."""
    from skewrank.gfcodes import make_field, random_code
    from skewrank.macwilliams import verify_code
    from skewrank.qcombinat import SchemeParams

    rng = random.Random(20240817)
    out = {}
    for q, t in ACCEPTANCE_PAIRS:
        params = SchemeParams(q, t)
        field = make_field(q)
        entries = []
        for _ in range(8):
            k = rng.randint(1, params.num_coords - 1)
            code = random_code(params, field, k, rng)
            entries.append((code, verify_code(code)))
        out[(q, t)] = entries
    return out


@pytest.fixture
def no_tables(monkeypatch):
    """Every space untabled, and no q <= 16 ranked a word at a time."""
    import skewrank.gfcodes as g

    monkeypatch.setattr(g, "_RANK_TABLE_CAP", 0)
    monkeypatch.setattr(g, "_RANK_TABLES", {})
    monkeypatch.setattr(g, "_alt_rank", lambda *args: pytest.fail("_alt_rank"))
    return g
