"""Exact MacWilliams identities for skew-rank-metric codes.

Linear codes of alternating matrices over GF(q), their weight
distributions, and the transform relating a code's distribution to its
dual's -- computed three independent ways and cross-checked, all in exact
arithmetic: ints where the value is an integer, Fraction only for negative
arguments (negative powers of q and what they enter).
"""

from .gfcodes import (
    CodeFormatError,
    EnumerationBudgetError,
    FieldSpec,
    LinearCode,
    SkewMat,
    WeightDist,
    canonical_decompose,
    diameter,
    dual,
    full_space_code,
    make_field,
    min_distance,
    parse_code,
    random_code,
    rank_census,
    serialize_code,
    skew_rank,
    weight_distribution,
    zero_code,
)
from .homopoly import (
    HPoly,
    evaluate,
    mu_poly,
    mu_power,
    nu_poly,
    nu_power,
    omega,
    skew_q_power,
    skew_q_product,
    skew_q_transform,
)
from .krawtchouk import (
    KrawtchoukMatrix,
    generalized_p,
    p_matrix,
    skew_c,
    skew_p,
)
from .lambda_ring import LambdaScalar, eval_lambda, gamma_lambda, shift
from .macwilliams import (
    VerifyReport,
    transform_functional,
    transform_matrix,
    verify_code,
)
from .moments import (
    check_first_moment,
    check_second_moment,
    corollary_bounds,
    delta_closed,
    epsilon_closed,
    find_msrd,
    invert_sequence,
    is_msrd,
    msrd_distribution,
)
from .qcalculus import (
    eval_nu_derivative_at_ones,
    q_derivative,
    q_inv_derivative,
)
from .qcombinat import SchemeParams, beta, gamma, gauss, sigma, xi

__version__ = "0.1.0"

__all__ = [
    "CodeFormatError",
    "EnumerationBudgetError",
    "FieldSpec",
    "HPoly",
    "KrawtchoukMatrix",
    "LambdaScalar",
    "LinearCode",
    "SchemeParams",
    "SkewMat",
    "VerifyReport",
    "WeightDist",
    "beta",
    "canonical_decompose",
    "check_first_moment",
    "check_second_moment",
    "corollary_bounds",
    "delta_closed",
    "diameter",
    "dual",
    "epsilon_closed",
    "eval_lambda",
    "eval_nu_derivative_at_ones",
    "evaluate",
    "find_msrd",
    "full_space_code",
    "gamma",
    "gamma_lambda",
    "gauss",
    "generalized_p",
    "invert_sequence",
    "is_msrd",
    "make_field",
    "min_distance",
    "msrd_distribution",
    "mu_poly",
    "mu_power",
    "nu_poly",
    "nu_power",
    "omega",
    "p_matrix",
    "parse_code",
    "q_derivative",
    "q_inv_derivative",
    "random_code",
    "rank_census",
    "serialize_code",
    "shift",
    "sigma",
    "skew_c",
    "skew_p",
    "skew_q_power",
    "skew_q_product",
    "skew_q_transform",
    "skew_rank",
    "transform_functional",
    "transform_matrix",
    "verify_code",
    "weight_distribution",
    "xi",
    "zero_code",
]
