"""Toolkit for uniformity norms, prime majorants, and energy-increment
decompositions on the cyclic group Z_N."""

from .core import (
    BudgetExceededError,
    CyclicGroup,
    EstimatorResult,
    GridFunction,
    GroupMismatchError,
    SigmaAlgebra,
    atoms_of,
    conditional_expectation,
    expectation,
    inner_product,
    join_sigma,
    lq_norm,
    substream,
)
from .gowers import (
    CubeFamily,
    GowersEstimate,
    dual_function,
    dual_function_u2_fourier,
    gowers_inner,
    gowers_norm,
    gowers_norm_mc,
    gowers_norm_u2_fourier,
)
from .arith import (
    MajorantParams,
    SieveTables,
    build_majorant,
    build_sieve,
    divisor_sums_on_progression,
    euler_phi,
    is_prime_64,
    lambda_tilde,
    odd_prime_indicator,
    primes_up_to,
)
from .pseudo import (
    LinearFormSystem,
    PseudorandomnessReport,
    bernoulli_measure,
    gy2_correlation_check,
    gy_moment_check,
    halfway,
    local_factor_omega,
    tau_weight,
    verify_correlation,
    verify_linear_forms,
)
from .transference import (
    DecompositionConfig,
    DecompositionResult,
    ap_expectation,
    build_level_sigma,
    count_prime_aps,
    energy,
    exceptional_set,
    gvn_check,
    kvn_decompose,
)

__version__ = "0.1.0"
