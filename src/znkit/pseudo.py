"""Pseudorandomness conditions for measures on Z_N.

A measure nu (nonnegative, mean about 1) is tested against two conditions:

* linear forms: products nu(psi_1(x)) ... nu(psi_m(x)) average to 1 over
  x in Z_N^t for affine-linear forms whose coefficient rows are pairwise
  non-proportional;
* correlation: shifted products E(nu(x+h_1) ... nu(x+h_m)) are dominated by
  sum of a divisor-built weight tau at the pairwise differences, with tau
  having bounded moments of every order.

The module also carries the local-factor and window-moment oracles for the
truncated divisor sums that power the majorant, plus the Bernoulli test
measure.  Exact verdicts come from full enumeration; everything sampled
reports a standard error, never a bare number.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .core import (
    BudgetExceededError,
    CyclicGroup,
    EstimatorResult,
    GridFunction,
    inner_product,
    mc_mean,
    substream,
)
from .arith import (MajorantParams, _distinct_prime_factors, build_sieve,
                    divisor_sums_on_progression, is_prime_64)

__all__ = [
    "LinearFormSystem",
    "PseudorandomnessReport",
    "pseudorandom_condition_parameters",
    "halfway",
    "verify_linear_forms",
    "verify_correlation",
    "tau_weight",
    "local_factor_omega",
    "gy_moment_check",
    "gy2_correlation_check",
    "pairwise_difference_product",
    "bernoulli_measure",
    "antiuniform_correlation",
]

_MC_CHUNK = 1 << 17


def pseudorandom_condition_parameters(k: int) -> dict[str, int]:
    """Condition sizes adequate for progressions of length k."""
    return {
        "m0": k * 2 ** (k - 1),
        "t0": 3 * k - 4,
        "L0": k,
        "correlation_m0": 2 ** (k - 1),
    }


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"coefficients must be rational, got {type(x).__name__}")


@dataclass(frozen=True)
class LinearFormSystem:
    """m affine-linear forms in t variables with rational coefficients.

    Invariants enforced on construction: no coefficient row is zero, and no
    row is a rational multiple of another.  The proportionality check can be
    waived (allow_proportional) for the shifted equal-form systems used by
    the correlation diagnostics, where coincident rows are the entire point;
    such systems are not admissible for the linear forms condition.
    """

    coefficients: tuple[tuple[Fraction, ...], ...]
    constants: tuple[int, ...]
    allow_proportional: bool = False

    def __post_init__(self) -> None:
        rows = self.coefficients
        if not rows:
            raise ValueError("need at least one form")
        t = len(rows[0])
        if any(len(r) != t for r in rows):
            raise ValueError("all rows must have the same number of variables")
        if len(self.constants) != len(rows):
            raise ValueError("need one constant per form")
        for i, row in enumerate(rows):
            if all(c == 0 for c in row):
                raise ValueError(f"row {i} is identically zero")
        if self.allow_proportional:
            return
        for i, j in itertools.combinations(range(len(rows)), 2):
            ri, rj = rows[i], rows[j]
            proportional = all(
                ri[a] * rj[b] == ri[b] * rj[a] for a in range(t) for b in range(a + 1, t)
            )
            # with all 2x2 minors zero, nonzero rows are rational multiples
            if t == 1 or proportional:
                raise ValueError(
                    f"rows {i} and {j} are rational multiples of each other"
                )

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence], constants: Sequence[int] | None = None
    ) -> "LinearFormSystem":
        coeffs = tuple(tuple(_as_fraction(c) for c in row) for row in rows)
        if constants is None:
            constants = (0,) * len(coeffs)
        return cls(coeffs, tuple(int(b) for b in constants))

    @classmethod
    def shifted(cls, h_list: Sequence[int]) -> "LinearFormSystem":
        """The equal-form system x + h_i in one variable (diagnostics only)."""
        rows = tuple((Fraction(1),) for _ in h_list)
        return cls(rows, tuple(int(h) for h in h_list), allow_proportional=True)

    @classmethod
    def cube(cls, d: int) -> "LinearFormSystem":
        """The 2^d forms x + omega.h over variables (x, h_1, ..., h_d)."""
        rows = [(1,) + omega for omega in itertools.product((0, 1), repeat=d)]
        return cls.from_rows(rows)

    @classmethod
    def progression(cls, k: int) -> "LinearFormSystem":
        """The k forms x + j r, j = 0..k-1, over variables (x, r)."""
        return cls.from_rows([(1, j) for j in range(k)])

    @property
    def m(self) -> int:
        return len(self.coefficients)

    @property
    def t(self) -> int:
        return len(self.coefficients[0])

    @property
    def coefficient_height(self) -> int:
        return max(
            max(abs(c.numerator), c.denominator) for row in self.coefficients for c in row
        )

    @property
    def denominator_lcm(self) -> int:
        d = 1
        for row in self.coefficients:
            for c in row:
                d = math.lcm(d, c.denominator)
        return d

    def is_integral(self) -> bool:
        return self.denominator_lcm == 1

    def residue_matrix(self, N: int) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients and constants reduced into Z_N (denominators inverted)."""
        if self.denominator_lcm != 1 and not is_prime_64(N):
            raise ValueError("rational coefficients need a prime modulus")
        mat = np.empty((self.m, self.t), dtype=np.int64)
        for i, row in enumerate(self.coefficients):
            for j, c in enumerate(row):
                inv = pow(c.denominator, -1, N) if c.denominator != 1 else 1
                mat[i, j] = (c.numerator % N) * inv % N
        consts = np.asarray([b % N for b in self.constants], dtype=np.int64)
        return mat, consts

    def integer_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.is_integral():
            raise ValueError("system has non-integer coefficients")
        mat = np.asarray(
            [[int(c) for c in row] for row in self.coefficients], dtype=np.int64
        )
        return mat, np.asarray(self.constants, dtype=np.int64)


@dataclass(frozen=True)
class PseudorandomnessReport:
    """Outcome of one condition check.

    deviation is |estimate.value - target|; passed applies verdict_threshold
    to the deviation.  For correlation checks the estimate holds the largest
    ratio of the shifted-product average to its weight bound, so passing
    means ratio <= verdict_threshold there.
    """

    condition: str
    estimate: EstimatorResult
    target: float
    deviation: float
    parameters: tuple
    verdict_threshold: float
    passed: bool
    moments: dict[float, float] | None = None

    def to_dict(self) -> dict:
        out = {
            "condition": self.condition,
            "parameters": list(self.parameters),
            "estimate": self.estimate.value,
            "std_error": self.estimate.std_error,
            "samples": self.estimate.samples,
            "seed": self.estimate.seed,
            "target": self.target,
            "deviation": self.deviation,
            "verdict_threshold": self.verdict_threshold,
            "passed": self.passed,
        }
        if self.moments is not None:
            out["moments"] = {str(q): v for q, v in self.moments.items()}
        return out


def halfway(nu: GridFunction) -> GridFunction:
    """(nu + 1)/2: mixing toward the constant measure preserves pseudorandomness."""
    if nu.values.min() < 0:
        raise ValueError("nu must be nonnegative")
    return GridFunction(nu.group, (nu.values + 1.0) / 2.0)


def verify_linear_forms(
    nu: GridFunction,
    system: LinearFormSystem,
    mode: str = "exact",
    samples: int = 10**6,
    seed: int = 0,
    budget: int = 10**9,
    verdict_threshold: float = 0.25,
) -> PseudorandomnessReport:
    """Average nu(psi_1(x)) ... nu(psi_m(x)) over x in Z_N^t; target is 1.

    Exact mode enumerates the full grid (cost m N^t, budget-gated); otherwise
    uniform sampling with a reported standard error.
    """
    nu.group.ensure_prime()
    if system.allow_proportional:
        raise ValueError(
            "linear forms condition needs pairwise non-proportional rows; "
            "this system was built with allow_proportional"
        )
    N = nu.group.modulus
    mat, consts = system.residue_matrix(N)
    vals = nu.values
    if mode == "exact":
        cost = system.m * N**system.t
        if cost > budget:
            raise BudgetExceededError(
                f"exact enumeration costs {cost:.2e} > budget {budget:.2e}; "
                "use mode='monte_carlo'"
            )
        grid = np.indices((N,) * system.t, dtype=np.int64).reshape(system.t, -1)
        prod = np.ones(grid.shape[1])
        for i in range(system.m):
            idx = (mat[i] @ grid + consts[i]) % N
            prod *= vals[idx]
        est = EstimatorResult(float(prod.mean()), 0.0, int(grid.shape[1]), seed)
    elif mode == "monte_carlo":

        def draw(rng, count):
            x = rng.integers(0, N, size=(count, system.t))
            return vals[(x @ mat.T + consts) % N].prod(axis=1)

        est = mc_mean(draw, samples, seed, "linforms", _MC_CHUNK)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    deviation = abs(est.value - 1.0)
    return PseudorandomnessReport(
        condition="linear_forms",
        estimate=est,
        target=1.0,
        deviation=deviation,
        parameters=(system.m, system.t, system.coefficient_height),
        verdict_threshold=verdict_threshold,
        passed=deviation <= verdict_threshold,
    )


def tau_weight(
    n: int, m: int, N: int, c_tau: float = 4.0, a_tau: float | None = None
) -> float:
    """Divisor-built weight dominating shifted-product averages, at one n.

    tau(n) = c_tau prod_{p | n} (1 + p^(-1/2))^a_tau for n != 0, multiplied
    in increasing p; at n = 0 it is exp(c_tau m log N / log log N), large
    enough to absorb coincident shifts.  a_tau defaults to 2m.  c_tau and
    a_tau are calibration knobs (scripts/calibrate_tau.py); the theory fixes
    their existence, not values.  This scalar route factors n by trial
    division: verify_correlation calls it only for each tuple's pairwise
    bounds, and the tests use it as the oracle for its sieved moments.
    """
    if abs(n) > N:
        raise ValueError("|n| must be at most N")
    if a_tau is None:
        a_tau = 2.0 * m
    if n == 0:
        return math.exp(c_tau * m * math.log(N) / math.log(math.log(N)))
    out = c_tau
    for p in _distinct_prime_factors(n):
        out *= (1.0 + p**-0.5) ** a_tau
    return out


def verify_correlation(
    nu: GridFunction,
    m: int,
    h_tuples: Sequence[Sequence[int]],
    q_list: Sequence[float] = (1.0, 2.0, 4.0),
    c_tau: float = 4.0,
    a_tau: float | None = None,
    verdict_threshold: float = 1.0,
) -> PseudorandomnessReport:
    """Exact shifted-product averages against the tau bound, plus tau moments.

    For each supplied tuple (h_1, ..., h_m) the left side
    E(nu(x+h_1) ... nu(x+h_m)) costs N; reported is the max ratio of left
    side to sum_{i<j} tau(h_i - h_j).  Moments E(tau^q) run over the nonzero
    symmetric residue representatives (the weight at 0 is a separate, huge
    by construction, spike and is reported via tau_weight directly).  They
    are filled from the sieve's primes in tau_weight's order, increasing p,
    so every weight equals tau_weight's bit for bit.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    N = nu.group.modulus
    if N < 3:
        raise ValueError(f"N = {N}: the tau moments need the (N - 1)/2 nonzero "
                         "residues, so N must be at least 3")
    vals = nu.values
    max_ratio = -math.inf
    for h in h_tuples:
        if len(h) != m:
            raise ValueError(f"tuple {h!r} does not have m = {m} entries")
        prod = np.ones(N)
        for hi in h:
            prod *= np.roll(vals, -(int(hi) % N))
        lhs = float(prod.mean())
        bound = 0.0
        for i, j in itertools.combinations(range(m), 2):
            bound += tau_weight(int(h[i]) - int(h[j]), m, N, c_tau, a_tau)
        max_ratio = max(max_ratio, lhs / bound)
    half = (N - 1) // 2
    factor_exponent = 2.0 * m if a_tau is None else a_tau
    tau_vals = np.full(half, c_tau, dtype=np.float64)  # tau_vals[r - 1] = tau(r)
    for p in build_sieve(max(half, 2)).primes.tolist():
        tau_vals[p - 1 :: p] *= (1.0 + p**-0.5) ** factor_exponent
    moments = {float(q): float((tau_vals ** q).mean()) for q in q_list}
    est = EstimatorResult(max_ratio, 0.0, len(h_tuples), 0)
    return PseudorandomnessReport(
        condition="correlation",
        estimate=est,
        target=1.0,
        deviation=abs(max_ratio - 1.0),
        parameters=(m,),
        verdict_threshold=verdict_threshold,
        passed=max_ratio <= verdict_threshold,
        moments=moments,
    )


def local_factor_omega(
    system: LinearFormSystem,
    W: int,
    p: int,
    X: Iterable[int],
    budget: int = 10**7,
) -> Fraction:
    """Density in Z_p^t of common roots of W psi_i + 1 = 0 for i in X; exact.

    Denominators are cleared by the substitution x -> D x (D the lcm), which
    is a bijection mod p as long as p does not divide D.
    """
    if not is_prime_64(p):
        raise ValueError(f"p = {p} must be prime")
    X = sorted(set(X))
    if any(i < 0 or i >= system.m for i in X):
        raise ValueError("X must index forms of the system")
    t = system.t
    if not X:
        return Fraction(1)
    D = system.denominator_lcm
    if D % p == 0 and W % p != 0:
        # the substitution x -> D x is not invertible mod p, so the rational
        # system has no canonical integral model there; when p | W this does
        # not matter: every cleared coefficient W (D/den) num vanishes mod p
        raise ValueError(f"cannot clear denominators: p = {p} divides their lcm {D}")
    if p**t > budget:
        raise BudgetExceededError(f"p^t = {p**t} exceeds budget {budget}")
    grid = np.indices((p,) * t, dtype=np.int64).reshape(t, -1)
    mask = np.ones(grid.shape[1], dtype=bool)
    for i in X:
        row = system.coefficients[i]
        cleared = np.asarray(
            [c.numerator * (D // c.denominator) for c in row], dtype=np.int64
        )
        theta = (W * (cleared @ grid) + W * system.constants[i] + 1) % p
        mask &= theta == 0
    return Fraction(int(mask.sum()), p**t)


def pairwise_difference_product(h_list: Sequence[int]) -> int:
    """prod over i < j of |h_i - h_j|."""
    out = 1
    for a, b in itertools.combinations(h_list, 2):
        out *= abs(int(a) - int(b))
    return out


def _require_nonempty(box: Sequence[tuple[int, int]]) -> None:
    for lo, hi in box:
        if lo > hi:
            raise ValueError(f"box interval [{lo}, {hi}] is empty (lo > hi)")


def gy_moment_check(
    params: MajorantParams,
    system: LinearFormSystem,
    box: Sequence[tuple[int, int]],
    mode: str = "exact",
    samples: int = 10**6,
    seed: int = 0,
    lambda_table: np.ndarray | None = None,
) -> EstimatorResult:
    """Window moment of squared truncated divisor sums along integer forms.

    Returns the ratio of E(prod_i lambda_R(W psi_i(x) + 1)^2 | x in box) to
    (W log R / phi(W))^m, the value the ratio approaches for large N.  Exact
    mode direct-sums (one-variable systems only); sampling covers the rest.
    A box side shorter than R^(10 m) only warns: desk-scale windows are
    routinely shorter, and the ratio is reported either way.

    For each form the divisor sums are computed on the progression
    W k + W c_i + 1 over the range of k = mat[i] . x across the box, unless
    a full lambda_table (indexed by the value W psi_i(x) + 1) is supplied.
    """
    mat, consts = system.integer_matrix()
    if len(box) != system.t:
        raise ValueError("box must supply one interval per variable")
    _require_nonempty(box)
    if mode not in ("exact", "monte_carlo"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and system.t != 1:
        raise ValueError("exact mode handles one-variable systems; use monte_carlo")
    m = system.m
    W = params.W
    R = params.R
    min_side = min(hi - lo + 1 for lo, hi in box)
    if min_side < R ** (10 * m):
        warnings.warn(
            f"box side {min_side} is below R^(10m) = {R ** (10 * m):.3g}; "
            "the ratio is still reported",
            stacklevel=2,
        )
    # per form: the range [k_lo, k_hi] of k = mat[i] . x over the box (its
    # ends are attained at corners) and the offset b with W psi_i + 1 = W k + b
    forms = []
    for row, const in zip(mat.tolist(), consts.tolist()):
        k_lo = sum(a * (lo if a > 0 else hi) for a, (lo, hi) in zip(row, box))
        k_hi = sum(a * (hi if a > 0 else lo) for a, (lo, hi) in zip(row, box))
        forms.append((k_lo, k_hi, W * const + 1))
    if min(W * k_lo + b for k_lo, _, b in forms) < 1:
        raise OverflowError("forms must stay positive over the box")
    if lambda_table is None:
        lams = [divisor_sums_on_progression(W, b, k_lo, k_hi, R) for k_lo, k_hi, b in forms]
    elif lambda_table.size <= max(W * k_hi + b for _, k_hi, b in forms):
        raise ValueError("supplied lambda table does not cover the box")
    else:
        lams = [lambda_table[W * np.arange(k_lo, k_hi + 1) + b] for k_lo, k_hi, b in forms]
    k_min = [k_lo for k_lo, _, _ in forms]
    denom = (W * params.log_R / params.phi_W) ** m

    def weight(x):  # prod_i lambda_R(W psi_i + 1)^2 at the columns of x
        prod = np.ones(x.shape[1])
        for i in range(m):
            lam = lams[i][mat[i] @ x - k_min[i]]
            prod *= lam * lam
        return prod

    if mode == "exact":
        xs = np.arange(box[0][0], box[0][1] + 1, dtype=np.int64)[None, :]
        return EstimatorResult(float(weight(xs).mean()) / denom, 0.0, xs.shape[1], seed)

    def draw(rng, count):
        return weight(np.stack([rng.integers(lo, hi + 1, size=count) for lo, hi in box]))

    est = mc_mean(draw, samples, seed, "gy_moment", _MC_CHUNK)
    return EstimatorResult(est.value / denom, est.std_error / denom, samples, seed)


def gy2_correlation_check(
    params: MajorantParams,
    h_list: Sequence[int],
    box: tuple[int, int],
    a_tau: float | None = None,
) -> EstimatorResult:
    """Shifted-window moment against its arithmetic bound; exact.

    Direct-sums E(prod_i lambda_R(W(x+h_i)+1)^2 | x in box) and divides by
    (W log R / phi(W))^m times prod_{p | Delta} (1 + p^(-1/2))^a_tau, where
    Delta is the pairwise difference product of the shifts.  The divisor
    sums are computed on the progression W x + W h_i + 1 over the box only,
    so memory is O(m |box| + R) whatever W and the shifts (|h| <= N^2) are.
    """
    h_list = [int(h) for h in h_list]
    if len(set(h_list)) != len(h_list):
        raise ValueError("shifts must be distinct")
    if any(abs(h) > params.N**2 for h in h_list):
        raise ValueError("shifts must satisfy |h| <= N^2")
    lo, hi = box
    _require_nonempty([box])
    m = len(h_list)
    if a_tau is None:
        a_tau = 2.0 * m
    if params.W * (lo + min(h_list)) + 1 < 1:
        raise OverflowError("W (x + h) + 1 must stay positive over the box")
    prod = np.ones(hi - lo + 1)
    for h in h_list:
        lam = divisor_sums_on_progression(params.W, params.W * h + 1, lo, hi, params.R)
        prod *= lam * lam
    lhs = float(prod.mean())
    delta = pairwise_difference_product(h_list)
    arith_factor = 1.0
    for p in _distinct_prime_factors(delta):
        arith_factor *= (1.0 + p**-0.5) ** a_tau
    denom = (params.W * params.log_R / params.phi_W) ** m * arith_factor
    return EstimatorResult(lhs / denom, 0.0, hi - lo + 1, 0)


def bernoulli_measure(N: int, seed: int) -> GridFunction:
    """Random measure: each point is log N with probability 1/log N, else 0."""
    if N < 3:
        raise ValueError("N must be >= 3 so that log N > 1")
    rng = substream(seed, "bernoulli")
    log_n = math.log(N)
    vals = np.where(rng.random(N) < 1.0 / log_n, log_n, 0.0)
    return GridFunction(CyclicGroup(N), vals)


def antiuniform_correlation(
    nu: GridFunction,
    duals: Sequence[GridFunction],
    poly: dict[tuple[int, ...], float],
) -> float:
    """<nu - 1, Phi(DF_1, ..., DF_K)> for a polynomial Phi given by exponents.

    poly maps exponent tuples (one exponent per dual function) to real
    coefficients.  Structured measures should make this small when the duals
    come from functions dominated by nu + 1.
    """
    group = nu.group
    psi = np.zeros(group.modulus)
    for exponents, coeff in poly.items():
        if len(exponents) != len(duals):
            raise ValueError("each exponent tuple must address every dual function")
        term = np.full(group.modulus, float(coeff))
        for df, e in zip(duals, exponents):
            if e:
                term *= df.values**e
        psi += term
    return inner_product(nu - 1.0, GridFunction(group, psi))
