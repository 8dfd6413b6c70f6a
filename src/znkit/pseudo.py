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
reports a standard error, never a bare number.  Linear forms, exact or
sampled, and both window moments take their products from one kernel,
core._form_product; the exact correlation check sums in leaves of numpy's
pairwise-sum tree, core._pairwise_sum.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .core import (
    CyclicGroup,
    EstimatorResult,
    GridFunction,
    _check_budget,
    _form_product,
    _pairwise_sum,
    inner_product,
    mc_mean,
    substream,
)
from .arith import (MajorantParams, _distinct_prime_factors,
                    divisor_sums_on_progression, is_prime_64, odd_prime_indicator)

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
        # two nonzero rows are rational multiples exactly when they agree
        # after division by their first nonzero coefficient; the pair
        # reported is the first in itertools.combinations order
        classes: dict[tuple[Fraction, ...], list[int]] = {}
        for j, row in enumerate(rows):
            lead = next(c for c in row if c != 0)
            classes.setdefault(tuple(c / lead for c in row), []).append(j)
        pairs = [members[:2] for members in classes.values() if len(members) > 1]
        if pairs:
            i, j = min(pairs)
            raise ValueError(f"rows {i} and {j} are rational multiples of each other")

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence], constants: Sequence[int] | None = None
    ) -> "LinearFormSystem":
        coeffs = tuple(tuple(_as_fraction(c) for c in row) for row in rows)
        if constants is None:
            constants = (0,) * len(coeffs)
        return cls(coeffs, tuple(operator.index(b) for b in constants))

    @classmethod
    def shifted(cls, h_list: Sequence[int]) -> "LinearFormSystem":
        """The equal-form system x + h_i in one variable (diagnostics only)."""
        rows = tuple((Fraction(1),) for _ in h_list)
        return cls(rows, tuple(operator.index(h) for h in h_list), allow_proportional=True)

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

    Both modes evaluate one product of nu over the forms at columns of
    points, core._form_product, which builds each form's index by in-place
    adds and needs no remainder for small coefficients.  Exact mode
    enumerates the full grid (cost m N^t, budget-gated) in chunks of flat
    indices, so memory stays bounded whatever N^t is; each chunk is summed
    by numpy's pairwise reduction and the chunk sums are added in order.
    Otherwise uniform sampling with a reported standard error.
    """
    nu.group.ensure_prime()
    if system.allow_proportional:
        raise ValueError(
            "linear forms condition needs pairwise non-proportional rows; "
            "this system was built with allow_proportional"
        )
    N = nu.group.modulus
    weight = _form_product(nu.values, *system.residue_matrix(N))
    if mode == "exact":
        points = N**system.t
        _check_budget(system.m * points, budget,
                      f"exact enumeration of N^t = {points} points", "use mode='monte_carlo'")
        total = 0.0
        for start in range(0, points, _MC_CHUNK):
            flat = np.arange(start, min(start + _MC_CHUNK, points), dtype=np.int64)
            total += float(weight(np.stack(np.unravel_index(flat, (N,) * system.t))).sum())
        est = EstimatorResult(total / points, 0.0, points, seed)
    elif mode == "monte_carlo":

        def draw(rng, count):
            return weight(rng.integers(0, N, size=(count, system.t)).T)

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
    bounds, and the tests use it as the oracle for its moments, which sieve
    the same factors, (1 + p^(-1/2))^a_tau computed the same way, and
    multiply them in the same order, leaf by leaf.
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


_PRODUCT_LEAF = 1 << 14  # floats of a shifted-product leaf buffer (128 KiB)
_TAU_LEAF_MIN = 1 << 14  # least residues per tau leaf
_FACTOR_CHUNK = 1 << 12  # odd numbers whose primes' tau factors are computed at once


def _tau_leaf(half: int) -> int:
    """Residues per tau leaf: the least power of two >= 16 isqrt(half), and
    at least _TAU_LEAF_MIN.  Each leaf loops in Python over the primes up to
    isqrt(half), so the leaves grow with N to keep that loop a small share."""
    return max(_TAU_LEAF_MIN, 1 << (16 * math.isqrt(half) - 1).bit_length())


def _correlation_shape(N: int) -> tuple[int, int, int, int]:
    """(product leaf, tau leaf, number of tau leaves, factor table entries)
    of verify_correlation at modulus N."""
    half = (N - 1) // 2
    cap = _tau_leaf(half)
    leaves = _pairwise_sum(half, lambda lo, hi: 1, cap)  # each leaf counts 1
    return _PRODUCT_LEAF, cap, leaves, (half + 1) // 2


def _shifted_product(vals: np.ndarray, shifts: Sequence[int], lo: int,
                     out: np.ndarray) -> np.ndarray:
    """out[x - lo] = 1 * vals[(x + s_1) mod N] * ... * vals[(x + s_m) mod N]
    for x in [lo, lo + out.size), out.size <= N: the floats of a product of
    np.roll copies.  The first shift is copied in (1 * v = v) and each
    further one multiplied in place, at most two slices of vals each."""
    n, size = vals.size, out.size
    for i, shift in enumerate(shifts):
        a = (lo + shift) % n
        cut = min(size, n - a)  # entries before the index wraps past N
        if i == 0:
            out[:cut] = vals[a : a + cut]
            if cut < size:
                out[cut:] = vals[: size - cut]
        else:
            out[:cut] *= vals[a : a + cut]
            if cut < size:
                out[cut:] *= vals[: size - cut]
    return out


def _tau_factors(half: int, exponent: float) -> tuple[list[tuple], np.ndarray]:
    """The small primes p <= max(2, isqrt(half)) as (p, f(p), [p^2, p^3, ...
    <= half]), and the table whose entry (P - 1) // 2 is f(P) at each larger
    prime P <= half and 1.0 elsewhere, with f(p) = (1 + p^(-1/2))^exponent
    computed as tau_weight does.  2 is small even when isqrt(half) < 2
    (N <= 7): as the least prime it keeps the order, and entry 0 stays 1.0
    for the cofactor 1.  The table has (half + 1) // 2 entries and is filled
    from the odd-prime sieve, _FACTOR_CHUNK odd numbers at a time."""
    is_p = odd_prime_indicator(half)  # is_p[a]: 2 a + 1 is a prime <= half
    first_big = (math.isqrt(half) + 1) // 2  # odd 2 a + 1 > isqrt(half)
    small = [2] + (2 * np.flatnonzero(is_p[:first_big]) + 1).tolist()
    small_factors = []
    for p in small:
        powers = []
        pk = p * p
        while pk <= half:
            powers.append(pk)
            pk *= p
        small_factors.append((p, (1.0 + p**-0.5) ** exponent, powers))
    table = np.ones(is_p.size)
    for start in range(first_big, is_p.size, _FACTOR_CHUNK):
        idx = np.flatnonzero(is_p[start : start + _FACTOR_CHUNK]) + start
        table[idx] = [(1.0 + p**-0.5) ** exponent for p in (2 * idx + 1).tolist()]
    return small_factors, table


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
    symmetric residue representatives 1..(N - 1)/2 (the weight at 0 is a
    separate, huge by construction, spike and is reported via tau_weight
    directly).

    Both sides stream in leaves of numpy's pairwise-sum tree
    (core._pairwise_sum), so every average equals np.mean of the dense array
    bit for bit, and beside nu only one table of N/4 floats (sieved from
    N/4 bytes) and O(leaf) buffers are held.  A product leaf of at most _PRODUCT_LEAF points is
    formed by _shifted_product.  A tau leaf fills its residues r with c_tau,
    multiplies in f(p) = (1 + p^(-1/2))^a_tau for each prime p <= sqrt(half)
    dividing r, in increasing p, while collecting r's part built from those
    primes; what is left of r is 1 or its one larger prime factor P, whose
    f(P) comes last from the factor table.  These are tau_weight's
    multiplications in its order, so every weight equals it bit for bit.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    N = nu.group.modulus
    if N < 3:
        raise ValueError(f"N = {N}: the tau moments need the (N - 1)/2 nonzero "
                         "residues, so N must be at least 3")
    if len(h_tuples) == 0:
        raise ValueError("h_tuples is empty: the correlation check needs at least "
                         "one tuple of shifts")
    for h in h_tuples:
        if len(h) != m:
            raise ValueError(f"tuple {h!r} does not have m = {m} entries")
    h_tuples = [[operator.index(s) for s in h] for h in h_tuples]
    vals = nu.values
    buf = np.empty(min(N, _PRODUCT_LEAF))
    max_ratio = -math.inf
    for h in h_tuples:
        shifts = [s % N for s in h]
        total = _pairwise_sum(
            N,
            lambda lo, hi: np.add.reduce(_shifted_product(vals, shifts, lo, buf[: hi - lo])),
            _PRODUCT_LEAF,
        )
        bound = 0.0
        for i, j in itertools.combinations(range(m), 2):
            bound += tau_weight(h[i] - h[j], m, N, c_tau, a_tau)
        max_ratio = max(max_ratio, float(total / N) / bound)
    del buf
    half = (N - 1) // 2
    small, table = _tau_factors(half, 2.0 * m if a_tau is None else a_tau)
    cap = _tau_leaf(half)
    size = min(half, cap)
    tau_buf = np.empty(size)
    part_buf = np.empty(size, dtype=np.int64)
    rest_buf = np.empty(size, dtype=np.int64)

    def tau_sums(lo: int, hi: int) -> np.ndarray:
        # residues r = lo + 1 .. hi
        tau, part, rest = tau_buf[: hi - lo], part_buf[: hi - lo], rest_buf[: hi - lo]
        tau.fill(c_tau)
        part.fill(1)
        for p, f, powers in small:
            first = -(lo + 1) % p
            tau[first::p] *= f
            part[first::p] *= p
            for pk in powers:
                if pk > hi:
                    break
                part[-(lo + 1) % pk :: pk] *= p
        np.floor_divide(np.arange(lo + 1, hi + 1, dtype=np.int64), part, out=rest)
        rest -= 1
        rest >>= 1  # (P - 1) // 2, and 0 (factor 1.0) where r has no larger prime
        tau *= table[rest]
        return np.array([np.add.reduce(tau**q) for q in q_list])

    sums = _pairwise_sum(half, tau_sums, cap)
    moments = {float(q): s / half for q, s in zip(q_list, sums.tolist())}
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
    _check_budget(p**t, budget, f"enumeration of p^t = {p}^{t} points", "lower p")
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


def _require_nonempty(box: Sequence[tuple[int, int]]) -> None:
    for lo, hi in box:
        if lo > hi:
            raise ValueError(f"box interval [{lo}, {hi}] is empty (lo > hi)")


def _window_weight(
    params: MajorantParams, system: LinearFormSystem, box: Sequence[tuple[int, int]]
):
    """weight(x) = prod_i lambda_R(W psi_i(x) + 1)^2 at the columns of x in
    the box, and its normaliser (W log R / phi(W))^m.

    For each form the divisor sums are computed on the progression
    W k + W c_i + 1 over the range of k = mat[i] . x across the box (its ends
    are attained at corners), so memory is O(m |box| + R) whatever W is.
    Their squares share one table, and the product runs on the linear-forms
    kernel core._form_product with no remainder.
    """
    mat, consts = system.integer_matrix()
    W = params.W
    forms = []  # (k_lo, k_hi, b) with W psi_i + 1 = W k + b
    for row, const in zip(mat.tolist(), consts.tolist()):
        k_lo = sum(a * (lo if a > 0 else hi) for a, (lo, hi) in zip(row, box))
        k_hi = sum(a * (hi if a > 0 else lo) for a, (lo, hi) in zip(row, box))
        forms.append((k_lo, k_hi, W * const + 1))
    if min(W * k_lo + b for k_lo, _, b in forms) < 1:
        raise OverflowError("forms must stay positive over the box")
    # form i's squared divisor sums fill one table from start_i on, so its
    # index there, mat[i] . x + start_i - k_lo, never leaves the table
    table = np.empty(sum(k_hi - k_lo + 1 for k_lo, k_hi, _ in forms))
    shifts = []
    start = 0
    for k_lo, k_hi, b in forms:
        lam = divisor_sums_on_progression(W, b, k_lo, k_hi, params.R)
        np.multiply(lam, lam, out=table[start : start + lam.size])
        shifts.append(start - k_lo)
        start += lam.size
    weight = _form_product(table, mat, shifts, bound=table.size)
    return weight, (W * params.log_R / params.phi_W) ** system.m


def gy_moment_check(
    params: MajorantParams,
    system: LinearFormSystem,
    box: Sequence[tuple[int, int]],
    mode: str = "exact",
    samples: int = 10**6,
    seed: int = 0,
) -> EstimatorResult:
    """Window moment of squared truncated divisor sums along integer forms.

    Returns the ratio of E(prod_i lambda_R(W psi_i(x) + 1)^2 | x in box) to
    (W log R / phi(W))^m, the value the ratio approaches for large N.  Exact
    mode direct-sums (one-variable systems only); sampling covers the rest.
    A box side shorter than R^(10 m) only warns: desk-scale windows are
    routinely shorter, and the ratio is reported either way.  The divisor
    sums are always computed on the progression of each form over the box.
    """
    if len(box) != system.t:
        raise ValueError("box must supply one interval per variable")
    _require_nonempty(box)
    if mode not in ("exact", "monte_carlo"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and system.t != 1:
        raise ValueError("exact mode handles one-variable systems; use monte_carlo")
    m = system.m
    R = params.R
    min_side = min(hi - lo + 1 for lo, hi in box)
    if min_side < R ** (10 * m):
        warnings.warn(
            f"box side {min_side} is below R^(10m) = {R ** (10 * m):.3g}; "
            "the ratio is still reported",
            stacklevel=2,
        )
    weight, denom = _window_weight(params, system, box)
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

    Direct-sums E(prod_i lambda_R(W(x+h_i)+1)^2 | x in box) through the
    window weight of gy_moment_check on the shifted system x + h_i, and
    divides by (W log R / phi(W))^m times prod_{p | Delta} (1 + p^(-1/2))^a_tau
    in increasing p, where Delta is the product of the pairwise differences
    of the shifts.  Its primes are collected one difference at a time (each
    is at most 2 N^2), so Delta itself is never factored.  Memory is
    O(m |box| + R) whatever W and the shifts (|h| <= N^2) are.
    """
    h_list = [operator.index(h) for h in h_list]
    if len(set(h_list)) != len(h_list):
        raise ValueError("shifts must be distinct")
    if any(abs(h) > params.N**2 for h in h_list):
        raise ValueError("shifts must satisfy |h| <= N^2")
    lo, hi = box
    _require_nonempty([box])
    weight, denom = _window_weight(params, LinearFormSystem.shifted(h_list), [box])
    lhs = float(weight(np.arange(lo, hi + 1, dtype=np.int64)[None, :]).mean())
    if a_tau is None:
        a_tau = 2.0 * len(h_list)
    primes = set()
    for a, b in itertools.combinations(h_list, 2):
        primes.update(_distinct_prime_factors(a - b))
    arith_factor = 1.0
    for p in sorted(primes):
        arith_factor *= (1.0 + p**-0.5) ** a_tau
    return EstimatorResult(lhs / (denom * arith_factor), 0.0, hi - lo + 1, 0)


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
