"""Number-theoretic tables and the pseudorandom majorant.

Integers are factored here only: build_sieve for tables over 1..limit (and
the tau moments of pseudo.verify_correlation), the private trial-division
helper _distinct_prime_factors for a single integer (euler_phi, tau_weight,
the GY pairwise-difference product), and is_prime_64 for primality,
including the primes p <= w behind W and phi(W).

The majorant construction: fix a small-prime cutoff w, let W be the product
of the primes up to w, and restrict attention to the progression W n + 1 so
that small-prime biases disappear.  On a short window [eps N, 2 eps N] the
majorant is the normalized square of a truncated divisor sum at threshold
R = N^theta; elsewhere it is 1.

Desk-scale warning, to save the next person a day: with the default theta
(1/(k 2^(k+4))) or even theta = 1/20, R = N^theta stays below 3 for any
N <= 10^6, and then the truncated divisor sum of W n + 1 degenerates to the
constant log R (no divisor coprime to W fits under the threshold).  theta
of roughly 1/3 or more is needed before the window averages behave like
their large-N limits.

Divisor sums are computed on the progression only: each squarefree d <= R
hits a n + b on one residue class of n, found once, so the work is one
strided add per d over the window and memory is O(window + R), whatever W
is.  The full table lambda_r_table (W N entries for the majorant) stays as
the independent oracle and as the `sieve` command's export.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._primality import is_prime_64
from .core import BudgetExceededError, CyclicGroup, GridFunction

__all__ = [
    "SieveTables",
    "MajorantParams",
    "build_sieve",
    "is_prime_64",
    "euler_phi",
    "lambda_tilde",
    "lambda_r_table",
    "divisor_sums_on_progression",
    "build_majorant",
    "write_tables_csv",
]

_SIEVE_LIMIT_CAP = 50_000_000  # ~50M keeps the tables under ~1 GB
_INT63_MAX = 2**63 - 1


@dataclass(frozen=True)
class SieveTables:
    """Tables for 0..limit from one sieve of Eratosthenes.

    primes lists the primes <= limit in increasing order; mobius[n] is in
    {-1, 0, 1}; von_mangoldt[n] = log p exactly when n = p^m (math.log(p)
    itself, bit for bit).  Both tables are 0 at n = 0.
    """

    limit: int
    primes: np.ndarray
    mobius: np.ndarray
    von_mangoldt: np.ndarray

    def prime_count(self) -> int:
        return int(self.primes.size)


def build_sieve(limit: int) -> SieveTables:
    """Sieve of Eratosthenes with Mobius and von Mangoldt tables.

    Only the primes p <= sqrt(limit) are looped over.  Each one marks its
    multiples from p^2 on as composite, flips the sign of mu on its
    multiples, zeroes mu on the multiples of p^2 and divides p out once from
    a remainder array.  A squarefree n <= limit has at most one prime factor
    above sqrt(limit), and it is exactly what is left in the remainder, so a
    final sign flip wherever the remainder exceeds 1 completes mu.  A limit
    above the cap (50 million) is refused by the budget before anything is
    allocated.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if limit > _SIEVE_LIMIT_CAP:
        raise BudgetExceededError(f"sieve limit {limit} exceeds the cap {_SIEVE_LIMIT_CAP}")
    root = math.isqrt(limit)
    composite = np.zeros(limit + 1, dtype=bool)
    mobius = np.ones(limit + 1, dtype=np.int8)
    mobius[0] = 0
    rest = np.arange(limit + 1, dtype=np.int32 if limit < 2**31 else np.int64)
    for p in range(2, root + 1):
        if composite[p]:
            continue
        composite[p * p :: p] = True
        signs = mobius[p::p]
        np.negative(signs, out=signs)
        mobius[p * p :: p * p] = 0
        rest[p::p] //= p
    np.negative(mobius, out=mobius, where=rest > 1)
    del rest
    primes = np.flatnonzero(~composite[2:]) + 2
    del composite

    von_mangoldt = np.zeros(limit + 1, dtype=np.float64)
    # math.log, not np.log: the vectorised log may differ in the last bit
    logs = np.fromiter(map(math.log, primes.tolist()), np.float64, primes.size)
    von_mangoldt[primes] = logs
    small = primes[primes <= root]
    for p, log_p in zip(small.tolist(), logs[: small.size].tolist()):
        pk = p * p
        while pk <= limit:
            von_mangoldt[pk] = log_p
            pk *= p

    return SieveTables(limit, primes, mobius, von_mangoldt)


def _distinct_prime_factors(n: int) -> list[int]:
    """The distinct primes dividing |n|, in increasing order, by trial division."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    """Euler totient, from the trial-division factorization of n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = n
    for p in _distinct_prime_factors(n):
        result -= result // p
    return result


@dataclass(frozen=True)
class MajorantParams:
    """Parameters for the majorant on Z_N.

    Defaults follow the asymptotic prescription: epsilon_k = 1/(2^k (k+4)!)
    and R_exponent = 1/(k 2^(k+4)).  Both are knobs; see the module docstring
    for why experiments need a much larger R_exponent at desk scale.  W and
    phi_W = phi(W) are computed once, on construction.
    """

    k: int
    N: int
    w: int = 3
    R_exponent: float = 0.0
    epsilon_k: float = 0.0
    W: int = field(init=False)
    phi_W: int = field(init=False)

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError("k must be >= 3")
        if not is_prime_64(self.N):
            raise ValueError(f"N = {self.N} must be prime")
        if self.w < 2:
            raise ValueError("w must be >= 2")
        if self.R_exponent == 0.0:
            object.__setattr__(
                self, "R_exponent", float(Fraction(1, self.k * 2 ** (self.k + 4)))
            )
        if self.R_exponent <= 0:
            raise ValueError("R_exponent must be positive (R = N^theta > 1)")
        if self.epsilon_k == 0.0:
            object.__setattr__(
                self, "epsilon_k", float(Fraction(1, 2**self.k * math.factorial(self.k + 4)))
            )
        if not 0 < self.epsilon_k <= 0.5:
            raise ValueError("epsilon_k must lie in (0, 1/2]")
        W = phi_W = 1  # the 63-bit check ends this scan by p = 53, whatever w is
        for p in range(2, self.w + 1):
            if is_prime_64(p):
                W *= p
                phi_W *= p - 1
                if W * (self.window[1] + 1) + 1 > _INT63_MAX:
                    raise OverflowError("W * (2 epsilon_k N) + 1 does not fit in 63 bits")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "phi_W", phi_W)

    @property
    def R(self) -> float:
        return self.N**self.R_exponent

    @property
    def log_R(self) -> float:
        return self.R_exponent * math.log(self.N)

    @property
    def window(self) -> tuple[int, int]:
        """Inclusive residue window [ceil(eps N), floor(2 eps N)]; may be empty."""
        lo = math.ceil(self.epsilon_k * self.N)
        hi = math.floor(2 * self.epsilon_k * self.N)
        return lo, hi


def lambda_tilde(n: int, params: MajorantParams) -> float:
    """(phi(W)/W) log(W n + 1) when W n + 1 is prime, else 0."""
    m = params.W * n + 1
    if m >= 1 << 64:
        raise OverflowError(f"W*n+1 = {m} exceeds the 64-bit primality range")
    if m < 2 or not is_prime_64(m):
        return 0.0
    return params.phi_W / params.W * math.log(m)


def lambda_r_table(limit: int, R: float) -> np.ndarray:
    """Truncated divisor sums for 1..limit at threshold R.

    table[n] = sum over squarefree divisors d <= R of n of mu(d) log(R/d),
    filled by one pass over d with a strided add to the multiples of d.
    Entry 0 is unused and left at 0.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    d_max = min(int(R), limit)
    small = build_sieve(max(d_max, 2))
    table = np.zeros(limit + 1, dtype=np.float64)
    log_r = math.log(R)
    for d in range(1, d_max + 1):
        mu = int(small.mobius[d])
        if mu == 0:
            continue
        table[d::d] += mu * (log_r - math.log(d))
    return table


def divisor_sums_on_progression(a: int, b: int, lo: int, hi: int, R: float) -> np.ndarray:
    """L_R(a n + b) for lo <= n <= hi, as an array of length hi - lo + 1.

    Walks the squarefree d <= R in increasing order.  d divides a n + b
    exactly when n solves a n = -b (mod d); that needs g = gcd(a, d) to
    divide b, and then n runs through one class modulo d / g, found once
    with Python ints.  Each entry receives the same additions in the same
    order as in lambda_r_table, so the values are bit-identical to
    lambda_r_table(a hi + b, R)[a n + b].  An empty window (lo > hi) gives
    an empty array.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    if a < 1:
        raise ValueError("a must be >= 1")
    out = np.zeros(max(hi - lo + 1, 0), dtype=np.float64)
    if out.size == 0:
        return out
    if a * lo + b < 1:
        raise ValueError(f"a n + b = {a * lo + b} at n = {lo}; it must stay >= 1")
    d_max = min(int(R), a * hi + b)
    small = build_sieve(max(d_max, 2))
    log_r = math.log(R)
    squarefree = np.flatnonzero(small.mobius[: d_max + 1])
    for d, mu in zip(squarefree.tolist(), small.mobius[squarefree].tolist()):
        g = math.gcd(a, d)
        if b % g:
            continue
        step = d // g
        root = -(b // g) * pow(a // g, -1, step) % step
        out[(root - lo) % step :: step] += mu * (log_r - math.log(d))
    return out


def build_majorant(params: MajorantParams) -> GridFunction:
    """The majorant measure on Z_N: normalized squared truncated divisor sums
    of W n + 1 on the window, and 1 off the window.

    Deterministic: identical params give bit-identical values.  An empty
    window (possible when epsilon_k N < 1) yields the constant function 1.
    """
    group = CyclicGroup(params.N)
    values = np.ones(params.N, dtype=np.float64)
    lo, hi = params.window
    if lo > hi:
        return GridFunction(group, values)
    if params.log_R <= 0:
        raise ValueError("R must exceed 1 on a nonempty window")
    lam = divisor_sums_on_progression(params.W, 1, lo, hi, params.R)
    values[lo : hi + 1] = (params.phi_W / params.W) * lam * lam / params.log_R
    return GridFunction(group, values)


def write_tables_csv(
    tables: SieveTables, lambda_r: np.ndarray, path: str, limit: int | None = None
) -> None:
    """Export (n, mu, lambda, lambda_r) rows for external verification."""
    stop = min(tables.limit, lambda_r.size - 1)
    if limit is not None:
        stop = min(stop, limit)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "mu", "lambda", "lambda_r"])
        for n in range(1, stop + 1):
            writer.writerow(
                [
                    n,
                    int(tables.mobius[n]),
                    repr(float(tables.von_mangoldt[n])),
                    repr(float(lambda_r[n])),
                ]
            )
