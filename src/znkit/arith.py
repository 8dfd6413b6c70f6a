"""Number-theoretic tables and the pseudorandom majorant.

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
from .core import CyclicGroup, GridFunction

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
    """Factorization tables for 1..limit.

    smallest_prime_factor[n] is the least prime dividing n (0 for n <= 1);
    mobius[n] in {-1, 0, 1}; von_mangoldt[n] = log p exactly when n = p^m.
    """

    limit: int
    smallest_prime_factor: np.ndarray
    primes: np.ndarray
    mobius: np.ndarray
    von_mangoldt: np.ndarray

    def prime_count(self) -> int:
        return int(self.primes.size)


def build_sieve(limit: int, limit_cap: int = _SIEVE_LIMIT_CAP) -> SieveTables:
    """Sieve of Eratosthenes with smallest-factor, Mobius and von Mangoldt tables."""
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if limit > limit_cap:
        raise MemoryError(
            f"sieve limit {limit} exceeds the cap {limit_cap}; "
            "raise limit_cap explicitly if you really want this"
        )
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    untouched = spf == 0
    untouched[:2] = False
    spf[untouched] = np.flatnonzero(untouched)
    primes = np.flatnonzero(spf == np.arange(limit + 1))
    primes = primes[primes >= 2]

    mobius = np.ones(limit + 1, dtype=np.int8)
    mobius[0] = 0
    for p in primes.tolist():
        mobius[p::p] *= -1
        sq = p * p
        if sq <= limit:
            mobius[sq::sq] = 0

    von_mangoldt = np.zeros(limit + 1, dtype=np.float64)
    logs = np.log(primes.astype(np.float64))
    von_mangoldt[primes] = logs
    for p in primes[primes <= math.isqrt(limit)].tolist():
        pk = p * p
        while pk <= limit:
            von_mangoldt[pk] = math.log(p)
            pk *= p

    return SieveTables(limit, spf, primes, mobius, von_mangoldt)


def euler_phi(n: int) -> int:
    """Euler totient via trial-division factorization."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def _primorial(w: int) -> int:
    prod = 1
    for p in range(2, w + 1):
        if is_prime_64(p):
            prod *= p
    return prod


@dataclass(frozen=True)
class MajorantParams:
    """Parameters for the majorant on Z_N.

    Defaults follow the asymptotic prescription: epsilon_k = 1/(2^k (k+4)!)
    and R_exponent = 1/(k 2^(k+4)).  Both are knobs; see the module docstring
    for why experiments need a much larger R_exponent at desk scale.
    """

    k: int
    N: int
    w: int = 3
    R_exponent: float = 0.0
    epsilon_k: float = 0.0
    W: int = field(init=False)

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
        object.__setattr__(self, "W", _primorial(self.w))
        if self.W * (self.window[1] + 1) + 1 > _INT63_MAX:
            raise OverflowError("W * (2 epsilon_k N) + 1 does not fit in 63 bits")

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

    @property
    def phi_W(self) -> int:
        return euler_phi(self.W)


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
