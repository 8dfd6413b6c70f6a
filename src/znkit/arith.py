"""Number-theoretic tables and the pseudorandom majorant.

Integers are factored here only: odd_prime_bits for the odd primes as a
packed bitset from one segmented sieve, 1/16 byte per integer (the 2- and
3-term prime progression counts read it directly, through the strided
reader _read_bits), odd_prime_indicator for the same bits unpacked into a
bool per odd number (primes_up_to, the tau moments of
pseudo.verify_correlation, the k >= 4 progression scan), primes_up_to for
the primes as integers, build_sieve for the Mobius and von Mangoldt tables
over 0..limit, the private trial-division helper
_distinct_prime_factors for a single integer (tau_weight, each pairwise
difference of the GY shifts), and is_prime_64 for primality, including the
primes p <= w behind W and phi(W).

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
is.  The `sieve` command's export is the same sums on the progression
n = 1..limit (a = 1, b = 0).
"""

from __future__ import annotations

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
    "primes_up_to",
    "odd_prime_bits",
    "odd_prime_indicator",
    "is_prime_64",
    "lambda_tilde",
    "divisor_sums_on_progression",
    "build_majorant",
]

_SIEVE_LIMIT_CAP = 50_000_000  # ~50M keeps the tables under ~1 GB
_SIEVE_SEGMENT = 2**18  # odd numbers per sieve segment: a 256 KiB bool array
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


def odd_prime_bits(limit: int) -> np.ndarray:
    """The odd primes <= limit as a packed bitset: bit a (little bit order,
    bit a % 8 of byte a // 8) is set exactly when 2 a + 1 is a prime <= limit,
    for 0 <= a < (limit + 1) // 2; the padding bits of the last byte are 0.

    A segmented sieve of Eratosthenes: the half-indices are sieved
    _SIEVE_SEGMENT at a time in one reused bool segment, and each sieved
    segment is packed into place, so the result is 1/16 byte per integer and
    the peak adds one segment.  The first segment holds every odd prime
    p <= sqrt(limit) below the cap, found there as the sieve reaches them;
    each later segment clears, for each of those p, its odd multiples from
    max(p^2, segment start) on.  A limit above the cap (50 million) is
    refused by the budget before anything is allocated.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit > _SIEVE_LIMIT_CAP:
        raise BudgetExceededError(f"sieve limit {limit} exceeds the cap {_SIEVE_LIMIT_CAP}")
    size = (limit + 1) // 2
    bits = np.empty(-(-size // 8), dtype=np.uint8)
    segment = np.empty(min(size, _SIEVE_SEGMENT), dtype=bool)
    roots = (math.isqrt(limit) + 1) // 2  # p = 2 a + 1 <= sqrt(limit) for a < roots
    primes: list[int] = []
    for lo in range(0, size, _SIEVE_SEGMENT):
        part = segment[: min(size - lo, _SIEVE_SEGMENT)]
        part[:] = True
        if lo == 0:
            part[0] = False  # a = 0 is 1
            for a in range(1, roots):
                if part[a]:
                    p = 2 * a + 1
                    part[p * p // 2 :: p] = False
            primes = (2 * np.flatnonzero(part[:roots]) + 1).tolist()
        else:
            for p in primes:
                offset = p * p // 2 - lo
                if offset >= part.size:
                    break
                part[max(offset, offset % p) :: p] = False
        bits[lo // 8 : -(-(lo + part.size) // 8)] = np.packbits(part, bitorder="little")
    return bits


def odd_prime_indicator(limit: int) -> np.ndarray:
    """odd_prime_bits(limit) unpacked: is_p[a] is true exactly when 2 a + 1
    is a prime <= limit, for 0 <= a < (limit + 1) // 2.

    A bool per odd number, half a byte per integer, for the callers that
    index or scan it freely (primes_up_to, the tau table of
    pseudo.verify_correlation, count_prime_aps for k >= 4); the cap is
    odd_prime_bits'.
    """
    bits = odd_prime_bits(limit)
    return np.unpackbits(bits, count=(limit + 1) // 2, bitorder="little").view(bool)


def _read_bits(bits: np.ndarray, start: int, step: int, out: np.ndarray) -> np.ndarray:
    """Fill out[i] with bit start + i step of the bitset bits, as 0 or 1.

    Bits i and i + P, P = 8 / gcd(step, 8), sit step P / 8 bytes apart at
    the same bit of their bytes, so out[j::P] is one byte-strided slice of
    bits, shifted and masked: P slices, and no index array.  out is float
    or uint8; every bit read must lie in bits.
    """
    period = 8 // math.gcd(step, 8)
    stride = step * period // 8
    for j in range(min(period, out.size)):
        bit = start + j * step
        dest = out[j::period]
        np.bitwise_and(bits[bit // 8 :: stride][: dest.size] >> (bit % 8), 1, out=dest)
    return out


def primes_up_to(limit: int) -> np.ndarray:
    """The primes <= limit in increasing order, as int64, from odd_prime_indicator.

    The odd primes are 2 a + 1 at the true entries; entry a = 0 (the number
    1) is set true and relabelled as the prime 2, so the peak is the
    unpacked indicator (half a byte per integer) beside the bitset it came
    from (1/16), plus the primes.  The cap is odd_prime_bits'.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    is_p = odd_prime_indicator(limit)
    is_p[0] = True  # the slot of 1 holds 2
    primes = np.flatnonzero(is_p)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def build_sieve(limit: int) -> SieveTables:
    """Sieve of Eratosthenes with Mobius and von Mangoldt tables.

    The primes come from primes_up_to.  Each prime p <= sqrt(limit) flips
    the sign of mu on its multiples, zeroes mu on the multiples of p^2 and
    divides p out once from a remainder array.  A squarefree n <= limit has
    at most one prime factor above sqrt(limit), and it is exactly what is
    left in the remainder, so a final sign flip wherever the remainder
    exceeds 1 completes mu.  The limit cap is primes_up_to's.
    """
    primes = primes_up_to(limit)
    root = math.isqrt(limit)
    small = primes[primes <= root]
    mobius = np.ones(limit + 1, dtype=np.int8)
    mobius[0] = 0
    rest = np.arange(limit + 1, dtype=np.int32 if limit < 2**31 else np.int64)
    for p in small.tolist():
        signs = mobius[p::p]
        np.negative(signs, out=signs)
        mobius[p * p :: p * p] = 0
        rest[p::p] //= p
    np.negative(mobius, out=mobius, where=rest > 1)
    del rest

    von_mangoldt = np.zeros(limit + 1, dtype=np.float64)
    # math.log, not np.log: the vectorised log may differ in the last bit
    logs = np.fromiter(map(math.log, primes.tolist()), np.float64, primes.size)
    von_mangoldt[primes] = logs
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
        if self.epsilon_k == 0.0:
            object.__setattr__(
                self, "epsilon_k", float(Fraction(1, 2**self.k * math.factorial(self.k + 4)))
            )
        if not 0 < self.R_exponent < math.inf:
            raise ValueError("R_exponent must be positive and finite (R = N^theta > 1), "
                             f"got {self.R_exponent}")
        if not 0 < self.epsilon_k < math.inf:
            raise ValueError(f"epsilon_k must be positive and finite, got {self.epsilon_k}")
        lo, hi = self.window
        if hi >= self.N:
            raise ValueError(
                f"epsilon_k = {self.epsilon_k} gives the window [{lo}, {hi}] at "
                f"N = {self.N}, but residues stop at N - 1: need floor(2 epsilon_k N) "
                "< N, so epsilon_k < 1/2"
            )
        W = phi_W = 1  # the 63-bit check ends this scan by p = 53, whatever w is
        for p in range(2, self.w + 1):
            if is_prime_64(p):
                W *= p
                phi_W *= p - 1
                if W * (hi + 1) + 1 > _INT63_MAX:
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
        """Inclusive residue window [ceil(eps N), floor(2 eps N)] within [0, N - 1]
        (construction refuses a top at N or beyond); may be empty."""
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


def divisor_sums_on_progression(
    a: int, b: int, lo: int, hi: int, R: float, out: np.ndarray | None = None
) -> np.ndarray:
    """L_R(a n + b) for lo <= n <= hi, as an array of length hi - lo + 1.

    Walks the squarefree d <= R in increasing order.  d divides a n + b
    exactly when n solves a n = -b (mod d); that needs g = gcd(a, d) to
    divide b, and then n runs through one class modulo d / g, found once
    with Python ints.  Each entry receives the same additions in the same
    order as in a full table of L_R over 1..a hi + b filled by one strided
    add per d, so the values are bit-identical to that table at a n + b.
    An empty window (lo > hi) gives an empty array.  Given out, a float64
    vector of hi - lo + 1 entries (a slice of a larger table, say), the sums
    are written there, over zeros, and out is returned.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    if a < 1:
        raise ValueError("a must be >= 1")
    size = max(hi - lo + 1, 0)
    if out is None:
        out = np.zeros(size, dtype=np.float64)
    elif out.dtype != np.float64 or out.shape != (size,):
        raise ValueError(f"out must be a float64 vector of {size} entries, "
                         f"got {out.dtype} of shape {out.shape}")
    else:
        out.fill(0.0)
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
    window (possible when epsilon_k N < 1) yields the constant function 1,
    held as one float (GridFunction.constant).  The divisor sums are written
    into the window of the values and scaled there in the order
    (phi(W)/W) lam, then times lam, then over log R, so beside the N values
    only one window-sized temporary is held.
    """
    group = CyclicGroup(params.N)
    lo, hi = params.window
    if lo > hi:
        return GridFunction.constant(group, 1.0)
    if params.log_R <= 0:
        raise ValueError("R must exceed 1 on a nonempty window")
    values = np.ones(params.N, dtype=np.float64)
    lam = divisor_sums_on_progression(params.W, 1, lo, hi, params.R,
                                      out=values[lo : hi + 1])
    lam[:] = (params.phi_W / params.W) * lam * lam / params.log_R
    return GridFunction(group, values)

