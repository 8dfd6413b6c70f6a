import math
import os
import time
import tracemalloc

import numpy as np
import pytest
from functools import lru_cache

from hypothesis import example, given, settings
import hypothesis.strategies as st

from znkit import (
    BudgetExceededError,
    MajorantParams,
    build_majorant,
    build_sieve,
    divisor_sums_on_progression,
    is_prime_64,
    lambda_tilde,
    odd_prime_bits,
    odd_prime_indicator,
    primes_up_to,
)
from znkit.arith import _read_bits
from znkit.cli import _write_tables_csv


def whole_array_odd_prime_indicator(limit: int) -> np.ndarray:
    """The odd half of a sieve of Eratosthenes in one array, the oracle of
    the segmented sieve: is_p[a] is true exactly when 2 a + 1 is a prime
    <= limit, and each odd prime p <= sqrt(limit) clears its odd multiples
    from p^2 on, a = (p^2 - 1) / 2 + i p."""
    is_p = np.ones((limit + 1) // 2, dtype=bool)
    is_p[:1] = False  # a = 0 is 1
    for a in range(1, (math.isqrt(limit) + 1) // 2):
        if is_p[a]:
            p = 2 * a + 1
            is_p[p * p // 2 :: p] = False
    return is_p


def euler_phi(n: int) -> int:
    """Euler's totient by trial division: the oracle for MajorantParams.phi_W."""
    result, p = n, 2
    while p * p <= n:
        if n % p == 0:
            result -= result // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        result -= result // n
    return result


def lambda_r_table(limit: int, R: float) -> np.ndarray:
    """Truncated divisor sums for 1..limit at threshold R, the full-table oracle.

    table[n] = sum over squarefree divisors d <= R of n of mu(d) log(R/d),
    filled by one pass over d with a strided add to the multiples of d.
    Entry 0 is unused and left at 0.
    """
    assert R >= 1 and limit >= 1
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


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def divisor_sum_oracle(n: int, R: float) -> float:
    """Independent per-n evaluation: factor n, walk its squarefree divisors."""
    primes = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    total = 0.0
    for bits in range(1 << len(primes)):
        d = 1
        sign = 1
        for i, q in enumerate(primes):
            if bits >> i & 1:
                d *= q
                sign = -sign
        if d <= R:
            total += sign * math.log(R / d)
    return total


class TestSieve:
    def test_small_primes(self, sieve_1e4):
        assert sieve_1e4.primes[sieve_1e4.primes <= 10].tolist() == [2, 3, 5, 7]

    def test_prime_count_100_against_trial_division(self):
        t = build_sieve(100)
        want = sum(trial_division_is_prime(n) for n in range(101))
        assert t.primes.size == want == 25

    def test_mobius_values(self, sieve_1e4):
        assert int(sieve_1e4.mobius[1]) == 1
        assert int(sieve_1e4.mobius[12]) == 0
        assert int(sieve_1e4.mobius[30]) == -1

    def test_mobius_against_factorization(self, sieve_1e4):
        rng = np.random.default_rng(0)
        for n in rng.integers(1, 10**4, size=200).tolist():
            m, count, squarefree = n, 0, True
            p = 2
            while p * p <= m:
                if m % p == 0:
                    e = 0
                    while m % p == 0:
                        m //= p
                        e += 1
                    if e > 1:
                        squarefree = False
                    count += 1
                p += 1
            if m > 1:
                count += 1
            want = 0 if not squarefree else (-1) ** count
            assert int(sieve_1e4.mobius[n]) == want

    def test_von_mangoldt(self, sieve_1e4):
        assert sieve_1e4.von_mangoldt[8] == pytest.approx(math.log(2), abs=1e-15)
        assert sieve_1e4.von_mangoldt[9] == pytest.approx(math.log(3), abs=1e-15)
        assert sieve_1e4.von_mangoldt[6] == 0.0
        assert sieve_1e4.von_mangoldt[97] == pytest.approx(math.log(97), abs=1e-15)

    def test_smallest_prime_factor(self, sieve_1e4):
        primes = sieve_1e4.primes.tolist()
        assert next(p for p in primes if 91 % p == 0) == 7
        assert next(p for p in primes if 97 % p == 0) == 97

    def test_limit_cap(self):
        with pytest.raises(BudgetExceededError, match="cap"):
            build_sieve(10**9)
        with pytest.raises(BudgetExceededError, match="cap"):
            primes_up_to(10**9)
        with pytest.raises(ValueError, match=">= 2"):
            primes_up_to(1)

    def test_primes_alone_match_the_tables(self, sieve_1e6):
        primes = primes_up_to(10**6)
        assert primes.dtype == sieve_1e6.primes.dtype
        assert np.array_equal(primes, sieve_1e6.primes)

    def test_odd_prime_indicator_for_every_limit_to_3000(self):
        want = [is_prime_64(2 * a + 1) for a in range(1501)]
        for limit in range(3001):
            is_p = odd_prime_indicator(limit)
            assert is_p.dtype == bool
            assert is_p.tolist() == want[: (limit + 1) // 2], limit
        with pytest.raises(ValueError, match=">= 0"):
            odd_prime_indicator(-1)
        with pytest.raises(BudgetExceededError, match="cap"):
            odd_prime_indicator(10**9)

    def test_odd_prime_bits_match_the_whole_array_sieve(self):
        # every limit to 3000, then (limit + 1) // 2 half-indices on both
        # sides of the first two 2^18-entry segment ends
        for limit in (*range(3001), *range(2**19 - 4, 2**19 + 4), *range(2**20 - 4, 2**20 + 4)):
            want = whole_array_odd_prime_indicator(limit)
            bits = odd_prime_bits(limit)
            assert bits.dtype == np.uint8
            assert np.array_equal(bits, np.packbits(want, bitorder="little")), limit
            assert np.array_equal(odd_prime_indicator(limit), want), limit
        with pytest.raises(BudgetExceededError, match="cap"):
            odd_prime_bits(10**9)

    @pytest.mark.parametrize("step", [1, 2, 105, 210])
    def test_read_bits_matches_slicing(self, step):
        is_p = whole_array_odd_prime_indicator(200_000)
        bits = odd_prime_bits(200_000)
        rng = np.random.default_rng(step)
        for trial in range(200):
            start = int(rng.integers(0, is_p.size))
            room = (is_p.size - 1 - start) // step + 1
            # counts below the period 8 / gcd(step, 8), and any count that fits
            count = int(rng.integers(0, min(room, 9) + 1 if trial % 2 else room + 1))
            want = is_p[start::step][:count]
            for dtype in (np.float64, np.uint8):
                out = np.full(count, 7, dtype=dtype)
                assert _read_bits(bits, start, step, out) is out
                assert np.array_equal(out, want.astype(dtype)), (start, count)

    @pytest.mark.parametrize("limit", [2, 3, 4, 5, 8, 9, 25, 26, 121, 997, 1000, 65536, 10**6])
    def test_primes_match_a_dense_sieve(self, limit):
        composite = np.zeros(limit + 1, dtype=bool)
        composite[:2] = True
        for n in range(2, math.isqrt(limit) + 1):
            composite[n * n :: n] = True
        primes = primes_up_to(limit)
        assert primes.dtype == np.int64
        assert np.array_equal(primes, np.flatnonzero(~composite))

    def test_primes_alone_skip_the_tables(self):
        # the Mobius, remainder and von Mangoldt tables take about 13 bytes
        # per integer; the primes alone need the bool sieve and the primes
        tracemalloc.start()
        try:
            primes_up_to(10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10**6 + 2**20


def trial_division_factor(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 2, by trial division."""
    factors = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1
    if m > 1:
        factors.append((m, 1))
    return factors


_ORACLE_LIMIT = 5000


@lru_cache(maxsize=None)
def sieve_oracle() -> tuple[list[int], list[int], list[float]]:
    """Smallest prime factor, mu and Lambda of n <= 5000 from trial division."""
    spf, mu, lam = [0, 0], [0, 1], [0.0, 0.0]
    for n in range(2, _ORACLE_LIMIT + 1):
        factors = trial_division_factor(n)
        spf.append(factors[0][0])
        squarefree = all(e == 1 for _, e in factors)
        mu.append((-1) ** len(factors) if squarefree else 0)
        lam.append(math.log(factors[0][0]) if len(factors) == 1 else 0.0)
    return spf, mu, lam


# primes, prime squares, prime cubes, powers of two and their neighbours
_SIEVE_EDGE_LIMITS = (2, 3, 4, 5, 7, 8, 9, 11, 24, 25, 26, 27, 48, 49, 121, 125, 127,
                      961, 1024, 1331, 2401, 3125, 4096, 4489, 4913, 4999, 5000)


class TestSieveAgainstTrialDivision:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.integers(2, _ORACLE_LIMIT), st.sampled_from(_SIEVE_EDGE_LIMITS)))
    @example(2)
    @example(4)
    @example(49)
    @example(5000)
    def test_tables_match_oracle(self, limit):
        spf, mu, lam = sieve_oracle()
        t = build_sieve(limit)
        assert t.limit == limit
        assert t.primes.tolist() == [n for n in range(2, limit + 1) if spf[n] == n]
        assert primes_up_to(limit).tolist() == t.primes.tolist()
        assert t.mobius.tolist() == mu[: limit + 1]
        # bit-equal: the sieve must store math.log(p) itself, not a nearby float
        assert t.von_mangoldt.tolist() == lam[: limit + 1]


class TestPrimality:
    def test_record_progression_start(self):
        assert is_prime_64(56211383760397)

    def test_edge_cases(self):
        assert not is_prime_64(0)
        assert not is_prime_64(1)
        assert is_prime_64(2)
        assert is_prime_64(3)
        assert not is_prime_64(4)

    def test_agrees_with_sieve(self):
        t = build_sieve(10**5)
        flags = np.zeros(10**5 + 1, dtype=bool)
        flags[t.primes] = True
        for n in range(10**5 + 1):
            assert is_prime_64(n) == bool(flags[n]), n

    def test_random_sample_against_trial_division(self):
        rng = np.random.default_rng(1)
        for n in rng.integers(10**5, 10**6, size=300).tolist():
            assert is_prime_64(n) == trial_division_is_prime(n)

    def test_strong_pseudoprime_traps(self):
        for n in (341, 561, 25326001, 3215031751, 3825123056546413051):
            assert not is_prime_64(n)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            is_prime_64(1 << 64)


class TestEulerPhi:
    def test_one(self):
        assert euler_phi(1) == 1

    def test_composite(self):
        assert euler_phi(30) == 8
        assert euler_phi(49) == 42
        assert euler_phi(1024) == 512

    def test_primes(self):
        for p in (2, 3, 101, 999983):
            assert euler_phi(p) == p - 1


class TestLambdaTilde:
    def test_composite_target_is_zero(self):
        params = MajorantParams(k=3, N=101, w=2, R_exponent=1 / 12)
        assert lambda_tilde(4, params) == 0.0  # 2*4+1 = 9

    def test_small_prime_target(self):
        params = MajorantParams(k=3, N=101, w=2, R_exponent=1 / 12)
        assert lambda_tilde(1, params) == pytest.approx(0.5 * math.log(3), abs=1e-15)

    def test_mean_is_near_one(self, sieve_1e6):
        # Dirichlet-count oracle: sum phi(W)/W log p over primes p = 2n+1 <= 2e6+1
        limit = 10**6
        params = MajorantParams(k=3, N=999983, w=2, R_exponent=1 / 12)
        big = build_sieve(2 * limit + 1)
        odd_primes = big.primes[big.primes % 2 == 1]
        odd_primes = odd_primes[odd_primes <= 2 * limit + 1]
        total = 0.5 * np.log(odd_primes.astype(float)).sum()
        mean = total / limit
        assert abs(mean - 1.0) <= 0.1
        # spot agreement between the scalar op and the sieve route
        odd_primes_set = set(odd_primes.tolist())
        rng = np.random.default_rng(2)
        for n in rng.integers(1, limit, size=50).tolist():
            direct = lambda_tilde(n, params)
            is_prime = 2 * n + 1 in odd_primes_set
            via_sieve = 0.5 * math.log(2 * n + 1) if is_prime else 0.0
            assert direct == pytest.approx(via_sieve, abs=1e-12)


class TestLambdaRTable:
    def test_at_one(self):
        for R in (2.0, 10.0, 100.0):
            assert lambda_r_table(10, R)[1] == pytest.approx(math.log(R), abs=1e-12)

    def test_prime_above_threshold(self):
        R = 10.0
        table = lambda_r_table(200, R)
        for p in (11, 13, 97, 199):
            assert table[p] == pytest.approx(math.log(R), abs=1e-12)

    def test_collapses_to_von_mangoldt_below_threshold(self, sieve_1e4):
        R = 100.0
        table = lambda_r_table(10**4, R)
        for n in range(1, 101):
            want = sieve_1e4.von_mangoldt[n] if n > 1 else math.log(R)
            assert table[n] == pytest.approx(want, abs=1e-9)

    def test_ten_six_is_zero(self):
        assert lambda_r_table(6, 10.0)[6] == pytest.approx(0.0, abs=1e-12)

    def test_against_per_n_oracle(self):
        R = 50.0
        table = lambda_r_table(2000, R)
        for n in range(1, 2001):
            assert table[n] == pytest.approx(divisor_sum_oracle(n, R), abs=1e-9)


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@st.composite
def progression_windows(draw):
    """(a, b, lo, hi, R) with b coprime to a or sharing a prime with it."""
    a = draw(st.integers(1, 30030))
    if a > 1 and draw(st.booleans()):
        p = draw(st.sampled_from(_prime_factors(a)))
        b = p * draw(st.integers(1, 3 * a // p))
    else:
        b = draw(st.integers(1, 3 * a).filter(lambda b: math.gcd(a, b) == 1))
    lo = draw(st.integers(0, 20))
    hi = draw(st.integers(lo - 3, lo + 30))  # lo > hi: empty window
    R = draw(st.floats(1.0, 300.0))
    return a, b, lo, hi, R


class TestDivisorSumsOnProgression:
    @settings(max_examples=80, deadline=None)
    @given(progression_windows())
    def test_matches_table_bitwise_and_oracle(self, case):
        a, b, lo, hi, R = case
        got = divisor_sums_on_progression(a, b, lo, hi, R)
        assert got.shape == (max(hi - lo + 1, 0),)
        if lo > hi:
            return
        table = lambda_r_table(a * hi + b, R)
        want = table[a * np.arange(lo, hi + 1) + b]
        assert got.tobytes() == want.tobytes()
        for n in range(lo, hi + 1):
            assert abs(got[n - lo] - divisor_sum_oracle(a * n + b, R)) <= 1e-9

    def test_majorant_progressions_match_table(self):
        for w in (2, 3, 5, 7):
            params = MajorantParams(k=3, N=10007, w=w, R_exponent=0.5, epsilon_k=0.25)
            lo, hi = params.window
            table = lambda_r_table(params.W * hi + 1, params.R)
            want = table[params.W * np.arange(lo, hi + 1) + 1]
            got = divisor_sums_on_progression(params.W, 1, lo, hi, params.R)
            assert got.tobytes() == want.tobytes()

    def test_out_is_zero_filled_and_returned(self):
        want = divisor_sums_on_progression(30, 7, 10, 500, 40.0)
        table = np.full(600, np.nan)
        got = divisor_sums_on_progression(30, 7, 10, 500, 40.0, out=table[50:541])
        assert np.shares_memory(got, table) and got.size == 491
        assert got.tobytes() == want.tobytes()
        # only the slice is written
        assert np.isnan(table[:50]).all() and np.isnan(table[541:]).all()
        empty = np.empty(0)
        assert divisor_sums_on_progression(30, 7, 10, 9, 40.0, out=empty) is empty
        for bad in (np.empty(490), np.empty(491, dtype=np.float32)):
            with pytest.raises(ValueError, match="float64 vector of 491 entries"):
                divisor_sums_on_progression(30, 7, 10, 500, 40.0, out=bad)

    def test_nonpositive_values_are_refused(self):
        with pytest.raises(ValueError, match=">= 1"):
            divisor_sums_on_progression(6, -11, 1, 5, 10.0)
        with pytest.raises(ValueError):
            divisor_sums_on_progression(0, 1, 1, 5, 10.0)
        with pytest.raises(ValueError):
            divisor_sums_on_progression(6, 1, 1, 5, 0.5)


# small primes, desk sizes and primes just below 2^53, 2^61 and 2^62, where
# 2 epsilon_k N is rounded
_WINDOW_PRIMES = [2, 3, 5, 101, 1009, 999983, 2**31 - 1] + [
    next(n for n in range(top - 1, 0, -1) if is_prime_64(n))
    for top in (2**53, 2**61, 2**62)
]


class TestMajorant:
    def test_paper_style_defaults(self):
        params = MajorantParams(k=3, N=101)
        assert params.epsilon_k == pytest.approx(1 / (2**3 * math.factorial(7)))
        assert params.R_exponent == pytest.approx(1 / (3 * 2**7))
        assert params.W == 6  # w = 3 by default

    def test_primorial(self):
        assert MajorantParams(k=3, N=101, w=2).W == 2
        assert MajorantParams(k=3, N=101, w=5).W == 30
        assert MajorantParams(k=3, N=101, w=7).W == 210

    @pytest.mark.parametrize("epsilon_k", [0.0, 0.25])
    def test_w_and_phi_w_against_oracle(self, epsilon_k):
        N = 999983
        hi = MajorantParams(k=3, N=N, w=2, epsilon_k=epsilon_k).window[1]
        outcomes = set()
        for w in range(2, 61):
            W = math.prod(p for p in range(2, w + 1) if trial_division_is_prime(p))
            overflows = W * (hi + 1) + 1 > 2**63 - 1
            outcomes.add(overflows)
            if overflows:
                with pytest.raises(OverflowError, match="63 bits"):
                    MajorantParams(k=3, N=N, w=w, epsilon_k=epsilon_k)
                continue
            params = MajorantParams(k=3, N=N, w=w, epsilon_k=epsilon_k)
            assert params.W == W
            assert params.phi_W == euler_phi(W)
        assert outcomes == {False, True}  # the 63-bit edge lies inside [2, 60]

    def test_overflow_edge_counts_hi_plus_one(self):
        # W (hi + 1) + 1 <= 2^63 - 1 must hold; put hi on either side of the edge
        W = math.prod(p for p in range(2, 32) if trial_division_is_prime(p))
        edge = (2**63 - 2) // W  # the least hi with W (hi + 1) + 1 > 2^63 - 1
        N = 100000007
        for hi in (edge - 1, edge):
            epsilon_k = (hi + 0.5) / (2 * N)
            assert MajorantParams(k=3, N=N, w=2, epsilon_k=epsilon_k).window[1] == hi
            if hi == edge:
                with pytest.raises(OverflowError, match="63 bits"):
                    MajorantParams(k=3, N=N, w=31, epsilon_k=epsilon_k)
            else:
                assert MajorantParams(k=3, N=N, w=31, epsilon_k=epsilon_k).W == W

    def test_huge_w_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="63 bits"):
            MajorantParams(k=3, N=101, w=10**9)
        assert time.perf_counter() - start < 1.0

    def test_requires_prime_modulus(self):
        with pytest.raises(ValueError):
            MajorantParams(k=3, N=100)

    def test_refuses_a_non_finite_or_negative_theta(self):
        # nan passed a `<= 0` check and made R = nan deep in the divisor sums
        for theta in (-0.25, math.inf, math.nan):
            with pytest.raises(ValueError, match="R_exponent must be positive and finite"):
                MajorantParams(k=3, N=101, w=2, R_exponent=theta)

    def test_refuses_a_window_that_reaches_n(self):
        # epsilon_k = 1/2 would give the window [51, 101] at N = 101; 101 is no residue
        with pytest.raises(ValueError, match=r"epsilon_k = 0\.5 .*\[51, 101\] at N = 101"):
            MajorantParams(k=3, N=101, w=2, epsilon_k=0.5)
        for epsilon_k in (0.75, 1.0, 3.0):
            with pytest.raises(ValueError, match="residues stop at N - 1"):
                MajorantParams(k=3, N=101, w=2, epsilon_k=epsilon_k)
        for epsilon_k in (-0.25, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                MajorantParams(k=3, N=101, w=2, epsilon_k=epsilon_k)
        assert MajorantParams(k=3, N=101, w=2, epsilon_k=0.495).window == (50, 99)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(_WINDOW_PRIMES),
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True),
            st.floats(0.4999, 0.5001),
            st.integers(1, 2**20).map(lambda k: 0.5 - k * 2.0**-54),
        ),
    )
    @example(101, 0.5)
    @example(101, float(np.nextafter(0.5, 0.0)))
    @example(_WINDOW_PRIMES[-1], float(np.nextafter(0.5, 0.0)))
    def test_accepted_windows_lie_in_z_n(self, N, epsilon_k):
        # the refusal reads the window itself, so a top that rounds up to N
        # is refused along with every epsilon_k >= 1/2
        top = math.floor(2 * epsilon_k * N)
        if top >= N:
            with pytest.raises(ValueError, match="residues stop at N - 1"):
                MajorantParams(k=3, N=N, w=2, epsilon_k=epsilon_k)
            return
        lo, hi = MajorantParams(k=3, N=N, w=2, epsilon_k=epsilon_k).window
        assert 0 <= lo <= N - 1 and 0 <= hi <= N - 1
        assert epsilon_k < 0.5

    def test_ones_outside_window(self):
        params = MajorantParams(k=3, N=10007, w=2, R_exponent=0.25, epsilon_k=0.25)
        nu = build_majorant(params)
        lo, hi = params.window
        outside = np.ones(10007, dtype=bool)
        outside[lo : hi + 1] = False
        assert np.all(nu.values[outside] == 1.0)

    def test_nonnegative_and_dominates_scaled_lambda_tilde(self):
        params = MajorantParams(k=3, N=10007, w=2, R_exponent=0.25, epsilon_k=0.25)
        nu = build_majorant(params)
        assert nu.values.min() >= 0.0
        lo, hi = params.window
        factor = 1 / (params.k * 2 ** (params.k + 5))
        for n in range(lo, hi + 1):
            assert nu.values[n] >= factor * lambda_tilde(n, params) - 1e-12

    def test_window_value_for_large_prime_targets(self):
        params = MajorantParams(k=3, N=10007, w=2, R_exponent=0.25, epsilon_k=0.25)
        nu = build_majorant(params)
        lo, hi = params.window
        expected = params.phi_W / params.W * params.log_R
        hits = 0
        for n in range(lo, hi + 1):
            m = params.W * n + 1
            if is_prime_64(m) and m > params.R:
                assert nu.values[n] == pytest.approx(expected, rel=1e-12)
                hits += 1
        assert hits > 0

    def test_deterministic(self):
        params = MajorantParams(k=3, N=1009, w=2, R_exponent=0.25, epsilon_k=0.25)
        a = build_majorant(params)
        b = build_majorant(params)
        assert np.array_equal(a.values, b.values)

    def test_empty_window_gives_constant_one(self):
        params = MajorantParams(k=3, N=10007, w=2, R_exponent=1 / 12)
        assert params.window[0] > params.window[1]
        nu = build_majorant(params)
        assert np.all(nu.values == 1.0) and nu.values.strides == (0,)

    def test_memory_does_not_depend_on_w(self):
        # at w = 13 the full table would hold W N = 1.5e10 floats
        params = MajorantParams(k=3, N=999983, w=13, R_exponent=0.3333, epsilon_k=0.25)
        tracemalloc.start()
        try:
            nu = build_majorant(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        lo, hi = params.window
        expected = params.phi_W / params.W * params.log_R
        hits = 0
        for n in range(lo, hi + 1, 12):  # a spread-out sample keeps this fast
            m = params.W * n + 1
            if m > params.R and is_prime_64(m):
                assert nu.values[n] == pytest.approx(expected, rel=1e-12)
                hits += 1
        assert hits > 1000

    def test_window_scaled_in_place_as_the_dense_expression(self):
        # (phi(W)/W) lam lam / log R on a separate lam is the oracle
        params = MajorantParams(k=3, N=999983, w=5, R_exponent=0.3333, epsilon_k=0.25)
        lo, hi = params.window
        lam = divisor_sums_on_progression(params.W, 1, lo, hi, params.R)
        want = np.ones(params.N)
        want[lo : hi + 1] = (params.phi_W / params.W) * lam * lam / params.log_R
        assert build_majorant(params).values.tobytes() == want.tobytes()

    def test_memory_is_the_values_and_one_window_temporary(self):
        # the sums were a separate window array too, 1.9 MiB more
        params = MajorantParams(k=3, N=999983, w=2, R_exponent=0.3333, epsilon_k=0.25)
        lo, hi = params.window
        tracemalloc.start()
        try:
            build_majorant(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * params.N + 8 * (hi - lo + 1) + 2**18

    def test_mean_near_one_at_desk_scale(self):
        params = MajorantParams(k=3, N=100003, w=2, R_exponent=0.25, epsilon_k=0.25)
        nu = build_majorant(params)
        assert abs(nu.values.mean() - 1.0) <= 0.2


def test_csv_export_round_trips(tmp_path, sieve_1e4):
    table = lambda_r_table(50, 10.0)
    path = os.path.join(tmp_path, "tables.csv")
    _write_tables_csv(sieve_1e4, table, path, 50)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        assert header == ["n", "mu", "lambda", "lambda_r"]
        rows = [line.strip().split(",") for line in fh]
    assert len(rows) == 50
    assert int(rows[29][1]) == -1  # mu(30)
    assert float(rows[10][3]) == pytest.approx(table[11], abs=0)
