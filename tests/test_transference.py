import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from znkit import (
    CyclicGroup,
    DecompositionConfig,
    GridFunction,
    MajorantParams,
    SigmaAlgebra,
    ap_expectation,
    bernoulli_measure,
    build_level_sigma,
    build_sieve,
    conditional_expectation,
    count_prime_aps,
    energy,
    exceptional_set,
    expectation,
    gvn_check,
    is_prime_64,
    kvn_decompose,
)
import znkit.arith
import znkit.transference
from znkit.core import BudgetExceededError, _smooth_length
from conftest import random_function, random_partition


def brute_ap_expectation(fs, cs, n):
    total = 0.0
    for x in range(n):
        for r in range(n):
            prod = 1.0
            for f, c in zip(fs, cs):
                prod *= f.values[(x + c * r) % n]
            total += prod
    return total / n**2


def fourier_triple_ap_expectation(fs, cs, n):
    """Three-term average from the frequency triples with xi_0 + xi_1 + xi_2 = 0
    and c_0 xi_0 + c_1 xi_1 + c_2 xi_2 = 0 (mod N): they are t (a_0, a_1, a_2),
    a_j = c_(j+1) - c_(j+2), so the average is sum_t prod_j f^_j(t a_j),
    f^ = fft(f) / N.  Three length-N complex transforms, kept as the oracle
    for the real-correlation route."""
    t = np.arange(n, dtype=np.int64)
    prod = np.ones(n, dtype=np.complex128)
    for j, f in enumerate(fs):
        a = (cs[(j + 1) % 3] - cs[(j + 2) % 3]) % n
        prod *= (np.fft.fft(f.values) / n)[t * a % n]
    return float(prod.sum().real)


def brute_level_alpha(G, epsilon, eta, nu, alpha_grid=None):
    """The alpha that build_level_sigma takes, by its rule written out: the
    first of j = 0, 1, ..., at most 64, whose near-cut (nu + 1)-mass is at
    most 2 (2 eta + 1/grid) E(nu + 1), or else the first least mass tried."""
    if alpha_grid is None:
        alpha_grid = math.ceil(1.0 / eta)
    n = G.group.modulus
    scaled = G.values / epsilon
    frac = scaled - np.floor(scaled)
    weights = nu.values + 1.0
    line = 2.0 * (2.0 * eta + 1.0 / alpha_grid) * (float(nu.values.sum()) / n + 1.0)
    masses = []
    for j in range(min(alpha_grid, 64)):
        dist = np.abs(frac - j / alpha_grid)
        dist = np.minimum(dist, 1 - dist)
        mass = float(weights[dist <= eta].sum()) / n
        if mass <= line:
            return j / alpha_grid
        masses.append(mass)
    return masses.index(min(masses)) / alpha_grid


_SMALL_PRIMES = [n for n in range(2, 61) if is_prime_64(n)]


def brute_count_aps(k, limit):
    """k-APs of primes <= limit, each found once from its first two terms.

    Primality comes from Miller-Rabin, not from the sieve under test.
    """
    primes = [n for n in range(limit + 1) if is_prime_64(n)]
    prime_set = set(primes)
    count = 0
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            d = q - p
            if p + (k - 1) * d > limit:
                break
            if all(p + j * d in prime_set for j in range(2, k)):
                count += 1
    return count


def _is_5_smooth(n):
    for q in (2, 3, 5):
        while n % q == 0:
            n //= q
    return n == 1


def mod6_count_aps_k3(limit):
    """3-APs of primes <= limit by the mod-6 class route, the wheel's oracle.

    The half-indices a = (p - 1) / 2 of the primes p > 3 fall in the classes
    0, 2, 3, 5 mod 6, which never pair across classes; each class view
    is_p[r::6] is squared on its own by one transform of the largest class's
    5-smooth length L >= 2 len - 1, and entry s counts the ordered pairs
    centred on a_m = 3 s + r.  Subtracting p = q = m and halving leaves the
    3-APs with no end at 3; the (3, q, 2q - 3) are read off two strided views.
    """
    if limit < 2:
        return 0
    is_p = znkit.arith.odd_prime_indicator(limit)
    top = is_p.size - 1
    h = (top + 1) // 2
    from_three = int(np.count_nonzero(is_p[2 : h + 1] & is_p[3 : 2 * h : 2]))
    total = -int(np.count_nonzero(is_p[2:]))
    length = _smooth_length(2 * (top // 6 + 1) - 1)
    for r in (0, 2, 3, 5):
        size = is_p[r::6].size
        if size == 0:
            continue
        conv = np.fft.irfft(np.fft.rfft(is_p[r::6].astype(float), n=length) ** 2, n=length)
        counts = np.rint(conv)
        assert np.abs(conv - counts).max() <= 0.25
        centres = is_p[r::3][: 2 * size - 1]
        total += int(counts[: centres.size].sum(where=centres))
    return total // 2 + from_three


def _mod6_class_sizes(limit):
    """Lengths of the mod-6 classes of half-indices (p - 1) / 2, p <= limit."""
    top = (limit - 1) // 2
    return [(top - r) // 6 + 1 for r in (0, 2, 3, 5) if top >= r]


def _largest_subclass_size(limit):
    """Length of is_p[0::210], the largest mod-210 subclass of half-indices."""
    return (limit - 1) // 2 // 210 + 1


# limits <= 3000 at which a transform length is exactly 2 len - 1, for some
# class of the mod-6 oracle or for the wheel's largest subclass: no slack
# between the linear convolution and the cyclic one
_EXACT_LENGTH_LIMITS = tuple(
    limit for limit in range(2, 3001)
    if any(_is_5_smooth(2 * size - 1)
           for size in [*_mod6_class_sizes(limit), _largest_subclass_size(limit)])
)


class TestApExpectation:
    def test_all_ones(self):
        g = CyclicGroup(11)
        one = GridFunction.constant(g, 1.0)
        assert ap_expectation([one] * 3, [0, 1, 2]) == pytest.approx(1.0, abs=1e-13)

    def test_point_masses(self):
        n = 11
        g = CyclicGroup(n)
        spike = GridFunction.indicator(g, [0])
        assert ap_expectation([spike] * 3, [0, 1, 2]) == pytest.approx(
            1 / n**2, abs=1e-15
        )

    def test_multilinear(self):
        rng = np.random.default_rng(0)
        g = CyclicGroup(13)
        fs = [random_function(g, rng) for _ in range(3)]
        base = ap_expectation(fs, [0, 1, 2])
        doubled = ap_expectation([fs[0] * 2.0, fs[1], fs[2]], [0, 1, 2])
        assert doubled == pytest.approx(2 * base, rel=1e-12, abs=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        g = CyclicGroup(7)
        fs = [random_function(g, rng) for _ in range(3)]
        for cs in ([0, 1, 2], [0, 2, 3], [-1, 0, 1]):
            assert ap_expectation(fs, cs) == pytest.approx(
                brute_ap_expectation(fs, cs, 7), abs=1e-12
            )

    @pytest.mark.parametrize("block", [1, 3 * 131, 100 * 131])
    def test_blocks_of_r_match_brute_force(self, monkeypatch, block):
        # leaves of max(block, N) products: at most one row's worth (N = 131
        # >= 128, numpy's least pairwise node), three rows' worth that end
        # inside rows, and one leaf for all N^2
        monkeypatch.setattr(znkit.transference, "_BOX_LEAF", block)
        n = 131
        rng = np.random.default_rng(2)
        g = CyclicGroup(n)
        fs = [random_function(g, rng) for _ in range(4)]
        x, r = np.arange(n), np.arange(n)[:, None]
        for cs in ([0, 1, 2, 3], [-2, 5, 14, 30 + n]):
            dense = np.ones((n, n))  # [r, x], r-major
            for f, c in zip(fs, cs):
                dense *= f.values[(x + c * r) % n]
            got = ap_expectation(fs, cs)
            assert got == float(np.add.reduce(dense.reshape(-1))) / n**2
            assert got == pytest.approx(brute_ap_expectation(fs, cs, n), abs=1e-12)

    def test_cross_oracle_with_integer_progressions(self):
        # wraparound-free regime: N > 2 * limit makes residue progressions
        # correspond to integer ones (each counted once per direction),
        # plus the r = 0 diagonal
        limit, n = 50, 101
        t = build_sieve(limit)
        g = CyclicGroup(n)
        ind = GridFunction.indicator(g, t.primes.tolist())
        total = ap_expectation([ind] * 3, [0, 1, 2]) * n * n
        want = 2 * brute_count_aps(3, limit) + t.primes.size
        assert total == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n, w, eps, want", [
        (10007, 2, 0.1, 5195),
        (100003, 3, 0.25, 3929886),
    ])
    def test_prime_window_counts_its_integer_progressions(self, n, w, eps, want):
        # A = the n in the window with W n + 1 prime.  The window is shorter
        # than N / 2, so a residue 3-AP in it is an integer one, counted once
        # per direction, plus the r = 0 diagonal
        params = MajorantParams(k=3, N=n, w=w, epsilon_k=eps)
        lo, hi = params.window
        assert hi - lo < n / 2
        members = [m for m in range(lo, hi + 1) if is_prime_64(params.W * m + 1)]
        in_a = set(members)
        aps = 0
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if 2 * b - a > hi:
                    break
                aps += 2 * b - a in in_a
        ind = GridFunction.indicator(CyclicGroup(n), members)
        total = ap_expectation([ind] * 3, (0, 1, 2)) * n * n
        assert round(total) == len(members) + 2 * aps == want

    def test_requires_distinct_coefficients(self):
        g = CyclicGroup(11)
        one = GridFunction.constant(g, 1.0)
        with pytest.raises(ValueError):
            ap_expectation([one, one], [1, 1])

    def test_needs_a_function(self):
        with pytest.raises(ValueError, match="at least one function"):
            ap_expectation([], [])

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(_SMALL_PRIMES),
        st.lists(st.integers(-130, 130), min_size=3, max_size=4, unique=True),
        st.integers(0, 2**32 - 1),
    )
    @example(2, [0, 1, 2], 0)  # 0 = 2 mod 2: the shifted-copies route
    @example(3, [0, 1, 2], 1)
    @example(3, [0, 1, 4], 2)  # congruent mod N, distinct as integers
    @example(3, [0, 3, -3], 6)  # all three congruent: a two-dimensional kernel
    @example(59, [0, 1, 60], 3)
    @example(53, [-1, -5, 7], 4)
    @example(7, [0, 1, 2, 3], 5)
    # l = (c_2 - c_0) / (c_1 - c_0) mod N is -1, or 1 - l is -1 (l = 2)
    @example(59, [1, 0, 2], 7)  # l = -1
    @example(13, [0, 1, 12], 8)  # l = 12 = -1 mod 13
    @example(53, [0, 1, 2], 9)  # l = 2
    @example(7, [5, 3, 1], 10)  # l = 2, coefficients falling
    @example(5, [0, 2, 4], 11)  # l = 2 at N = 5
    def test_matches_brute_force_on_small_primes(self, n, cs, seed):
        rng = np.random.default_rng(seed)
        g = CyclicGroup(n)
        fs = [random_function(g, rng) for _ in cs]
        assert abs(ap_expectation(fs, cs) - brute_ap_expectation(fs, cs, n)) <= 1e-12

    @pytest.mark.parametrize("n", [7, 13])
    def test_frequency_triple_oracle_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        g = CyclicGroup(n)
        fs = [random_function(g, rng) for _ in range(3)]
        for cs in ([0, 1, 2], [3, 1, 7], [-1, 0, 1]):
            assert fourier_triple_ap_expectation(fs, cs, n) == pytest.approx(
                brute_ap_expectation(fs, cs, n), abs=1e-12
            )

    @pytest.mark.parametrize("n", [10007, 100003])
    @pytest.mark.parametrize("cs", [[0, 1, 2], [0, 2, 5], [3, 1, 7], [-1, 0, 1]])
    def test_matches_frequency_triples_at_large_n(self, n, cs):
        # nonnegative functions keep the average well away from 0, so the
        # relative bound is a real one
        rng = np.random.default_rng(n + sum(cs))
        g = CyclicGroup(n)
        fs = [GridFunction(g, rng.random(n)) for _ in range(3)]
        for args in (fs, [fs[0]] * 3):
            got = ap_expectation(args, cs)
            want = fourier_triple_ap_expectation(args, cs, n)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_three_terms_take_no_complex_transform(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("length-N complex FFT called")

        n = 10007
        rng = np.random.default_rng(3)
        g = CyclicGroup(n)
        fs = [GridFunction(g, rng.random(n)) for _ in range(3)]
        want = fourier_triple_ap_expectation(fs, [0, 2, 5], n)
        monkeypatch.setattr(np.fft, "fft", refuse)
        monkeypatch.setattr(np.fft, "ifft", refuse)
        assert ap_expectation(fs, [0, 2, 5]) == pytest.approx(want, rel=1e-12)


class TestCountPrimeAps:
    def test_known_small_value(self):
        assert count_prime_aps(3, 15) == 2  # (3,5,7) and (3,7,11)

    def test_pair_count_closed_form(self):
        assert count_prime_aps(2, 5) == 3

    def test_fft_route_matches_brute_force(self):
        for limit in (20, 100, 500, 2000):
            assert count_prime_aps(3, limit) == brute_count_aps(3, limit)

    def test_scan_route_matches_brute_force(self):
        # the scan steps d by 6; the oracle tries every difference
        for k in (4, 5, 6):
            for limit in [*range(31), 97, 200, 331, 1000, 3000]:
                assert count_prime_aps(k, limit) == brute_count_aps(k, limit), (k, limit)

    def test_record_23_term_progression(self):
        a, d = 56211383760397, 44546738095860
        assert all(is_prime_64(a + d * j) for j in range(23))

    def test_record_22_term_progression(self):
        a, d = 11410337850553, 4609098694200
        assert all(is_prime_64(a + d * j) for j in range(22))

    def test_budget_gate_on_scans(self):
        with pytest.raises(Exception, match="budget"):
            count_prime_aps(5, 10**6, budget=10**6)

    def test_k4_count_at_limit_10_5(self):
        assert count_prime_aps(4, 10**5) == 389606

    def test_budget_gate_counts_the_strided_scan(self):
        # sum_p 3 m_p = 1090218 at limit 10^4, where primes * limit = 1.2e7
        assert count_prime_aps(4, 10**4, budget=2 * 10**6) == brute_count_aps(4, 10**4)
        with pytest.raises(BudgetExceededError, match="budget"):
            count_prime_aps(4, 10**4, budget=10**6)
        with pytest.raises(BudgetExceededError, match="budget"):
            count_prime_aps(5, 10**6, budget=10**6)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.integers(0, 3000), st.sampled_from(_EXACT_LENGTH_LIMITS)))
    @example(0)
    @example(1)
    @example(2)
    @example(3)
    @example(4)
    @example(5)
    @example(6)
    @example(7)
    @example(8)
    @example(9)
    @example(10)  # class 5 (a = 5, p = 11) is empty up to 10, class 3 up to 6
    @example(11)  # = 2 * 7 - 3: the first (3, q, 2q - 3)
    @example(12)
    @example(13)
    @example(16)
    @example(17)  # = 2 * 11 - 5: the first (5, q, 2q - 5)
    @example(19)  # = 2 * 13 - 7: the first (7, q, 2q - 7)
    @example(29)
    @example(59)
    @example(60)
    @example(61)
    @example(119)
    @example(120)
    @example(419)  # a = 209: the first entry of the last subclass, is_p[209::210]
    @example(420)
    @example(421)  # a = 210: the first subclass's second entry
    @example(2038)
    @example(2039)  # = 2 * 1021 - 3, prime
    @example(2441)  # centre 2437 reads entry 2 len - 1 of class 3's exact-length transform
    @example(2446)
    def test_wheel_matches_brute_force(self, limit):
        assert count_prime_aps(3, limit) == brute_count_aps(3, limit)

    def test_smooth_length_is_least_5_smooth(self):
        assert {2441, 2446} <= set(_EXACT_LENGTH_LIMITS)
        for n in range(0, 5000):
            want = max(n, 1)
            while not _is_5_smooth(want):
                want += 1
            assert _smooth_length(n) == want, n
        assert _smooth_length(2 * 5 * 10**6 - 1) == 10**7

    def test_pinned_counts(self):
        assert count_prime_aps(3, 10**5) == 2856331
        assert count_prime_aps(3, 10**6) == 157300309
        assert count_prime_aps(3, 10**7) == 9565120490

    def test_wheel_matches_the_mod6_oracle(self):
        for limit in (10**5, 10**6, 10**7):
            assert count_prime_aps(3, limit) == mod6_count_aps_k3(limit), limit

    def test_mod6_oracle_matches_brute_force(self):
        for limit in (*range(0, 200), 2441, 2446):
            assert mod6_count_aps_k3(limit) == brute_count_aps(3, limit), limit

    def test_k3_transforms_are_a_two_hundred_and_tenth_of_the_limit(self, monkeypatch):
        # one transform over every odd number would be about limit long, one
        # per mod-6 class about limit / 6 and one per mod-30 subclass about
        # limit / 30: 96 of 4800 entries at 10^6
        limit = 10**6
        lengths = []
        real_rfft = np.fft.rfft

        def rfft(a, n=None, **kw):
            lengths.append(n)
            return real_rfft(a, n=n, **kw)

        real_irfft = np.fft.irfft
        inverses = []

        def irfft(a, n=None, **kw):
            inverses.append(n)
            return real_irfft(a, n=n, **kw)

        monkeypatch.setattr(np.fft, "rfft", rfft)
        monkeypatch.setattr(np.fft, "irfft", irfft)
        assert count_prime_aps(3, limit) == 157300309
        assert len(lengths) == 96
        # s and s + 35 share one inverse: 24 midpoint views per class
        assert len(inverses) == 96
        assert set(inverses) == set(lengths) == {_smooth_length(2 * (limit // 420 + 1))}

    def test_progressions_starting_at_seven_match_brute_force(self):
        # 7's subclass is dropped from the wheel, so the (7, q, 2q - 7) are
        # read off two strided views of the bitset
        primes = {n for n in range(3001) if is_prime_64(n)}
        for limit in range(0, 3001):
            bits = znkit.arith.odd_prime_bits(limit)
            want = sum(1 for q in primes if 7 < q and 2 * q - 7 <= limit and 2 * q - 7 in primes)
            got = znkit.transference._first_term_count(bits, (limit - 1) // 2, 3)
            assert got == want, limit

    def test_first_terms_read_in_chunks(self, monkeypatch):
        # chunks of 7 entries: every chunk end, and a short last chunk
        primes = {n for n in range(1200) if is_prime_64(n)}
        monkeypatch.setattr(znkit.transference, "_TERM_CHUNK", 7)
        for limit in (0, 11, 40, 41, 99, 1000, 1199):
            bits = znkit.arith.odd_prime_bits(limit)
            for a in (1, 2, 3):
                p = 2 * a + 1
                want = sum(1 for q in primes if p < q and 2 * q - p <= limit and 2 * q - p in primes)
                got = znkit.transference._first_term_count(bits, (limit - 1) // 2, a)
                assert got == want, (limit, p)

    def test_inexact_transform_raises(self, monkeypatch):
        real_irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: real_irfft(*a, **kw) + 0.3)
        with pytest.raises(RuntimeError, match="inexact"):
            count_prime_aps(3, 1000)

    def test_inexact_entry_off_the_midpoints_raises(self, monkeypatch):
        # entry 0 of class 0 is centred on a = 0, the number 1, which is no
        # midpoint: only a check over every entry of the product sees it
        real_irfft = np.fft.irfft
        calls = []

        def irfft(*a, **kw):
            out = real_irfft(*a, **kw)
            if not calls:
                out[0] += 0.3
            calls.append(out.size)
            return out

        monkeypatch.setattr(np.fft, "irfft", irfft)
        with pytest.raises(RuntimeError, match="inexact"):
            count_prime_aps(3, 1000)
        assert len(calls) == 1

    def test_k3_memory_per_integer(self):
        # the odd-prime bitset, 24 complex64 subclass spectra, the phase and
        # two buffers: about 0.77 bytes per integer, where the half-size
        # indicator with complex128 spectra took 1.57, the mod-30 wheel 2.3,
        # the mod-6 classes in two reused buffers 3.4, a dense sieve with
        # the int64 primes, centres and half-indices 6.3, and a single
        # transform over all odd numbers about 18.7
        limit = 10**6
        np.fft.irfft(np.fft.rfft(np.ones(8)))  # numpy.fft loads its modules on first use
        tracemalloc.start()
        try:
            count_prime_aps(3, limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.85 * limit

    def test_pair_count_reads_only_the_bitset(self):
        # 1/16 byte per integer, plus one 2^18-entry sieve segment and its
        # packed copy; the unpacked indicator alone would be 5 MB here
        limit = 10**7
        tracemalloc.start()
        try:
            count = count_prime_aps(2, limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 664579 * 664578 // 2
        assert peak <= limit / 16 + 2**19

    def test_complex64_spectra_error_bound_at_the_cap(self):
        # Rounding each spectrum entry to complex64 moves an inverse entry by
        # at most 2^-23 sum w sqrt(n_x n_y) over the pairs of its two sums
        # (Parseval and Cauchy-Schwarz); at the cap that must stay below half
        # the 0.25 residue threshold
        limit = 50_000_000
        bits = znkit.arith.odd_prime_bits(limit)
        top = (limit - 1) // 2
        worst = 0.0
        for r, live, views in znkit.transference._wheel_classes():
            primes = []
            for x in live:
                sub = np.empty(len(range(r + 6 * x, top + 1, 210)), dtype=np.uint8)
                primes.append(int(znkit.arith._read_bits(bits, r + 6 * x, 210, sub).sum()))
            for _, shifted, plain in views:
                bound = sum((1 if row == col else 2) * math.sqrt(primes[row] * primes[col])
                            for row, col in shifted + plain)
                worst = max(worst, 2.0**-23 * bound)
        assert 0.05 < worst < 0.125

    def test_k3_route_builds_no_prime_list(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("primes_up_to called")

        monkeypatch.setattr(znkit.arith, "primes_up_to", refuse)
        monkeypatch.setattr(znkit.transference, "primes_up_to", refuse, raising=False)
        assert count_prime_aps(3, 10**5) == 2856331


class TestLevelSigma:
    def test_constant_function_single_atom(self):
        g = CyclicGroup(17)
        G = GridFunction.constant(g, 1.3)
        nu = GridFunction.constant(g, 1.0)
        sigma, alpha = build_level_sigma(G, 0.5, 0.1, nu)
        assert sigma.atom_count == 1
        assert 0.0 <= alpha < 1.0

    def test_atom_count_bound(self):
        rng = np.random.default_rng(2)
        g = CyclicGroup(400)
        bound = 4.0
        G = GridFunction(g, rng.uniform(-bound, bound, size=400))
        nu = GridFunction.constant(g, 1.0)
        eps = 0.25
        sigma, _ = build_level_sigma(G, eps, 0.05, nu, value_bound=bound)
        assert sigma.atom_count <= math.ceil(2 * bound / eps) + 1

    def test_function_is_nearly_measurable(self):
        rng = np.random.default_rng(3)
        g = CyclicGroup(300)
        G = GridFunction(g, rng.uniform(-2, 2, size=300))
        nu = GridFunction.constant(g, 1.0)
        eps = 0.3
        sigma, _ = build_level_sigma(G, eps, 0.1, nu)
        resid = G - conditional_expectation(G, sigma)
        assert np.abs(resid.values).max() <= eps

    def test_chosen_alpha_beats_grid_average(self):
        rng = np.random.default_rng(4)
        g = CyclicGroup(500)
        G = GridFunction(g, rng.uniform(-3, 3, size=500))
        nu = GridFunction.constant(g, 1.0)
        eps, eta, grid = 0.2, 0.05, 16
        _, alpha = build_level_sigma(G, eps, eta, nu, alpha_grid=grid)

        def boundary_mass(a):
            scaled = G.values / eps - a
            dist = np.abs(scaled - np.round(scaled))
            return float((nu.values + 1.0)[dist <= eta].sum()) / 500

        # twice the bound on the grid average, (2 eta + 1/grid) E(nu + 1)
        line = 2.0 * (2.0 * eta + 1.0 / grid) * 2.0
        assert boundary_mass(alpha) <= line + 1e-12

    def test_first_cut_under_the_line_wins_over_a_later_minimum(self):
        # masses 4/5 at j = 0, 1/5 at j = 1 and 0 at j = 2, against the
        # line 2 (2/32 + 1/16) = 1/4: the search stops at j = 1
        g = CyclicGroup(5)
        G = GridFunction(g, np.array([0, 0, 0, 0, 1 / 16]) * 0.5)
        nu = GridFunction.constant(g, 0.0)
        _, alpha = build_level_sigma(G, 0.5, 1 / 32, nu, alpha_grid=16)
        assert alpha == 1 / 16

    def test_no_cut_under_the_line_takes_the_least_mass_tried(self):
        # one point on each of the cuts 0..63 of 1024: every try is above the
        # line (about 0.0039), j = 40 has the least mass of the 64 tried, and
        # the mass-0 cut 64 is never tried
        n = 64
        g = CyclicGroup(n)
        G = GridFunction(g, np.arange(n) / 1024 * 0.5)
        nu_values = np.zeros(n)
        nu_values[40] = -0.5
        nu = GridFunction(g, nu_values)
        _, alpha = build_level_sigma(G, 0.5, 1 / 2048, nu, alpha_grid=1024)
        assert alpha == 40 / 1024

    def test_out_of_bound_values_rejected(self):
        g = CyclicGroup(10)
        G = GridFunction.constant(g, 5.0)
        nu = GridFunction.constant(g, 1.0)
        with pytest.raises(ValueError, match="bound"):
            build_level_sigma(G, 0.5, 0.1, nu, value_bound=4.0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        g = CyclicGroup(100)
        G = GridFunction(g, rng.uniform(-1, 1, size=100))
        nu = GridFunction.constant(g, 1.0)
        s1, a1 = build_level_sigma(G, 0.25, 0.05, nu)
        s2, a2 = build_level_sigma(G, 0.25, 0.05, nu)
        assert a1 == a2
        assert np.array_equal(s1.atom_label, s2.atom_label)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 30),
        st.sampled_from(["random", "cuts", "cut_edges", "constant"]),
        st.sampled_from(["zero", "constant", "random", "decimal", "ulp_ties"]),
        st.one_of(st.none(), st.integers(1, 130)),
        st.one_of(
            st.floats(1e-3, 0.4999999, allow_nan=False),
            st.sampled_from([1e-3, 0.01, 0.25, 0.49, 0.499999, 0.4999999999]),
        ),
        st.sampled_from([0.05, 0.3, 0.7, 0.999]),
        st.integers(0, 2**32 - 1),
    )
    @example(17, "cuts", "constant", 200, 0.005, 0.3, 0)  # grid far above 2N
    @example(17, "cut_edges", "zero", 3, 0.49, 0.05, 1)  # coarse grid, eta near 1/2
    @example(2, "constant", "zero", 1, 0.4999999999, 0.7, 2)
    # one cut: a point at 0.99 lies just past eta = 0.01 from it in floats
    @example(3, "cut_edges", "random", 1, 0.01, 0.3, 0)
    def test_cut_point_search_matches_the_grid_loop(
        self, n, g_kind, nu_kind, alpha_grid, eta, epsilon, seed
    ):
        rng = np.random.default_rng(seed)
        grid = alpha_grid or math.ceil(1.0 / eta)
        if g_kind == "random":
            values = rng.uniform(-3, 3, n)
        elif g_kind == "cuts":  # G / epsilon exactly on a grid point j / grid
            values = rng.integers(-3 * grid, 3 * grid, n) * epsilon / grid
        elif g_kind == "cut_edges":  # eta away from one
            cut = rng.integers(-3 * grid, 3 * grid, n) / grid
            values = (cut + rng.choice([-eta, eta], n)) * epsilon
        else:
            values = np.full(n, rng.uniform(-3, 3))
        g = CyclicGroup(n)
        G = GridFunction(g, values)
        nu = GridFunction(g, {
            "zero": np.zeros(n),
            "constant": np.full(n, rng.uniform(0, 5)),
            "random": rng.uniform(0, 5, n),
            # equal sums whose float sums differ in the last place
            "decimal": rng.choice([0.1, 0.2, 0.3, 0.4, 0.6, 0.7], n),
            # masses an ulp of 1000 apart, tied for least in the fallback
            "ulp_ties": rng.choice([0.0, -0.9, 999.0, 999.0 + 2**-43, 999.0 - 2**-43,
                                    999.0 + 2**-42], n),
        }[nu_kind])
        _, alpha = build_level_sigma(G, epsilon, eta, nu, alpha_grid=alpha_grid)
        assert alpha == brute_level_alpha(G, epsilon, eta, nu, alpha_grid)

    def test_near_tied_masses_match_the_grid_loop(self):
        # coarse grids, points on the cuts, and weights an ulp of 1000 apart:
        # near-tied masses, where the first of least mass must win
        rng = np.random.default_rng(15)
        weights = [0.0, -0.9, 999.0, 999.0 + 2**-43, 999.0 - 2**-43, 999.0 + 2**-42]
        for _ in range(400):
            n = int(rng.integers(2, 30))
            grid = int(rng.choice([2, 3, 4, 5, 8, 16, 40]))
            eta = float(rng.choice([0.49, 0.3, 0.25, 0.99 / grid, 0.5 / grid, 0.1]))
            g = CyclicGroup(n)
            on_cuts = rng.random() < 0.5
            G = GridFunction(
                g, (rng.integers(0, grid, n) / grid if on_cuts else rng.random(n)) * 0.5
            )
            nu = GridFunction(g, rng.choice(weights, n))
            _, alpha = build_level_sigma(G, 0.5, eta, nu, alpha_grid=grid)
            assert alpha == brute_level_alpha(G, 0.5, eta, nu, grid), (n, grid, eta)

    def test_level_search_memory_per_point(self):
        # one try's distances and mask at a time: 24.0 bytes per point
        n = 100003
        rng = np.random.default_rng(16)
        frac, nu = rng.random(n), rng.uniform(0.0, 1.0, n)  # weights nu + 1
        tracemalloc.start()
        try:
            znkit.transference._level_alpha_index(frac, nu, 10**5, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * n

    def test_level_search_never_forms_nu_plus_one(self):
        # at N = 999983 nu + 1 would be 7.6 MiB more: the peak is 62.3 MiB without it
        n = 999983
        g = CyclicGroup(n)
        G = GridFunction(g, np.random.default_rng(7).uniform(-1, 1, n))
        nu = GridFunction.constant(g, 1.0)
        tracemalloc.start()
        try:
            build_level_sigma(G, 1e-4, 1e-5, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 66 * 2**20

    @pytest.mark.parametrize("alpha_grid", [0, -3, 2**53 + 1, 10**17])
    def test_unresolvable_grid_is_refused_first(self, alpha_grid):
        g = CyclicGroup(10)
        G = GridFunction.constant(g, 5.0)
        nu = GridFunction.constant(g, 1.0)
        # the grid check comes before the value bound's
        with pytest.raises(ValueError, match="alpha_grid"):
            build_level_sigma(G, 0.5, 0.1, nu, alpha_grid=alpha_grid, value_bound=4.0)

    def test_finest_grid_needs_no_grid_sized_array(self):
        rng = np.random.default_rng(14)
        g = CyclicGroup(31)
        G = GridFunction(g, rng.uniform(-1, 1, 31))
        nu = GridFunction.constant(g, 1.0)
        tracemalloc.start()
        try:
            sigma, alpha = build_level_sigma(G, 0.25, 1e-15, nu, alpha_grid=2**53)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert 0.0 <= alpha < 1.0
        assert sigma.atom_count >= 1


class TestExceptionalSet:
    def test_no_small_atoms(self):
        g = CyclicGroup(16)
        nu = GridFunction.constant(g, 1.0)
        sigma = SigmaAlgebra.from_labels(g, np.arange(16) // 8)  # two huge atoms
        assert not exceptional_set(sigma, nu, 0.25).any()

    def test_single_atom_algebra(self):
        g = CyclicGroup(11)
        nu = GridFunction.constant(g, 1.0)
        sigma = SigmaAlgebra.trivial(g)
        assert not exceptional_set(sigma, nu, 0.49).any()

    def test_tiny_atom_is_caught(self):
        n = 16
        g = CyclicGroup(n)
        nu = GridFunction.constant(g, 1.0)
        labels = np.ones(n, dtype=np.int64)
        labels[0] = 0
        sigma = SigmaAlgebra.from_labels(g, labels)
        # atom {0} has (nu+1)-mass 2/16 = 0.125 <= sqrt(0.25)
        mask = exceptional_set(sigma, nu, 0.25)
        assert mask.dtype == bool and not mask.flags.writeable
        assert np.flatnonzero(mask).tolist() == [0]

    @pytest.mark.parametrize("eta", [math.nan, -1.0, 0.0, 0.5, math.inf])
    def test_eta_outside_the_open_half_interval_is_refused(self, eta):
        # nan gave an empty mask and -1 a math domain error
        g = CyclicGroup(11)
        nu = GridFunction.constant(g, 1.0)
        with pytest.raises(ValueError, match=r"eta must lie in \(0, 1/2\)"):
            exceptional_set(SigmaAlgebra.discrete(g), nu, eta)


class TestEnergy:
    def test_trivial_algebra(self):
        rng = np.random.default_rng(6)
        g = CyclicGroup(31)
        f = random_function(g, rng)
        assert energy(f, SigmaAlgebra.trivial(g), np.zeros(31, bool)) == pytest.approx(
            expectation(f) ** 2, abs=1e-13
        )

    def test_discrete_algebra(self):
        rng = np.random.default_rng(7)
        g = CyclicGroup(31)
        f = random_function(g, rng)
        assert energy(f, SigmaAlgebra.discrete(g), np.zeros(31, bool)) == pytest.approx(
            float((f.values**2).mean()), abs=1e-13
        )

    def test_full_exceptional_set_kills_energy(self):
        rng = np.random.default_rng(8)
        g = CyclicGroup(20)
        f = random_function(g, rng)
        algebra = random_partition(g, rng, 4)
        assert energy(f, algebra, np.ones(20, bool)) == 0.0


def _partition_identity_holds(result, f):
    lhs = result.f_uniform.values + result.f_antiuniform.values
    return np.abs(lhs - np.where(result.omega, 0.0, f.values)).max() <= 1e-12


class TestDecomposition:
    def test_decomposition_never_holds_nu_plus_one(self):
        # the omega mass sums nu + 1 on omega only: 157.5 MiB peak with nu + 1 held, 142.2
        # without; freeing f - nu after its check and E(f|B) once split brings it to 127.0,
        # and dropping the last pass's anti and residual before the dual to 111.7 (117 B/point);
        # cutting by the averaging line instead of an event sort brings it to 86.0 (90 B/point)
        n = 999983
        g = CyclicGroup(n)
        f = np.zeros(n)
        f[: n // 2] = 1.0
        tracemalloc.start()
        try:
            kvn_decompose(GridFunction(g, f), GridFunction.constant(g, 1.0),
                          DecompositionConfig(k=3, epsilon=1e-4, eta=1e-5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 96 * n

    def test_constant_function_stops_immediately(self):
        g = CyclicGroup(101)
        nu = GridFunction.constant(g, 1.0)
        f = GridFunction.constant(g, 0.4)
        res = kvn_decompose(f, nu, DecompositionConfig(k=3, epsilon=0.05))
        assert res.terminated_successfully
        assert res.iterations == 0
        assert np.abs(res.f_uniform.values).max() <= 1e-12
        assert np.allclose(res.f_antiuniform.values, 0.4, atol=1e-12)

    def test_dense_random_set_under_constant_measure(self):
        g = CyclicGroup(101)
        nu = GridFunction.constant(g, 1.0)
        rng = np.random.default_rng(9)
        f = GridFunction(g, (rng.random(101) < 0.5).astype(float))
        for eps in (0.05, 0.01):
            config = DecompositionConfig(k=3, epsilon=eps)
            res = kvn_decompose(f, nu, config)
            assert res.terminated_successfully
            assert res.iterations <= config.iteration_cap
            assert res.final_uniformity.norm_value <= config.uniformity_threshold
            assert _partition_identity_holds(res, f)

    def test_structured_set_forces_an_energy_increment(self):
        g = CyclicGroup(101)
        nu = GridFunction.constant(g, 1.0)
        f = GridFunction(g, (np.arange(101) < 50).astype(float))
        config = DecompositionConfig(k=3, epsilon=1e-4, eta=1e-5)
        res = kvn_decompose(f, nu, config)
        assert res.terminated_successfully
        assert res.iterations >= 1
        gains = np.diff(res.energy_trace)
        assert np.all(gains >= 2 ** (-7) * config.epsilon - 1e-9)
        # structured part stays bounded off the exceptional set
        assert res.f_antiuniform.values.max() <= 2.0
        assert _partition_identity_holds(res, f)

    def test_bernoulli_measure_with_masked_half(self):
        nu = bernoulli_measure(10007, seed=5)
        rng = np.random.default_rng(10)
        mask = rng.random(10007) < 0.5
        f = GridFunction(nu.group, np.where(mask, nu.values, 0.0))
        for eps in (0.05, 0.01):
            config = DecompositionConfig(k=3, epsilon=eps)
            res = kvn_decompose(f, nu, config)
            assert res.terminated_successfully
            assert res.final_uniformity.norm_value <= config.uniformity_threshold
            assert _partition_identity_holds(res, f)

    def test_monte_carlo_mode_matches_exact_stop(self):
        g = CyclicGroup(101)
        nu = GridFunction.constant(g, 1.0)
        rng = np.random.default_rng(11)
        f = GridFunction(g, (rng.random(101) < 0.5).astype(float))
        exact = kvn_decompose(f, nu, DecompositionConfig(k=3, epsilon=0.05))
        sampled = kvn_decompose(
            f, nu,
            DecompositionConfig(
                k=3, epsilon=0.05, uniformity_mode="monte_carlo",
                samples=100_000, seed=6,
            ),
        )
        assert sampled.terminated_successfully
        assert sampled.iterations == exact.iterations
        diff = abs(
            sampled.final_uniformity.raised_value
            - exact.final_uniformity.raised_value
        )
        assert diff <= 4 * sampled.final_uniformity.std_error + 1e-12

    def test_monte_carlo_mode_reproducible(self):
        g = CyclicGroup(101)
        nu = GridFunction.constant(g, 1.0)
        rng = np.random.default_rng(12)
        f = GridFunction(g, (rng.random(101) < 0.4).astype(float))
        config = DecompositionConfig(
            k=3, epsilon=0.05, uniformity_mode="monte_carlo", samples=50_000, seed=13
        )
        a = kvn_decompose(f, nu, config)
        b = kvn_decompose(f, nu, config)
        assert a.final_uniformity.raised_value == b.final_uniformity.raised_value

    def test_domination_violation_reports_worst_residue(self):
        g = CyclicGroup(11)
        nu = GridFunction.constant(g, 1.0)
        vals = np.full(11, 0.5)
        vals[7] = 1.5
        f = GridFunction(g, vals)
        with pytest.raises(ValueError, match="worst residue 7"):
            kvn_decompose(f, nu, DecompositionConfig(k=3, epsilon=0.05))

    def test_eta_past_the_finest_grid_is_refused(self):
        with pytest.raises(ValueError, match="2\\^53"):
            DecompositionConfig(k=3, epsilon=1e-12, eta=1e-17)

    def test_iteration_cap_formula(self):
        assert DecompositionConfig(k=3, epsilon=0.05).iteration_cap == 5122
        assert DecompositionConfig(k=3, epsilon=0.01).iteration_cap == 25602
        override = DecompositionConfig(k=3, epsilon=0.05, max_iterations_override=2)
        assert override.iteration_cap == 2

    def test_forced_cap_marks_failure(self):
        g = CyclicGroup(101)
        nu = GridFunction.constant(g, 1.0)
        f = GridFunction(g, (np.arange(101) < 50).astype(float))
        config = DecompositionConfig(
            k=3, epsilon=1e-4, eta=1e-5, max_iterations_override=0
        )
        res = kvn_decompose(f, nu, config)
        assert not res.terminated_successfully
        assert res.iterations == 0

    def test_iteration_log_fields(self):
        g = CyclicGroup(101)
        nu = GridFunction.constant(g, 1.0)
        f = GridFunction(g, (np.arange(101) < 50).astype(float))
        res = kvn_decompose(f, nu, DecompositionConfig(k=3, epsilon=1e-4, eta=1e-5))
        assert len(res.iteration_log) == res.iterations + 1
        first = res.iteration_log[0]
        assert set(first) == {
            "K", "energy", "uniformity", "uniformity_stderr",
            "atom_count", "omega_mass", "chosen_alpha",
        }
        assert first["chosen_alpha"] is not None  # a refinement happened
        assert res.iteration_log[-1]["chosen_alpha"] is None  # stopping pass

    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    def test_final_energy_and_structured_part_match_oracles(self, mode):
        # refines once, and E(f | sigma) is nonzero on part of omega
        nu = bernoulli_measure(401, seed=4)
        f = GridFunction(nu.group, np.where(np.arange(401) < 200, nu.values, 0.0))
        config = DecompositionConfig(k=3, epsilon=1e-3, eta=9e-4, uniformity_mode=mode,
                                     samples=20_000, seed=3)
        res = kvn_decompose(f, nu, config)
        assert res.iterations >= 1
        assert conditional_expectation(f, res.sigma).values[res.omega].any()
        assert res.energy_trace[-1] == energy(f, res.sigma, res.omega)
        want = np.where(res.omega, 0, conditional_expectation(f, res.sigma).values)
        assert np.array_equal(res.f_antiuniform.values, want)


class TestGvnCheck:
    def test_constant_measure_classical_case(self):
        g = CyclicGroup(101)
        nu = GridFunction.constant(g, 1.0)
        report = gvn_check(nu, k=3, trials=12, seed=1)
        assert report.trials == 12
        assert len(report.pairs) == 12
        # |average| <= slope * min_norm + residual by construction of the fit
        for avg, norm in report.pairs:
            assert avg <= report.slope * norm + report.max_residual + 1e-12
        # envelope-bounded tuples keep averages under the trivial sup bound 8
        assert all(avg <= 8.0 for avg, _ in report.pairs)

    def test_bernoulli_measure(self):
        nu = bernoulli_measure(401, seed=2)
        report = gvn_check(nu, k=3, trials=8, seed=3)
        assert report.slope >= 0
        # whatever the fit misses is a sliver of the trivial envelope scale
        envelope = GridFunction(nu.group, nu.values + 1.0)
        trivial = ap_expectation([envelope] * 3, [0, 1, 2])
        assert report.max_residual <= 0.05 * trivial

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_needs_two_terms_before_any_work(self, monkeypatch, k):
        def no_work(*args):
            raise AssertionError("sampled before the k check")

        monkeypatch.setattr(znkit.transference, "substream", no_work)
        nu = GridFunction.constant(CyclicGroup(11), 1.0)
        with pytest.raises(ValueError, match=f"k = {k}"):
            gvn_check(nu, k=k, trials=3, seed=0)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_needs_a_trial(self, trials):
        nu = GridFunction.constant(CyclicGroup(11), 1.0)
        with pytest.raises(ValueError, match="trials"):
            gvn_check(nu, k=3, trials=trials, seed=0)

    def test_norm_budget_refuses_before_any_progression_average(self, monkeypatch):
        def no_average(*args):
            raise AssertionError("took a progression average before the budget gate")

        monkeypatch.setattr(znkit.transference, "ap_expectation", no_average)
        nu = GridFunction.constant(CyclicGroup(20011), 1.0)
        with pytest.raises(BudgetExceededError):
            gvn_check(nu, k=4, trials=1, seed=0)

    def test_deterministic(self):
        g = CyclicGroup(101)
        nu = GridFunction.constant(g, 1.0)
        a = gvn_check(nu, k=3, trials=5, seed=4)
        b = gvn_check(nu, k=3, trials=5, seed=4)
        assert a.pairs == b.pairs
