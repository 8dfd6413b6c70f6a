import collections
import itertools
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from znkit import (
    CyclicGroup,
    GridFunction,
    LinearFormSystem,
    MajorantParams,
    bernoulli_measure,
    build_majorant,
    dual_function_u2_fourier,
    gowers_norm_u2_fourier,
    gy2_correlation_check,
    gy_moment_check,
    local_factor_omega,
    tau_weight,
    verify_correlation,
    verify_linear_forms,
)
from znkit.arith import divisor_sums_on_progression, primes_up_to
from znkit.core import BudgetExceededError, mc_mean, substream
from znkit.pseudo import (
    _MC_CHUNK,
    _PRODUCT_LEAF,
    _TAU_LEAF_MIN,
    _shifted_product,
    _tau_leaf,
    _window_weight,
    antiuniform_correlation,
)
import znkit.pseudo
from conftest import two_pass_mc_mean
from test_arith import lambda_r_table


class TestLinearFormSystem:
    def test_cube_shape(self):
        sys2 = LinearFormSystem.cube(2)
        assert (sys2.m, sys2.t) == (4, 3)
        assert sys2.coefficients[0] == (1, 0, 0)
        assert sys2.coefficients[3] == (1, 1, 1)

    def test_progression_shape(self):
        sys3 = LinearFormSystem.progression(3)
        assert (sys3.m, sys3.t) == (3, 2)

    def test_rejects_rational_multiples(self):
        with pytest.raises(ValueError, match="rows 0 and 1"):
            LinearFormSystem.from_rows([(1, 2), (2, 4)])
        with pytest.raises(ValueError, match="rational multiples"):
            LinearFormSystem.from_rows([("1/2", 1), (1, 2)])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_proportional_pair_matches_pairwise_oracle(self, data):
        # rows are mostly rational multiples of a few base rows, so that
        # several classes with several members each are common
        t = data.draw(st.integers(1, 4), label="t")
        small = st.integers(-2, 2)
        bases = data.draw(st.lists(st.tuples(*[small] * t).filter(any), min_size=1,
                                   max_size=3), label="bases")
        scale = st.fractions(-3, 3, max_denominator=3).filter(lambda q: q != 0)
        row = st.one_of(
            st.tuples(st.sampled_from(bases), scale).map(
                lambda bq: tuple(bq[1] * c for c in bq[0])),
            st.tuples(*[st.fractions(-2, 2, max_denominator=2)] * t).filter(any),
        )
        rows = data.draw(st.lists(row, min_size=1, max_size=8), label="rows")
        want = None  # the pairwise loop the class used to run
        for i, j in itertools.combinations(range(len(rows)), 2):
            ri, rj = rows[i], rows[j]
            if all(ri[a] * rj[b] == ri[b] * rj[a] for a in range(t) for b in range(a + 1, t)):
                want = (i, j)
                break
        if want is None:
            assert LinearFormSystem.from_rows(rows).m == len(rows)
        else:
            with pytest.raises(ValueError, match=rf"^rows {want[0]} and {want[1]} are "):
                LinearFormSystem.from_rows(rows)

    def test_large_cube_builds_in_linear_time(self):
        # the pairwise Fraction loop took seconds here (1024 rows of 11)
        start = time.perf_counter()
        assert LinearFormSystem.cube(10).m == 1024
        assert time.perf_counter() - start < 2.0

    def test_rejects_zero_row(self):
        with pytest.raises(ValueError, match="zero"):
            LinearFormSystem.from_rows([(1, 1), (0, 0)])

    def test_constants_and_shifts_must_be_integers(self):
        # a float must be refused, not truncated: (0.5, 1.9) would run as (0, 1)
        with pytest.raises(TypeError):
            LinearFormSystem.from_rows([[1, 0], [1, 1]], [0.5, 1.9])
        with pytest.raises(TypeError):
            LinearFormSystem.shifted([0, 1.7])
        system = LinearFormSystem.from_rows([[1, 0], [1, 1]], [np.int64(3), -2])
        assert system.constants == (3, -2)
        assert LinearFormSystem.shifted([np.int32(0), 5]).constants == (0, 5)

    def test_fraction_parsing_and_height(self):
        system = LinearFormSystem.from_rows([("1/2", 1), (1, "2/3")])
        assert system.coefficient_height == 3
        assert system.denominator_lcm == 6

    def test_residue_matrix_inverts_denominators(self):
        system = LinearFormSystem.from_rows([("1/2", 1), (1, "1/3")])
        mat, consts = system.residue_matrix(7)
        assert mat[0, 0] == pow(2, -1, 7)
        assert mat[1, 1] == pow(3, -1, 7)
        assert consts.tolist() == [0, 0]


class TestVerifyLinearForms:
    def test_constant_measure_is_exactly_one(self):
        nu = GridFunction.constant(CyclicGroup(101), 1.0)
        for system in (
            LinearFormSystem.cube(2),
            LinearFormSystem.progression(3),
            LinearFormSystem.from_rows([("1/2", 1), (1, 3), (1, "-1/3")]),
        ):
            report = verify_linear_forms(nu, system, mode="exact")
            assert report.estimate.value == 1.0
            assert report.estimate.std_error == 0.0
            assert report.passed

    def test_monte_carlo_within_four_sigma_of_exact(self):
        system = LinearFormSystem.cube(2)
        for nu in (
            GridFunction.constant(CyclicGroup(101), 1.0),
            bernoulli_measure(101, seed=7),
        ):
            exact = verify_linear_forms(nu, system, mode="exact")
            mc = verify_linear_forms(
                nu, system, mode="monte_carlo", samples=200_000, seed=11
            )
            tol = 4 * mc.estimate.std_error + 1e-12
            assert abs(mc.estimate.value - exact.estimate.value) <= tol

    def test_majorant_spot_check(self):
        params = MajorantParams(k=3, N=10007, w=2, R_exponent=1 / 12)
        nu = build_majorant(params)
        report = verify_linear_forms(
            nu, LinearFormSystem.cube(2), mode="monte_carlo", samples=10**5, seed=1
        )
        assert report.deviation <= 0.25
        assert report.passed

    def test_budget_refusal(self):
        nu = GridFunction.constant(CyclicGroup(101), 1.0)
        with pytest.raises(Exception, match="monte_carlo"):
            verify_linear_forms(nu, LinearFormSystem.cube(3), mode="exact", budget=10**4)

    def test_rejects_shifted_systems(self):
        nu = GridFunction.constant(CyclicGroup(101), 1.0)
        with pytest.raises(ValueError, match="allow_proportional"):
            verify_linear_forms(nu, LinearFormSystem.shifted([0, 1]))

    def test_seed_replay(self):
        nu = bernoulli_measure(101, seed=3)
        a = verify_linear_forms(nu, LinearFormSystem.cube(2), mode="monte_carlo",
                                samples=50_000, seed=5)
        b = verify_linear_forms(nu, LinearFormSystem.cube(2), mode="monte_carlo",
                                samples=50_000, seed=5)
        assert a.estimate.value == b.estimate.value

    @pytest.mark.parametrize("system", [
        LinearFormSystem.cube(2),
        LinearFormSystem.cube(3),
        LinearFormSystem.from_rows([("1/2", 1), (1, 3), (1, "-1/3")], [0, 5, -2]),
    ])
    def test_monte_carlo_equals_gathered_draw(self, system):
        # the draw as a (count, t) block gathered to (count, m) in one step
        nu = bernoulli_measure(101, seed=2)
        mat, consts = system.residue_matrix(101)

        def draw(rng, count):
            x = rng.integers(0, 101, size=(count, system.t))
            return nu.values[(x @ mat.T + consts) % 101].prod(axis=1)

        samples = 2 * _MC_CHUNK + 1000
        want = mc_mean(draw, samples, 9, "linforms", _MC_CHUNK)
        got = verify_linear_forms(nu, system, mode="monte_carlo", samples=samples, seed=9)
        assert (got.estimate.value, got.estimate.std_error) == (want.value, want.std_error)

    def test_exact_matches_full_grid_product(self):
        N = 401  # N^2 points: more than one leaf of core._box_sum
        nu = bernoulli_measure(N, seed=6)
        for system in (
            LinearFormSystem.progression(3),
            LinearFormSystem.from_rows([("1/2", 1), (1, 3), (1, "-1/3")], [0, 5, -2]),
        ):
            mat, consts = system.residue_matrix(N)
            grid = np.indices((N,) * system.t, dtype=np.int64).reshape(system.t, -1)
            prod = np.ones(grid.shape[1])
            for i in range(system.m):
                prod *= nu.values[(mat[i] @ grid + consts[i]) % N]
            report = verify_linear_forms(nu, system, mode="exact")
            assert report.estimate.value == float(np.add.reduce(prod)) / prod.size
            assert report.estimate.samples == N**system.t

    def test_exact_memory_is_bounded(self):
        # a full N^2 index grid here would take hundreds of MiB
        nu = bernoulli_measure(4001, seed=1)
        tracemalloc.start()
        try:
            verify_linear_forms(nu, LinearFormSystem.progression(3), mode="exact")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("system", [LinearFormSystem.cube(2),
                                        LinearFormSystem.progression(4)])
    def test_monte_carlo_memory_is_one_draw_and_one_output(self, system):
        # one draw, one chunk's output and two blocks; at N = 999983 a tiled
        # table would take 16 to 24 MiB, and index and gather temporaries
        # for a whole chunk 1 MiB each
        N = 999983
        nu = bernoulli_measure(N, seed=1)
        tracemalloc.start()
        try:
            substream(0, "linforms", 0).integers(0, N, size=(_MC_CHUNK, system.t))
            _, draw_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            verify_linear_forms(nu, system, mode="monte_carlo",
                                samples=2 * _MC_CHUNK + 7, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < draw_peak + 8 * _MC_CHUNK + 2**18

    def test_monte_carlo_draws_eight_variables_a_block_at_a_time(self):
        # the Conlon-Fox-Zhao system at k = 4: forms sum_i (j - i) x_i^(omega_i),
        # j = 1..4, omega over the other three i, in t = 2k = 8 variables.
        # A whole chunk of its points would take 8 MiB; drawn a block at a
        # time, one chunk's output and a block's points and buffers remain
        k = 4
        rows = []
        for j in range(1, k + 1):
            others = [i for i in range(1, k + 1) if i != j]
            for omega in itertools.product((0, 1), repeat=k - 1):
                row = [0] * (2 * k)
                for i, w in zip(others, omega):
                    row[2 * (i - 1) + w] = j - i
                rows.append(row)
        system = LinearFormSystem.from_rows(rows)
        assert (system.m, system.t) == (32, 8)
        nu = bernoulli_measure(999983, seed=1)
        tracemalloc.start()
        try:
            verify_linear_forms(nu, system, mode="monte_carlo",
                                samples=2 * _MC_CHUNK + 7, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * _MC_CHUNK + 2**20

    def test_monte_carlo_budget_is_checked_before_sampling(self):
        nu = GridFunction.constant(CyclicGroup(10007), 1.0)
        with pytest.raises(BudgetExceededError, match="4.00e\\+11"):
            verify_linear_forms(nu, LinearFormSystem.cube(2), mode="monte_carlo",
                                samples=10**11, budget=1000)


class TestTauWeight:
    def test_empty_product(self):
        assert tau_weight(1, 2, 101, c_tau=1.0, a_tau=1.0) == 1.0

    def test_two_factor_product(self):
        want = (1 + 2**-0.5) * (1 + 3**-0.5)
        assert tau_weight(6, 2, 101, c_tau=1.0, a_tau=1.0) == pytest.approx(want)

    def test_origin_spike(self):
        n_mod = 101
        want = math.exp(1.0 * 2 * math.log(n_mod) / math.log(math.log(n_mod)))
        assert tau_weight(0, 2, n_mod, c_tau=1.0) == pytest.approx(want)

    def test_range_check(self):
        with pytest.raises(ValueError):
            tau_weight(200, 2, 101)

    @pytest.mark.parametrize("N", [1, 2])
    def test_refuses_n_below_three(self, N):
        # log log 2 < 0 shrank the spike at n = 0 below c_tau; log log 1 died
        with pytest.raises(ValueError, match=f"N = {N}: .*at least 3"):
            tau_weight(0, 2, N)


def dense_verify_correlation(nu, m, h_tuples, q_list, c_tau, a_tau):
    """The dense route, the oracle of verify_correlation's leaves: each
    product in one N-float buffer from np.roll copies, then the full table
    of the (N - 1)/2 weights and (tau ** q).mean().  The weights are sieved
    in tau_weight's order: a prime p <= sqrt(half) multiplies its multiples
    by one strided slice, and a larger prime, the largest prime factor of
    each of its multiples j p <= half, comes last, one gather per j."""
    N = nu.group.modulus
    prod = np.empty(N)
    max_ratio = -math.inf
    for h in h_tuples:
        prod[:] = 1.0
        for s in h:
            prod *= np.roll(nu.values, -(s % N))
        bound = 0.0
        for i, j in itertools.combinations(range(m), 2):
            bound += tau_weight(h[i] - h[j], m, N, c_tau, a_tau)
        max_ratio = max(max_ratio, float(prod.mean()) / bound)
    del prod
    half = (N - 1) // 2
    factor_exponent = 2.0 * m if a_tau is None else a_tau
    tau_vals = np.full(half, c_tau, dtype=np.float64)  # tau_vals[r - 1] = tau(r)
    primes = primes_up_to(max(half, 2))
    n_small = int(np.searchsorted(primes, math.isqrt(half), side="right"))
    for p in primes[:n_small].tolist():
        tau_vals[p - 1 :: p] *= (1.0 + p**-0.5) ** factor_exponent
    big = primes[n_small:]  # p^2 > half; Bertrand keeps it nonempty
    factors = np.array([(1.0 + p**-0.5) ** factor_exponent for p in big.tolist()])
    for j in range(1, half // int(big[0]) + 1):
        k = int(np.searchsorted(big, half // j, side="right"))
        tau_vals[big[:k] * j - 1] *= factors[:k]
    moments = {float(q): float((tau_vals**q).mean()) for q in q_list}
    return max_ratio, moments


def assert_matches_dense(nu, m, h_tuples, q_list=(1.0, 2.0, 4.0), c_tau=4.0, a_tau=None):
    report = verify_correlation(nu, m, h_tuples, q_list, c_tau, a_tau)
    max_ratio, moments = dense_verify_correlation(nu, m, h_tuples, q_list, c_tau, a_tau)
    assert report.estimate.value.hex() == max_ratio.hex()
    assert {q: v.hex() for q, v in report.moments.items()} == {
        q: v.hex() for q, v in moments.items()}


class TestVerifyCorrelation:
    def test_constant_measure_shifted_products_are_one(self):
        nu = GridFunction.constant(CyclicGroup(101), 1.0)
        for h in ((0, 5), (3, 77)):
            report = verify_correlation(nu, 2, [h])
            # ratio times the bound reconstructs the left side: exactly 1
            bound = tau_weight(h[0] - h[1], 2, 101)
            assert report.estimate.value * bound == pytest.approx(1.0, abs=1e-14)
            assert report.passed

    def test_majorant_ratio_below_one(self):
        params = MajorantParams(k=3, N=10007, w=2, R_exponent=0.25, epsilon_k=0.25)
        nu = build_majorant(params)
        rng = np.random.default_rng(0)
        tuples = []
        while len(tuples) < 100:
            t = rng.integers(0, 10007, size=2).tolist()
            if t[0] != t[1]:
                tuples.append(t)
        report = verify_correlation(nu, 2, tuples)
        assert report.estimate.value <= 1.0
        assert report.passed

    def test_moments_reported_and_finite(self):
        nu = bernoulli_measure(10007, seed=2)
        report = verify_correlation(nu, 2, [(0, 1)], q_list=(1, 2, 4))
        assert set(report.moments) == {1.0, 2.0, 4.0}
        for value in report.moments.values():
            assert math.isfinite(value) and value > 0

    def test_rejects_small_m(self):
        nu = GridFunction.constant(CyclicGroup(101), 1.0)
        with pytest.raises(ValueError):
            verify_correlation(nu, 1, [(0,)])

    def test_rejects_n_below_three(self):
        nu = GridFunction.constant(CyclicGroup(2), 1.0)
        with pytest.raises(ValueError, match=r"\(N - 1\)/2 nonzero residues"):
            verify_correlation(nu, 2, [(0, 1)])

    def test_rejects_empty_tuple_list_before_any_work(self, monkeypatch):
        nu = GridFunction.constant(CyclicGroup(101), 1.0)
        monkeypatch.setattr(znkit.pseudo, "odd_prime_indicator", None)  # no tau pass reached
        with pytest.raises(ValueError, match="h_tuples is empty"):
            verify_correlation(nu, 2, [])

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 101, 1000])
    def test_shifted_product_equals_rolled_copies(self, m, n):
        # 0, N - 1, a repeated shift, a negative one and one past N, on
        # leaves at the start, inside, wrapping past N, and the whole group
        vals = np.random.default_rng(m).uniform(-2, 2, n)
        vals[::7] = -0.0
        pool = [0, n - 1, 3, 3, -5, n + 4, 2 * n + 1]
        leaves = {(0, n), (0, min(n, 7)), (n // 3, n // 3 + n // 2), (n - 1, n),
                  (max(0, n - 5), n)}
        buf = np.full(n + 3, np.nan)
        for shifts in itertools.combinations(pool, m):
            want = np.ones(n)
            for s in shifts:
                want *= np.roll(vals, -(s % n))
            for lo, hi in leaves:
                out = buf[3 : 3 + hi - lo]
                got = _shifted_product(vals, shifts, lo, out)
                assert got is out
                assert got.tobytes() == want[lo:hi].tobytes()

    def test_peak_memory_is_one_product_buffer(self):
        # beside nu: the large primes' tau factors ((N + 1)/4 floats, 1.9 MiB)
        # and leaf buffers; the dense route held one N-float product buffer,
        # then N/2 weights and one power of them, 8.27 MiB traced
        N = 999983
        nu = bernoulli_measure(N, seed=1)
        tracemalloc.start()
        try:
            verify_correlation(nu, 3, [(0, 5, 17), (3, 1, 40)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.one_of(
            st.integers(1, 1499).map(lambda j: 2 * j + 1),
            st.sampled_from((_PRODUCT_LEAF - 1, _PRODUCT_LEAF + 1,
                             2 * _TAU_LEAF_MIN - 1, 2 * _TAU_LEAF_MIN + 1,
                             4 * _TAU_LEAF_MIN + 17, 3 * 7 * 11 * 13 * 17))),
        m=st.sampled_from((2, 3, 4)),
        data=st.data(),
    )
    @example(N=3, m=2, data=None)
    @example(N=5, m=3, data=None)
    @example(N=7, m=4, data=None)
    @example(N=2 * 1024**2 + 1, m=2, data=None)  # isqrt(half) = 1024: 2^14 residues a leaf
    @example(N=2 * 1025**2 + 1, m=3, data=None)  # isqrt(half) = 1025: 2^15 residues a leaf
    def test_equals_dense_oracle(self, N, m, data):
        # shifts from -N to 2N, pairwise at most N apart as tau_weight needs,
        # on a Bernoulli measure or random nonnegative values
        if data is None:
            rng = np.random.default_rng(N)
            base, offsets = int(rng.integers(-N, N + 1)), rng.integers(0, N + 1, (3, m))
            nu = bernoulli_measure(N, seed=m)
        else:
            base = data.draw(st.integers(-N, N))
            offsets = data.draw(st.lists(st.lists(st.integers(0, N), min_size=m, max_size=m),
                                         min_size=1, max_size=3))
            if data.draw(st.booleans()):
                nu = bernoulli_measure(N, seed=data.draw(st.integers(0, 3)))
            else:
                rng = np.random.default_rng(data.draw(st.integers(0, 3)))
                nu = GridFunction(CyclicGroup(N), rng.uniform(0.0, 3.0, N))
        tuples = [[base + int(o) for o in row] for row in offsets]
        assert_matches_dense(nu, m, tuples, (0.5, 1.0, 2.0, 4.0, 3.7), 2.5, None)

    @pytest.mark.parametrize("random_nu", [False, True])
    def test_equals_dense_oracle_at_999983(self, random_nu):
        N = 999983
        if random_nu:
            nu = GridFunction(CyclicGroup(N), np.random.default_rng(3).uniform(0.0, 3.0, N))
        else:
            nu = bernoulli_measure(N, seed=1)
        tuples = [[0, 5, 17], [-40, N - 41, 3], [N, 2 * N - 1, N + 123456]]
        assert_matches_dense(nu, 3, tuples, a_tau=5.0)

    def test_tau_leaves_grow_with_the_sieving_primes(self):
        # the least power of two >= 16 isqrt(half), and at least 2^14
        assert _TAU_LEAF_MIN == 1 << 14
        assert _tau_leaf(1) == _tau_leaf(1024**2 + 1024) == 1 << 14
        assert _tau_leaf(1025**2) == _tau_leaf(2048**2 + 4095) == 1 << 15
        assert _tau_leaf(2049**2) == 1 << 16

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.integers(1, 1499).map(lambda j: 2 * j + 1),
        m=st.sampled_from((2, 3, 4)),
        c_tau=st.one_of(st.integers(1, 8), st.floats(0.25, 8.0)),
        a_tau=st.one_of(st.none(), st.floats(0.5, 12.0)),
    )
    @example(N=3, m=2, c_tau=4, a_tau=None)
    @example(N=2999, m=4, c_tau=2.5, a_tau=3.0)  # prime
    @example(N=2997, m=3, c_tau=2, a_tau=None)  # 3^4 37
    @example(N=2145, m=2, c_tau=4.0, a_tau=7.0)  # 3 5 11 13
    @example(N=243, m=3, c_tau=4, a_tau=None)  # half = 121 = 11^2
    @example(N=5, m=2, c_tau=4, a_tau=None)  # half = 2 < 4
    @example(N=7, m=4, c_tau=1.5, a_tau=2.0)  # half = 3 < 4
    @example(N=227, m=2, c_tau=3, a_tau=5.5)  # half = 113, prime
    @example(N=31, m=2, c_tau=3, a_tau=None)  # half = 15: 3 = isqrt(15) goes first
    def test_moments_equal_scalar_oracle(self, N, m, c_tau, a_tau):
        nu = GridFunction.constant(CyclicGroup(N), 1.0)
        q_list = (0.5, 1.0, 2.0, 4.0)
        report = verify_correlation(nu, m, [tuple(range(m))], q_list, c_tau, a_tau)
        oracle = np.asarray(
            [tau_weight(r, m, N, c_tau, a_tau) for r in range(1, (N - 1) // 2 + 1)]
        )
        assert report.moments == {q: float((oracle**q).mean()) for q in q_list}


class TestLocalFactors:
    def test_empty_set_is_one(self):
        system = LinearFormSystem.progression(3)
        assert local_factor_omega(system, 6, 7, []) == Fraction(1)

    def test_budget_refusal(self):
        system = LinearFormSystem.progression(3)  # t = 2 variables
        assert local_factor_omega(system, 6, 11, [0], budget=121) == Fraction(1, 11)
        with pytest.raises(BudgetExceededError, match="11\\^2 points.*budget"):
            local_factor_omega(system, 6, 11, [0], budget=120)

    def test_small_primes_vanish(self):
        system = LinearFormSystem.progression(3)
        for p in (2, 3):
            assert local_factor_omega(system, 6, p, [0]) == 0
            assert local_factor_omega(system, 6, p, [0, 1]) == 0

    def test_singletons_have_density_one_over_p(self):
        system = LinearFormSystem.progression(3)
        for p in (7, 11, 13):
            for i in range(3):
                assert local_factor_omega(system, 6, p, [i]) == Fraction(1, p)

    def test_pairs_bounded_by_inverse_square(self):
        rng = np.random.default_rng(1)
        nums = [-3, -2, -1, 1, 2, 3]
        for _ in range(20):
            rows = []
            while len(rows) < 3:
                cand = tuple(
                    Fraction(int(rng.choice(nums)), int(rng.integers(1, 4)))
                    for _ in range(2)
                )
                try:
                    LinearFormSystem(tuple(rows) + (cand,), (0,) * (len(rows) + 1))
                except ValueError:
                    continue
                rows.append(cand)
            system = LinearFormSystem(tuple(rows), (0, 1, 2))
            for p in (7, 11, 13):
                val = local_factor_omega(system, 6, p, [0, 1])
                assert val <= Fraction(1, p * p)

    def test_shifted_system_vanishes_unless_p_divides_delta(self):
        for h, p, expect in (
            ([0, 7], 7, Fraction(1, 7)),
            ([0, 7], 11, Fraction(0)),
            ([0, 7, 14], 7, Fraction(1, 7)),
            ([1, 4, 6], 5, Fraction(0)),
            ([1, 6], 5, Fraction(1, 5)),
        ):
            system = LinearFormSystem.shifted(h)
            assert local_factor_omega(system, 6, p, list(range(len(h)))) == expect

    def test_clearing_denominators_needs_p_coprime(self):
        system = LinearFormSystem.from_rows([("1/7", 1), (1, 2)])
        with pytest.raises(ValueError, match="denominators"):
            local_factor_omega(system, 6, 7, [0])

    @pytest.mark.parametrize("p", [53, 101])
    def test_large_w_matches_python_int_brute_force(self, p):
        # W psi + 1 near 2^60 * p: int64 products of W would wrap
        W = math.prod(q for q in range(2, 48) if all(q % r for r in range(2, q)))
        assert W == 614889782588491410
        system = LinearFormSystem.cube(2)  # form 0 is x, form 3 is x + h_1 + h_2
        assert [system.coefficients[i] for i in (0, 3)] == [(1, 0, 0), (1, 1, 1)]
        counts = collections.Counter()
        for x, h1, h2 in itertools.product(range(p), repeat=3):
            first = (W * x + 1) % p == 0
            last = (W * (x + h1 + h2) + 1) % p == 0
            counts[0] += first
            counts[3] += last
            counts[(0, 3)] += first and last
        for forms, key in (([0], 0), ([3], 3), ([0, 3], (0, 3))):
            want = Fraction(counts[key], p**system.t)
            assert local_factor_omega(system, W, p, forms) == want

    def test_memory_at_the_budget_edge(self):
        # p^t = 211^3 = 9393931 points, which the default budget admits;
        # an int64 grid of them alone would take 215 MiB
        system = LinearFormSystem.cube(2)
        tracemalloc.start()
        try:
            omega = local_factor_omega(system, 6, 211, [0, 1, 2, 3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert omega == Fraction(1, 211**3)
        assert peak <= 16 * 2**20


class TestWindowMoments:
    def test_closed_form_when_r_is_below_three(self):
        # at w = 2 and R < 3 the only squarefree d <= R are 1 and 2, and 2
        # never divides the odd W k + W c + 1, so every divisor sum is log R
        # and the ratio is ((phi(W)/W) log R)^m
        params = MajorantParams(k=3, N=10007, w=2, R_exponent=0.05, epsilon_k=0.25)
        assert params.R < 3
        lo, hi = params.window
        want = params.phi_W / params.W * params.log_R
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            one = gy_moment_check(params, LinearFormSystem.from_rows([(1,)]), [(lo, hi)])
            two = gy_moment_check(params, LinearFormSystem.from_rows([(1, 0), (1, 3)], [0, 2]),
                                  [(lo, hi), (0, 50)], mode="monte_carlo", samples=1000)
        shifted = gy2_correlation_check(params, [0, 4, 9], (lo, hi), a_tau=0.0)
        assert one.value == pytest.approx(want, rel=1e-12)
        assert two.value == pytest.approx(want**2, rel=1e-12)
        assert shifted.value == pytest.approx(want**3, rel=1e-12)

    def test_exact_agrees_with_manual_mean(self):
        params = MajorantParams(k=3, N=1009, w=2, R_exponent=0.3, epsilon_k=0.25)
        lo, hi = params.window
        system = LinearFormSystem.from_rows([(1,)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = gy_moment_check(params, system, [(lo, hi)])
        table = lambda_r_table(params.W * hi + 1, params.R)
        vals = table[params.W * np.arange(lo, hi + 1) + 1] ** 2
        want = vals.mean() / (params.W * params.log_R / params.phi_W)
        assert est.value == pytest.approx(want, rel=1e-12)

    def test_exact_reports_at_the_benchmark_window(self):
        # the gycheck window of N = 999983, w = 2, theta = 0.3333, eps = 0.25:
        # 249996 points, more than one leaf of core._box_sum; these are the
        # reprs the whole-window np.mean gave
        params = MajorantParams(k=3, N=999983, w=2, R_exponent=0.3333, epsilon_k=0.25)
        assert params.window == (249996, 499991)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            moment = gy_moment_check(params, LinearFormSystem.from_rows([(1,)]),
                                     [params.window])
        shifted = gy2_correlation_check(params, [0, 2, 6], params.window)
        assert repr(moment.value) == "0.8444112568016682"
        assert repr(shifted.value) == "0.0013446104143601664"

    def test_monte_carlo_consistent_and_reproducible(self):
        params = MajorantParams(k=3, N=10007, w=2, R_exponent=0.25, epsilon_k=0.25)
        lo, hi = params.window
        system = LinearFormSystem.from_rows([(1,)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            exact = gy_moment_check(params, system, [(lo, hi)])
            mc1 = gy_moment_check(
                params, system, [(lo, hi)], mode="monte_carlo", samples=200_000, seed=4
            )
            mc2 = gy_moment_check(
                params, system, [(lo, hi)], mode="monte_carlo", samples=200_000, seed=4
            )
        assert mc1.value == mc2.value
        assert abs(mc1.value - exact.value) <= 4 * mc1.std_error

    def test_short_box_warns(self):
        params = MajorantParams(k=3, N=999983, w=2, R_exponent=0.25, epsilon_k=0.25)
        system = LinearFormSystem.from_rows([(1,)])
        with pytest.warns(UserWarning, match="below R"):
            gy_moment_check(params, system, [(100, 199)])

    def test_two_variable_exact_is_refused(self):
        params = MajorantParams(k=3, N=1009, w=2, R_exponent=0.3, epsilon_k=0.25)
        system = LinearFormSystem.from_rows([(1, 0), (1, 1)])
        with pytest.raises(ValueError, match="monte_carlo"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                gy_moment_check(params, system, [(10, 50), (10, 50)])


def _table_moment(params, system, box, mode, samples=0, seed=0):
    """(value, std error) by the full-table route: lambda_r_table indexed by
    the value W psi_i(x) + 1.  Monte Carlo draws each chunk's points, their
    coordinates together, in one rng.integers call and averages on the same
    mc_mean as gy_moment_check: the subject here is the divisor-sum route."""
    mat, consts = system.integer_matrix()
    W = params.W
    top = max(
        W * int(mat[i] @ np.asarray(corner)) + W * int(consts[i]) + 1
        for i in range(system.m)
        for corner in itertools.product(*box)
    )
    table = lambda_r_table(top, params.R)
    denom = (W * params.log_R / params.phi_W) ** system.m

    def products(x):
        prod = np.ones(x.shape[1])
        for i in range(system.m):
            lam = table[W * (mat[i] @ x) + W * consts[i] + 1]
            prod *= lam * lam
        return prod

    if mode == "exact":
        xs = np.arange(box[0][0], box[0][1] + 1, dtype=np.int64)[None, :]
        return float(products(xs).mean()) / denom, 0.0

    lows, highs = np.array(box).T

    def draw(rng, count):
        return products(rng.integers(lows, highs + 1, size=(count, len(box))).T)

    est = mc_mean(draw, samples, seed, "gy_moment", _MC_CHUNK)
    return est.value / denom, est.std_error / denom


class TestProgressionRouteMatchesTable:
    """gy_moment_check and gy2_correlation_check evaluate divisor sums on the
    progression only; they must reproduce the full-table route bit for bit."""

    @pytest.mark.parametrize("w, coeff, const", [(2, 1, 0), (3, 2, 3), (5, 3, -7)])
    def test_exact_one_variable(self, w, coeff, const):
        params = MajorantParams(k=3, N=1009, w=w, R_exponent=0.5, epsilon_k=0.25)
        lo, hi = params.window
        system = LinearFormSystem.from_rows([(coeff,)], constants=[const])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = gy_moment_check(params, system, [(lo, hi)])
        assert (est.value, est.std_error) == _table_moment(params, system, [(lo, hi)], "exact")

    @pytest.mark.parametrize(
        "rows, constants, box",
        [
            ([(1,)], [0], [(252, 504)]),
            ([(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)], None, [(252, 504), (0, 40), (0, 40)]),
            ([(2, -1), (1, 1)], [1, -4], [(100, 200), (0, 50)]),
        ],
    )
    def test_monte_carlo(self, rows, constants, box):
        params = MajorantParams(k=3, N=1009, w=3, R_exponent=0.5, epsilon_k=0.25)
        system = LinearFormSystem.from_rows(rows, constants)
        samples = 2 * _MC_CHUNK + 1000
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = gy_moment_check(
                params, system, box, mode="monte_carlo", samples=samples, seed=5
            )
        want = _table_moment(params, system, box, "monte_carlo", samples, 5)
        assert (est.value, est.std_error) == want

    @pytest.mark.parametrize(
        "w, shifts", [(3, [-30, 0, 7]), (2, [-5, 1, 1009**2 - 3])]
    )
    def test_shifted(self, w, shifts):
        params = MajorantParams(k=3, N=1009, w=w, R_exponent=0.5, epsilon_k=0.25)
        lo, hi = params.window
        table = lambda_r_table(params.W * (hi + max(shifts)) + 1, params.R)
        xs = np.arange(lo, hi + 1)
        prod = np.ones(xs.size)
        for h in shifts:
            lam = table[params.W * (xs + h) + 1]
            prod *= lam * lam
        denom = (params.W * params.log_R / params.phi_W) ** len(shifts)
        est = gy2_correlation_check(params, shifts, (lo, hi), a_tau=0.0)
        assert est.value == float(prod.mean()) / denom
        assert est.samples == xs.size


@pytest.mark.parametrize("shifts", [[0], [0, 2, 6]])
def test_window_weight_holds_only_its_table(shifts):
    # each form's divisor sums are sieved into the table and squared there,
    # with no array of the window beside it
    params = MajorantParams(k=3, N=999983, w=2, R_exponent=0.3333, epsilon_k=0.25)
    lo, hi = params.window
    tracemalloc.start()
    try:
        _window_weight(params, LinearFormSystem.shifted(shifts), [(lo, hi)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(shifts) * (hi - lo + 1) + 2**19


class TestSamplersMatchOldFormulas:
    """The samplers' estimates and std errors, bit for bit, against the draws
    as first written (a matmul and a full % N per form), each chunk's points
    from one rng.integers call, and the two-pass engine."""

    @pytest.mark.parametrize("N, system", [
        (101, LinearFormSystem.cube(2)),
        (10007, LinearFormSystem.progression(4)),
        (10007, LinearFormSystem.from_rows([("1/2", 1), (1, 3), (1, "-1/3")], [0, 5, -2])),
    ])
    def test_linear_forms(self, N, system):
        nu = bernoulli_measure(N, seed=4)
        mat, consts = system.residue_matrix(N)

        def draw(rng, count):
            x = rng.integers(0, N, size=(count, system.t)).T
            prod = np.ones(count)
            for i in range(system.m):
                prod *= nu.values[(mat[i] @ x + consts[i]) % N]
            return prod

        samples = 2 * _MC_CHUNK + 1001
        got = verify_linear_forms(nu, system, mode="monte_carlo", samples=samples, seed=3)
        want = two_pass_mc_mean(draw, samples, 3, "linforms", _MC_CHUNK)
        assert (got.estimate.value, got.estimate.std_error) == want

    def test_window_moment(self):
        params = MajorantParams(k=3, N=1009, w=3, R_exponent=0.5, epsilon_k=0.25)
        system = LinearFormSystem.from_rows([(2, -1), (1, 1), (1, 0)], [1, -4, 0])
        box = [(100, 200), (0, 50)]
        mat, consts = system.integer_matrix()
        W = params.W
        lams, k_min = [], []
        for row, c in zip(mat.tolist(), consts.tolist()):
            k_lo = sum(a * (lo if a > 0 else hi) for a, (lo, hi) in zip(row, box))
            k_hi = sum(a * (hi if a > 0 else lo) for a, (lo, hi) in zip(row, box))
            lams.append(divisor_sums_on_progression(W, W * c + 1, k_lo, k_hi, params.R))
            k_min.append(k_lo)

        lows, highs = np.array(box).T

        def draw(rng, count):
            x = rng.integers(lows, highs + 1, size=(count, len(box))).T
            prod = np.ones(count)
            for i in range(system.m):
                lam = lams[i][mat[i] @ x - k_min[i]]
                prod *= lam * lam
            return prod

        samples = 2 * _MC_CHUNK + 5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = gy_moment_check(params, system, box, mode="monte_carlo",
                                  samples=samples, seed=8)
        value, std_error = two_pass_mc_mean(draw, samples, 8, "gy_moment", _MC_CHUNK)
        denom = (W * params.log_R / params.phi_W) ** system.m
        assert (got.value, got.std_error) == (value / denom, std_error / denom)


class TestEmptyBoxes:
    def test_moment_check_refuses_empty_box(self):
        params = MajorantParams(k=3, N=1009, w=2, R_exponent=0.3, epsilon_k=0.25)
        system = LinearFormSystem.from_rows([(1, 0), (1, 1)])
        for mode in ("exact", "monte_carlo"):
            with pytest.raises(ValueError, match=r"\[10, 5\] is empty"):
                gy_moment_check(params, system, [(0, 9), (10, 5)], mode=mode)

    def test_shifted_check_refuses_empty_box(self):
        params = MajorantParams(k=3, N=1009, w=2, R_exponent=0.3, epsilon_k=0.25)
        with pytest.raises(ValueError, match=r"\[10, 5\] is empty"):
            gy2_correlation_check(params, [0, 2], (10, 5))

    def test_shifted_check_refuses_fractional_shifts(self):
        # truncation would run the shift 2.5 as 2
        params = MajorantParams(k=3, N=1009, w=2, R_exponent=0.3, epsilon_k=0.25)
        with pytest.raises(TypeError):
            gy2_correlation_check(params, [0, 2.5], (10, 50))
        with pytest.raises(TypeError):
            verify_correlation(GridFunction.constant(CyclicGroup(101), 1.0), 2, [(0, 2.5)])

    def test_shifted_check_refuses_nonpositive_values(self):
        params = MajorantParams(k=3, N=1009, w=2, R_exponent=0.3, epsilon_k=0.25)
        with pytest.raises(OverflowError):
            gy2_correlation_check(params, [-20, 0], (10, 50))


class TestShiftedWindowMoments:
    def test_m1_reduces_to_moment_check(self):
        params = MajorantParams(k=3, N=10007, w=2, R_exponent=0.25, epsilon_k=0.25)
        lo, hi = params.window
        system = LinearFormSystem.from_rows([(1,)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = gy2_correlation_check(params, [0], (lo, hi))
            b = gy_moment_check(params, system, [(lo, hi)])
        assert a.value == pytest.approx(b.value, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        shifts=st.lists(st.integers(-2000, 2000), min_size=1, max_size=4, unique=True),
        a_tau=st.one_of(st.none(), st.floats(0.0, 8.0)),
        w=st.sampled_from([2, 3]),
    )
    def test_matches_factored_delta_route(self, shifts, a_tau, w):
        # the bound's primes are read off Delta = prod_{i<j} |h_i - h_j| itself
        params = MajorantParams(k=3, N=1009, w=w, R_exponent=0.5, epsilon_k=0.25)
        lo, hi = 2001, 2100  # W (x + h) + 1 >= 1 for every shift
        table = lambda_r_table(params.W * (hi + max(shifts)) + 1, params.R)
        xs = np.arange(lo, hi + 1)
        prod = np.ones(xs.size)
        for h in shifts:
            lam = table[params.W * (xs + h) + 1]
            prod *= lam * lam
        delta = math.prod(abs(a - b) for a, b in itertools.combinations(shifts, 2))
        exponent = 2.0 * len(shifts) if a_tau is None else a_tau
        factor = 1.0
        p = 2
        while delta > 1:
            if delta % p == 0:
                factor *= (1.0 + p**-0.5) ** exponent
                while delta % p == 0:
                    delta //= p
            p += 1
        denom = (params.W * params.log_R / params.phi_W) ** len(shifts) * factor
        est = gy2_correlation_check(params, shifts, (lo, hi), a_tau=a_tau)
        assert est.value == float(prod.mean()) / denom

    def test_large_prime_differences_finish(self):
        # Delta is about 6e33 here; its primes come from the three differences
        params = MajorantParams(k=3, N=999983, w=2, R_exponent=0.3333, epsilon_k=0.25)
        lo = params.window[0]
        shifts = [0, 100000000003, 300000000044]
        est = gy2_correlation_check(params, shifts, (lo, lo + 99))
        assert est.samples == 100
        assert 0.0 < est.value < math.inf

    def test_adjacent_shift_ratio_is_controlled(self):
        params = MajorantParams(k=3, N=999983, w=2, R_exponent=1 / 3, epsilon_k=0.25)
        lo, hi = params.window
        est = gy2_correlation_check(params, [0, 1], (lo, hi))
        assert est.value <= 1.2

    def test_rejects_duplicates(self):
        params = MajorantParams(k=3, N=1009, w=2, R_exponent=0.3, epsilon_k=0.25)
        with pytest.raises(ValueError):
            gy2_correlation_check(params, [3, 3], (10, 50))


class TestBernoulliMeasure:
    def test_two_point_support(self):
        nu = bernoulli_measure(10007, seed=1)
        assert set(np.unique(nu.values)) <= {0.0, math.log(10007)}

    def test_mean_concentrates(self):
        n = 10**4 + 7
        bound = 5 * math.sqrt(math.log(n) / n)
        for seed in range(20):
            nu = bernoulli_measure(n, seed=seed)
            assert abs(nu.values.mean() - 1.0) <= bound

    def test_reproducible(self):
        a = bernoulli_measure(997, seed=9)
        b = bernoulli_measure(997, seed=9)
        assert np.array_equal(a.values, b.values)


class TestStructuredCorrelations:
    def test_u2_distance_to_constant_shrinks_with_n(self):
        values = []
        for n in (10007, 100003, 1000003):
            params = MajorantParams(k=3, N=n, w=2, R_exponent=1 / 8, epsilon_k=0.25)
            nu = build_majorant(params)
            values.append(gowers_norm_u2_fourier(nu - 1.0).norm_value)
        assert values[0] > values[1] > values[2]

    def test_polynomial_dual_correlation_is_small(self):
        params = MajorantParams(k=3, N=100003, w=2, R_exponent=1 / 8, epsilon_k=0.25)
        nu = build_majorant(params)
        rng = np.random.default_rng(3)
        duals = []
        for _ in range(2):
            F = GridFunction(
                nu.group, rng.uniform(-1, 1, size=nu.group.modulus) * (nu.values + 1)
            )
            duals.append(dual_function_u2_fourier(F))
        poly = {(0, 0): 0.3, (1, 0): 1.0, (0, 2): -0.5, (2, 1): 0.25, (3, 0): 0.1}
        value = antiuniform_correlation(nu, duals, poly)
        # trivial bound: E|nu - 1| times the sup of the polynomial evaluated
        psi_sup = 0.0
        for (e1, e2), c in poly.items():
            psi_sup += abs(c) * 8.2**e1 * 8.2**e2
        trivial = np.abs(nu.values - 1).mean() * psi_sup
        assert abs(value) < 0.05 * trivial

    def test_polynomial_correlation_deterministic(self):
        nu = bernoulli_measure(997, seed=4)
        F = GridFunction(nu.group, nu.values - 1.0)
        duals = [dual_function_u2_fourier(F)]
        poly = {(2,): 1.0}
        assert antiuniform_correlation(nu, duals, poly) == antiuniform_correlation(
            nu, duals, poly
        )
