import itertools
import math
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
    halfway,
    lambda_r_table,
    local_factor_omega,
    tau_weight,
    verify_correlation,
    verify_linear_forms,
)
from znkit.core import mc_mean
from znkit.pseudo import (
    _MC_CHUNK,
    antiuniform_correlation,
    pairwise_difference_product,
    pseudorandom_condition_parameters,
)


class TestHalfway:
    def test_constant_fixed_point(self):
        nu = GridFunction.constant(CyclicGroup(5), 1.0)
        assert np.all(halfway(nu).values == 1.0)

    def test_values(self):
        nu = GridFunction.from_values(CyclicGroup(2), [0.0, 2.0])
        assert halfway(nu).values.tolist() == [0.5, 1.5]

    def test_mean_is_affine(self):
        nu = bernoulli_measure(997, seed=0)
        assert halfway(nu).values.mean() == pytest.approx(
            (nu.values.mean() + 1) / 2, abs=1e-12
        )

    def test_rejects_negative(self):
        bad = GridFunction.from_values(CyclicGroup(2), [-0.1, 1.0])
        with pytest.raises(ValueError):
            halfway(bad)


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

    def test_rejects_zero_row(self):
        with pytest.raises(ValueError, match="zero"):
            LinearFormSystem.from_rows([(1, 1), (0, 0)])

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


class TestWindowMoments:
    def test_synthetic_constant_table(self):
        # replacing the divisor sums by the constant log R turns the ratio
        # into the closed form (phi(W) log R / W)^m
        params = MajorantParams(k=3, N=10007, w=2, R_exponent=0.25, epsilon_k=0.25)
        lo, hi = params.window
        table = np.full(params.W * hi + 2, params.log_R)
        system = LinearFormSystem.from_rows([(1,)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = gy_moment_check(params, system, [(lo, hi)], lambda_table=table)
        want = params.phi_W / params.W * params.log_R
        assert est.value == pytest.approx(want, rel=1e-12)

    def test_exact_agrees_with_manual_mean(self):
        params = MajorantParams(k=3, N=1009, w=2, R_exponent=0.3, epsilon_k=0.25)
        lo, hi = params.window
        system = LinearFormSystem.from_rows([(1,)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = gy_moment_check(params, system, [(lo, hi)])
        from znkit import lambda_r_table

        table = lambda_r_table(params.W * hi + 1, params.R)
        vals = table[params.W * np.arange(lo, hi + 1) + 1] ** 2
        want = vals.mean() / (params.W * params.log_R / params.phi_W)
        assert est.value == pytest.approx(want, rel=1e-12)

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
    the value W psi_i(x) + 1.  Monte Carlo goes through the same sampling
    engine as gy_moment_check: the subject here is the divisor-sum route."""
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

    def draw(rng, count):
        return products(np.stack([rng.integers(lo, hi + 1, size=count) for lo, hi in box]))

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

    def test_difference_product(self):
        assert pairwise_difference_product([1, 4, 6]) == 30
        assert pairwise_difference_product([0, 7]) == 7

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


class TestConditionParameters:
    def test_values_for_k3(self):
        params = pseudorandom_condition_parameters(3)
        assert params == {"m0": 12, "t0": 5, "L0": 3, "correlation_m0": 4}


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
