import math

import numpy as np
import pytest

from znkit import (
    CyclicGroup,
    DecompositionConfig,
    GridFunction,
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


def brute_count_aps(k, limit):
    t = build_sieve(limit)
    flags = np.zeros(limit + 1, dtype=bool)
    flags[t.primes] = True
    count = 0
    for p in t.primes.tolist():
        d = 1
        while p + (k - 1) * d <= limit:
            if all(flags[p + j * d] for j in range(1, k)):
                count += 1
            d += 1
    return count


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

    def test_cross_oracle_with_integer_progressions(self):
        # wraparound-free regime: N > 2 * limit makes residue progressions
        # correspond to integer ones (each counted once per direction),
        # plus the r = 0 diagonal
        limit, n = 50, 101
        t = build_sieve(limit)
        g = CyclicGroup(n)
        ind = GridFunction.indicator(g, t.primes.tolist())
        total = ap_expectation([ind] * 3, [0, 1, 2]) * n * n
        want = 2 * brute_count_aps(3, limit) + t.prime_count()
        assert total == pytest.approx(want, abs=1e-9)

    def test_requires_distinct_coefficients(self):
        g = CyclicGroup(11)
        one = GridFunction.constant(g, 1.0)
        with pytest.raises(ValueError):
            ap_expectation([one, one], [1, 1])


class TestCountPrimeAps:
    def test_known_small_value(self):
        assert count_prime_aps(3, 15) == 2  # (3,5,7) and (3,7,11)

    def test_pair_count_closed_form(self):
        assert count_prime_aps(2, 5) == 3

    def test_fft_route_matches_brute_force(self):
        for limit in (20, 100, 500, 2000):
            assert count_prime_aps(3, limit) == brute_count_aps(3, limit)

    def test_scan_route_matches_brute_force(self):
        for limit in (30, 200):
            assert count_prime_aps(4, limit) == brute_count_aps(4, limit)

    def test_record_23_term_progression(self):
        a, d = 56211383760397, 44546738095860
        assert all(is_prime_64(a + d * j) for j in range(23))

    def test_record_22_term_progression(self):
        a, d = 11410337850553, 4609098694200
        assert all(is_prime_64(a + d * j) for j in range(22))

    def test_budget_gate_on_scans(self):
        with pytest.raises(Exception, match="budget"):
            count_prime_aps(5, 10**6, budget=10**6)


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

        masses = [boundary_mass(j / grid) for j in range(grid)]
        assert boundary_mass(alpha) <= min(masses) + 1e-12
        assert boundary_mass(alpha) <= sum(masses) / grid + 1e-12

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

    def test_deterministic(self):
        g = CyclicGroup(101)
        nu = GridFunction.constant(g, 1.0)
        a = gvn_check(nu, k=3, trials=5, seed=4)
        b = gvn_check(nu, k=3, trials=5, seed=4)
        assert a.pairs == b.pairs
