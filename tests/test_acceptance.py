"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with -s or look at captured output).

Criterion 6 is expected to fail at its pinned parameters: with
R = N^(1/20) < 3 the truncated divisor sum is identically log R on the
W-tricked progression, so the window ratio sits at (phi(W)/W) log R, about
0.35 at N = 10^6, regardless of window choice.  The assertion is kept as
stated rather than loosened; see the repository README for the analysis and
for the theta regime where the ratio honestly lands near 1.
"""

import itertools
import math

import numpy as np
import pytest

from znkit import (
    CyclicGroup,
    DecompositionConfig,
    GridFunction,
    LinearFormSystem,
    MajorantParams,
    SigmaAlgebra,
    bernoulli_measure,
    build_majorant,
    conditional_expectation,
    count_prime_aps,
    dual_function,
    dual_function_u2_fourier,
    gowers_inner,
    gowers_norm,
    gowers_norm_u2_fourier,
    gy_moment_check,
    inner_product,
    is_prime_64,
    kvn_decompose,
    lq_norm,
    local_factor_omega,
    verify_linear_forms,
    CubeFamily,
)
from conftest import enumerated_dual, enumerated_norm, random_function, random_partition
from test_arith import divisor_sum_oracle, lambda_r_table
from test_transference import brute_count_aps

BIG_BUDGET = 2 * 10**10


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def test_criterion_01_dual_identity_suite():
    rng = np.random.default_rng(101)
    worst = 0.0
    checked = 0
    for n, k, nu_kind in itertools.product((31, 101), (3, 4), ("constant", "bernoulli")):
        group = CyclicGroup(n)
        if nu_kind == "constant":
            envelope = np.full(n, 2.0)
        else:
            envelope = bernoulli_measure(n, seed=n + k).values + 1.0
        d = k - 1
        for _ in range(13):
            F = GridFunction(group, rng.uniform(-1, 1, size=n) * envelope)
            lhs = inner_product(F, dual_function(F, d, budget=BIG_BUDGET))
            rhs = gowers_norm(F, d, budget=BIG_BUDGET).raised_value
            err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)
            worst = max(worst, err)
            checked += 1
    ok = checked >= 100 and worst <= 1e-9
    _report(1, ok, f"{checked} pairings, worst relative error {worst:.2e}")


def test_criterion_02_u2_fourier_identity():
    rng = np.random.default_rng(102)
    worst_norm = 0.0
    worst_dual = 0.0
    for n in (101, 1009):
        group = CyclicGroup(n)
        for _ in range(50):
            f = random_function(group, rng)
            enum = enumerated_norm(f, 2) ** 0.25
            four = gowers_norm_u2_fourier(f).norm_value
            worst_norm = max(worst_norm, abs(enum - four) / max(enum, four))
            df_enum = enumerated_dual(f, 2)
            df_four = dual_function_u2_fourier(f).values
            scale = max(1.0, float(np.abs(df_enum).max()))
            worst_dual = max(worst_dual, float(np.abs(df_enum - df_four).max()) / scale)
    ok = worst_norm <= 1e-9 and worst_dual <= 1e-9
    _report(2, ok, f"norm err {worst_norm:.2e}, dual err {worst_dual:.2e} over 100 f")


def test_criterion_03_inequality_suite():
    rng = np.random.default_rng(103)
    violations = 0
    cases = 0

    def norm(f, d):
        return gowers_norm(f, d, budget=BIG_BUDGET).norm_value

    # multilinear Cauchy-Schwarz over cubes
    for _ in range(250):
        d = 2 if rng.random() < 0.6 else 3
        n = int(rng.integers(7, 102)) if d == 2 else int(rng.integers(7, 42))
        g = CyclicGroup(n)
        funcs = {
            om: random_function(g, rng)
            for om in itertools.product((0, 1), repeat=d)
        }
        lhs = abs(gowers_inner(CubeFamily(d, funcs), budget=BIG_BUDGET))
        rhs = math.prod(norm(f, d) for f in funcs.values())
        cases += 1
        violations += lhs > rhs + 1e-10
    # triangle inequality
    for _ in range(250):
        d = 2 if rng.random() < 0.6 else 3
        n = int(rng.integers(7, 102))
        g = CyclicGroup(n)
        f, h = random_function(g, rng), random_function(g, rng)
        cases += 1
        violations += norm(f + h, d) > norm(f, d) + norm(h, d) + 1e-10
    # monotonicity in dimension
    for _ in range(250):
        d = 2 if rng.random() < 0.6 else 3
        n = int(rng.integers(7, 102))
        f = random_function(CyclicGroup(n), rng)
        cases += 1
        violations += norm(f, d - 1) > norm(f, d) + 1e-10
    # positivity of the diagonal cube average
    for _ in range(250):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(7, 102))
        f = random_function(CyclicGroup(n), rng)
        cases += 1
        violations += gowers_norm(f, d, budget=BIG_BUDGET).raised_value < -1e-10
    ok = cases == 1000 and violations == 0
    _report(3, ok, f"{cases} random cases, {violations} violations")


def test_criterion_04_truncated_divisor_sums(sieve_1e6):
    R = 1000.0
    table = lambda_r_table(10**6, R)
    oracle_worst = max(
        abs(table[n] - divisor_sum_oracle(n, R)) for n in range(1, 10**4 + 1)
    )
    collapse_worst = 0.0
    for n in range(2, 1001):
        collapse_worst = max(
            collapse_worst, abs(table[n] - sieve_1e6.von_mangoldt[n])
        )
    primes = sieve_1e6.primes[sieve_1e6.primes > R]
    prime_worst = float(np.abs(table[primes] - math.log(R)).max())
    ok = oracle_worst <= 1e-9 and collapse_worst <= 1e-9 and prime_worst <= 1e-9
    _report(
        4,
        ok,
        f"oracle err {oracle_worst:.1e}, collapse err {collapse_worst:.1e}, "
        f"tail-prime err {prime_worst:.1e}",
    )


def test_criterion_05_majorant_mean():
    n = 999983  # largest prime below 10^6
    deviations = []
    for w in (2, 3):
        params = MajorantParams(k=3, N=n, w=w, R_exponent=1 / 20)
        nu = build_majorant(params)
        deviations.append(abs(float(nu.values.mean()) - 1.0))
    ok = all(dev <= 0.2 for dev in deviations)
    _report(5, ok, f"|mean - 1| = {deviations[0]:.2e} (w=2), {deviations[1]:.2e} (w=3)")


def test_criterion_06_window_moment_ratio():
    system = LinearFormSystem.from_rows([(1,)])
    ratios = {}
    for n in (99991, 999983):
        params = MajorantParams(k=3, N=n, w=2, R_exponent=1 / 20)
        lo, hi = params.window
        with pytest.warns(UserWarning):
            ratios[n] = gy_moment_check(params, system, [(lo, hi)]).value
    moving = abs(ratios[999983] - 1.0) < abs(ratios[99991] - 1.0)
    in_band = 0.85 <= ratios[999983] <= 1.15
    ok = moving and in_band
    _report(
        6,
        ok,
        f"ratio {ratios[99991]:.4f} (N=1e5) -> {ratios[999983]:.4f} (N=1e6), "
        f"toward 1: {moving}, within [0.85, 1.15]: {in_band}",
    )


def test_criterion_07_linear_forms_spot_check():
    system = LinearFormSystem.cube(2)
    params = MajorantParams(k=3, N=10007, w=2, R_exponent=1 / 12)
    nu = build_majorant(params)
    mc_big = verify_linear_forms(
        nu, system, mode="monte_carlo", samples=10**7, seed=7
    )
    spot_ok = mc_big.deviation <= 0.25

    agree_ok = True
    sigmas = []
    for measure in (
        GridFunction.constant(CyclicGroup(101), 1.0),
        bernoulli_measure(101, seed=3),
    ):
        exact = verify_linear_forms(measure, system, mode="exact")
        mc = verify_linear_forms(
            measure, system, mode="monte_carlo", samples=500_000, seed=11
        )
        gap = abs(mc.estimate.value - exact.estimate.value)
        sigmas.append(gap / mc.estimate.std_error if mc.estimate.std_error else 0.0)
        agree_ok &= gap <= 4 * mc.estimate.std_error + 1e-12
    ok = spot_ok and agree_ok
    _report(
        7,
        ok,
        f"majorant estimate {mc_big.estimate.value:.4f} +- {mc_big.estimate.std_error:.4f}, "
        f"exact-vs-MC gaps {sigmas[0]:.2f} and {sigmas[1]:.2f} sigma",
    )


def _random_admissible_system(rng) -> LinearFormSystem:
    # numerators up to 3, denominators up to 3: cleared coefficients stay
    # below 19 in absolute value, so they never vanish mod 7, 11 or 13
    nums = (-3, -2, -1, 1, 2, 3)
    t = int(rng.integers(2, 4))
    m = int(rng.integers(2, 5))
    rows: list[tuple] = []
    guard = 0
    while len(rows) < m:
        guard += 1
        if guard > 200:
            rows = []
            guard = 0
        cand = tuple(
            f"{int(rng.choice(nums))}/{int(rng.integers(1, 4))}" for _ in range(t)
        )
        try:
            LinearFormSystem.from_rows(rows + [cand])
        except ValueError:
            continue
        rows.append(cand)
    constants = [int(c) for c in rng.integers(0, 50, size=m)]
    return LinearFormSystem.from_rows(rows, constants)


def test_criterion_08_local_factors():
    from fractions import Fraction

    rng = np.random.default_rng(108)
    W = 6
    failures = 0
    for _ in range(50):
        system = _random_admissible_system(rng)
        for p in (7, 11, 13):
            if local_factor_omega(system, W, p, []) != Fraction(1):
                failures += 1
            for i in range(system.m):
                if local_factor_omega(system, W, p, [i]) != Fraction(1, p):
                    failures += 1
            pair = [0, 1]
            if local_factor_omega(system, W, p, pair) > Fraction(1, p * p):
                failures += 1
        for p in (2, 3):  # p divides W: every nonempty set vanishes
            if local_factor_omega(system, W, p, [0]) != Fraction(0):
                failures += 1
    # shifted systems: zero unless p divides the difference product
    shifted_cases = (
        ([0, 7], 7, Fraction(1, 7)),
        ([0, 7], 11, Fraction(0)),
        ([2, 15], 13, Fraction(1, 13)),
        ([1, 4, 6], 5, Fraction(0)),
    )
    for h, p, expect in shifted_cases:
        system = LinearFormSystem.shifted(h)
        if local_factor_omega(system, W, p, list(range(len(h)))) != expect:
            failures += 1
    _report(8, failures == 0, f"50 random systems at p in (7, 11, 13); {failures} mismatches")


def test_criterion_09_decomposition():
    checks = []

    def run_case(f, nu, eps):
        config = DecompositionConfig(k=3, epsilon=eps)
        res = kvn_decompose(f, nu, config)
        cap = math.ceil(2**8 / eps) + 2
        checks.append(res.terminated_successfully)
        checks.append(res.iterations <= cap)
        est = res.final_uniformity
        checks.append(est.upper_norm(2.0) <= eps ** (1 / 8))
        gains = np.diff(res.energy_trace)
        stderr_pad = 10 * est.std_error
        checks.append(bool(np.all(gains >= 2**-7 * eps - stderr_pad - 1e-9)))
        checks.append(float(res.f_antiuniform.values.max()) <= 2.0)
        return res

    g = CyclicGroup(101)
    ones = GridFunction.constant(g, 1.0)
    rng = np.random.default_rng(109)
    dense = GridFunction(g, (rng.random(101) < 0.5).astype(float))
    nu_b = bernoulli_measure(10007, seed=9)
    masked = GridFunction(
        nu_b.group,
        np.where(np.random.default_rng(110).random(10007) < 0.5, nu_b.values, 0.0),
    )
    iters = []
    for eps in (0.01, 0.05):
        iters.append(run_case(dense, ones, eps).iterations)
        iters.append(run_case(masked, nu_b, eps).iterations)
    ok = all(checks)
    _report(9, ok, f"4 runs, iterations {iters}, {sum(checks)}/{len(checks)} subchecks")


def test_criterion_10_prime_progression_facts():
    small_ok = count_prime_aps(3, 15) == 2 == brute_count_aps(3, 15)
    rec23 = all(
        is_prime_64(56211383760397 + 44546738095860 * j) for j in range(23)
    )
    rec22 = all(
        is_prime_64(11410337850553 + 4609098694200 * j) for j in range(22)
    )
    norm_counts = {}
    for limit in (10**5, 10**6):
        count = count_prime_aps(3, limit)
        norm_counts[limit] = count * math.log(limit) ** 3 / limit**2
    ratio = norm_counts[10**5] / norm_counts[10**6]
    stable = 0.5 < ratio < 2.0
    ok = small_ok and rec23 and rec22 and stable
    _report(
        10,
        ok,
        f"count(3,15)={count_prime_aps(3, 15)}, records prime: {rec23 and rec22}, "
        f"normalized-count ratio {ratio:.3f}",
    )


def test_criterion_11_conditional_expectation_suite():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(8, 257))
        g = CyclicGroup(n)
        f = random_function(g, rng, scale=2.0)
        coarse = random_partition(g, rng, int(rng.integers(2, 6)))
        fine = SigmaAlgebra.from_labels(
            g, coarse.atom_label * 7 + rng.integers(0, 3, size=n)
        )
        proj = conditional_expectation(f, fine)
        worst = max(
            worst,
            float(np.abs(conditional_expectation(proj, fine).values - proj.values).max()),
        )
        worst = max(
            worst,
            float(
                np.abs(
                    conditional_expectation(proj, coarse).values
                    - conditional_expectation(f, coarse).values
                ).max()
            ),
        )
        for q in (1, 2, 4, math.inf):
            worst = max(worst, lq_norm(proj, q) - lq_norm(f, q))
        const = GridFunction.constant(g, 1.5)
        worst = max(
            worst,
            float(np.abs(conditional_expectation(const, fine).values - 1.5).max()),
        )
    ok = worst <= 1e-12
    _report(11, ok, f"200 pairs, worst defect {worst:.2e}")
