import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from znkit import (
    BudgetExceededError,
    CubeFamily,
    CyclicGroup,
    GridFunction,
    GroupMismatchError,
    bernoulli_measure,
    build_majorant,
    MajorantParams,
    dual_function,
    dual_function_u2_fourier,
    gowers_inner,
    gowers_norm,
    gowers_norm_mc,
    gowers_norm_u2_fourier,
    inner_product,
    substream,
)
from znkit.core import _smooth_length
import znkit.gowers
from znkit.gowers import _MC_CHUNK
from conftest import (enumerated_cube_average, enumerated_dual, enumerated_norm,
                      random_function, two_pass_mc_mean)


def brute_cube_average(funcs, d, n):
    """Literal enumeration of the defining sum; the independent oracle."""
    total = 0.0
    for x in range(n):
        for h in itertools.product(range(n), repeat=d):
            prod = 1.0
            for om in itertools.product((0, 1), repeat=d):
                shift = sum(o * hh for o, hh in zip(om, h))
                prod *= funcs[om].values[(x + shift) % n]
            total += prod
    return total / n ** (d + 1)


def brute_dual(F, d, n):
    out = np.zeros(n)
    for x in range(n):
        total = 0.0
        for h in itertools.product(range(n), repeat=d):
            prod = 1.0
            for om in itertools.product((0, 1), repeat=d):
                if not any(om):
                    continue
                shift = sum(o * hh for o, hh in zip(om, h))
                prod *= F.values[(x + shift) % n]
            total += prod
        out[x] = total / n**d
    return out


class TestCubeAverage:
    def test_all_ones(self):
        g = CyclicGroup(11)
        fam = CubeFamily.constant(GridFunction.constant(g, 1.0), 2)
        assert gowers_inner(fam) == pytest.approx(1.0, abs=1e-14)

    def test_single_point_mass_vertex(self):
        n = 11
        g = CyclicGroup(n)
        funcs = {om: GridFunction.constant(g, 1.0) for om in itertools.product((0, 1), repeat=2)}
        funcs[(0, 0)] = GridFunction.indicator(g, [0])
        assert gowers_inner(CubeFamily(2, funcs)) == pytest.approx(1 / n, abs=1e-14)

    def test_last_digit_independent_family_is_square_average(self):
        # vertices ignore omega_2: the average collapses to a mean of squares
        rng = np.random.default_rng(10)
        n = 9
        g = CyclicGroup(n)
        f0, f1 = random_function(g, rng), random_function(g, rng)
        funcs = {
            (0, 0): f0, (0, 1): f0,
            (1, 0): f1, (1, 1): f1,
        }
        val = gowers_inner(CubeFamily(2, funcs))
        sq = 0.0
        for h1 in range(n):
            inner = np.mean(f0.values * np.roll(f1.values, -h1))
            sq += inner * inner
        assert val == pytest.approx(sq / n, abs=1e-13)
        assert val >= 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for d, n in ((1, 13), (2, 9), (3, 6), (4, 5)):
            g = CyclicGroup(n)
            funcs = {
                om: random_function(g, rng)
                for om in itertools.product((0, 1), repeat=d)
            }
            got = gowers_inner(CubeFamily(d, funcs))
            want = brute_cube_average(funcs, d, n)
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("d, n", [(2, 7), (3, 6), (4, 5)])
    @pytest.mark.parametrize(
        "layout", ["last_digit", "first_and_last", "half_shared", "one_odd_vertex"]
    )
    def test_partly_shared_vertices_match_brute_force(self, d, n, layout):
        # vertices holding the same GridFunction make vertex pairs coincide,
        # which the evaluation multiplies once; the average must not notice
        rng = np.random.default_rng(31)
        g = CyclicGroup(n)
        pool = {key: random_function(g, rng) for key in itertools.product((0, 1), repeat=2)}
        funcs = {}
        for om in itertools.product((0, 1), repeat=d):
            if layout == "last_digit":
                funcs[om] = pool[0, om[-1]]
            elif layout == "first_and_last":
                funcs[om] = pool[om[0], om[-1]]
            elif layout == "half_shared":
                funcs[om] = pool[0, 1] if om[-1] else pool[om[0], 0]
            else:
                funcs[om] = random_function(g, rng) if all(om) else pool[0, om[-1]]
        got = gowers_inner(CubeFamily(d, funcs))
        assert got == pytest.approx(brute_cube_average(funcs, d, n), abs=1e-12)

    def test_vertex_functions_on_two_groups_are_refused(self):
        funcs = {om: GridFunction.constant(CyclicGroup(11), 1.0)
                 for om in itertools.product((0, 1), repeat=2)}
        funcs[(1, 1)] = GridFunction.constant(CyclicGroup(13), 1.0)
        with pytest.raises(GroupMismatchError, match="share one group"):
            CubeFamily(2, funcs)

    def test_budget_refusal_names_the_sampler(self):
        g = CyclicGroup(101)
        fam = CubeFamily.constant(GridFunction.constant(g, 1.0), 3)
        with pytest.raises(BudgetExceededError, match="gowers_norm_mc"):
            gowers_inner(fam, budget=10**6)

    @pytest.mark.parametrize("d, n", [(1, 13), (2, 101), (3, 101), (4, 23)])
    def test_gate_is_the_nominal_cost_exactly(self, d, n):
        # 2N for d = 1, else 2^d N^(d-2) L ceil(log2 L) with L >= 2N - 1 5-smooth
        length = _smooth_length(2 * n - 1)
        cost = 2 * n if d == 1 else 2**d * n ** (d - 2) * length * math.ceil(math.log2(length))
        if (d, n) == (3, 101):
            assert cost == 1_396_224
        one = GridFunction.constant(CyclicGroup(n), 1.0)
        fam = CubeFamily.constant(one, d)
        assert gowers_norm(one, d, budget=cost).raised_value == pytest.approx(1.0)
        assert gowers_inner(fam, budget=cost) == pytest.approx(1.0)
        assert np.allclose(dual_function(one, d, budget=cost).values, 1.0)
        for call in (lambda: gowers_norm(one, d, budget=cost - 1),
                     lambda: gowers_inner(fam, budget=cost - 1),
                     lambda: dual_function(one, d, budget=cost - 1)):
            with pytest.raises(BudgetExceededError):
                call()


class TestDerivativeRecursion:
    """Blocks of shifts and batched rows, forced small, against the literal sums."""

    @pytest.mark.parametrize("cap", ["one", "three_rows", "default"])
    @pytest.mark.parametrize("d, n", [(3, 7), (4, 5)])
    def test_blocks_match_brute_force(self, monkeypatch, cap, d, n):
        sizes = {"one": 1, "three_rows": 3 * n, "default": znkit.gowers._BOX_LEAF}
        monkeypatch.setattr(znkit.gowers, "_BOX_LEAF", sizes[cap])
        rng = np.random.default_rng(40 + d)
        g = CyclicGroup(n)
        F = random_function(g, rng)
        funcs = {om: random_function(g, rng) for om in itertools.product((0, 1), repeat=d)}
        assert gowers_inner(CubeFamily(d, funcs)) == pytest.approx(
            brute_cube_average(funcs, d, n), abs=1e-12)
        fam = {om: F for om in funcs}
        assert gowers_norm(F, d).raised_value == pytest.approx(
            brute_cube_average(fam, d, n), abs=1e-12)
        assert np.allclose(dual_function(F, d).values, brute_dual(F, d, n), atol=1e-12)

    @pytest.mark.parametrize("d, n", [(3, 101), (3, 100), (4, 23), (4, 24)])
    def test_matches_enumeration(self, d, n):
        rng = np.random.default_rng(41)
        F = random_function(CyclicGroup(n), rng)
        want = enumerated_norm(F, d)
        assert abs(gowers_norm(F, d).raised_value - want) <= 1e-12 * want
        want_dual = enumerated_dual(F, d)
        got = dual_function(F, d).values
        assert np.abs(got - want_dual).max() <= 1e-12 * np.abs(want_dual).max()

    @pytest.mark.parametrize("cap", ["one", "three_rows", "default"])
    @pytest.mark.parametrize("d, n", [(3, 2), (3, 9), (3, 10), (4, 6), (4, 7)])
    def test_norm_takes_half_the_shifts(self, monkeypatch, cap, d, n):
        # Delta_(-h) F is a translate of Delta_h F: each level of the norm
        # runs 0 <= h <= N/2, weight 2 for 0 < h < N/2; an inner product whose
        # vertices differ, and the dual, keep all N shifts
        sizes = {"one": 1, "three_rows": 3 * n, "default": znkit.gowers._BOX_LEAF}
        monkeypatch.setattr(znkit.gowers, "_BOX_LEAF", sizes[cap])
        rows = []
        leaf = znkit.gowers._u2_leaf

        def counting_leaf(fs, pointwise):
            rows.append(fs[-1].shape[0])
            return leaf(fs, pointwise)

        monkeypatch.setattr(znkit.gowers, "_u2_leaf", counting_leaf)
        rng = np.random.default_rng(50 + n)
        F = random_function(CyclicGroup(n), rng)
        want = enumerated_norm(F, d)
        assert abs(gowers_norm(F, d).raised_value - want) <= 1e-12 * want
        half = n // 2 + 1
        assert sum(rows) == half ** (d - 2)
        rows.clear()
        assert gowers_inner(CubeFamily.constant(F, d)) == gowers_norm(F, d).raised_value
        rows.clear()
        funcs = {om: F for om in itertools.product((0, 1), repeat=d)}
        funcs[(1,) * d] = random_function(CyclicGroup(n), rng)
        assert gowers_inner(CubeFamily(d, funcs)) == pytest.approx(
            enumerated_cube_average([g.values for g in funcs.values()]), abs=1e-12)
        assert sum(rows) == n ** (d - 2)
        rows.clear()
        dual_function(F, d)
        assert sum(rows) == n ** (d - 2)

    @pytest.mark.parametrize("d, n", [(3, 101), (4, 23)])
    def test_results_do_not_depend_on_the_block(self, monkeypatch, d, n):
        # each level reduces its dense per-shift values once, so the block
        # size is a memory setting only: the floats agree bit for bit
        rng = np.random.default_rng(60 + d)
        g = CyclicGroup(n)
        F = random_function(g, rng)
        funcs = {om: random_function(g, rng) for om in itertools.product((0, 1), repeat=d)}
        runs = []
        for block in (1, 3 * n, znkit.gowers._BOX_LEAF):
            monkeypatch.setattr(znkit.gowers, "_BOX_LEAF", block)
            runs.append((gowers_norm(F, d).raised_value, dual_function(F, d).values,
                         gowers_inner(CubeFamily(d, funcs))))
        for norm, dual, inner in runs[1:]:
            assert norm == runs[0][0]
            assert np.array_equal(dual, runs[0][1])
            assert inner == runs[0][2]

    def test_u3_at_n2003_stays_within_the_block_cap(self):
        # one block of about 2^17 derivative floats (1 MiB) and the batched
        # transforms it feeds; a block of 2^20 floats fails both bounds
        n = 2003
        F = GridFunction(CyclicGroup(n), np.random.default_rng(42).uniform(-1, 1, n))
        peaks = []
        for run in (lambda: gowers_norm(F, 3), lambda: dual_function(F, 3)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 10 * 2**20
        assert peaks[1] < 15 * 2**20


class TestNorm:
    def test_constant_is_one(self):
        g = CyclicGroup(13)
        one = GridFunction.constant(g, 1.0)
        for d in (1, 2, 3):
            assert gowers_norm(one, d).norm_value == pytest.approx(1.0, abs=1e-13)

    def test_d1_is_absolute_mean(self):
        rng = np.random.default_rng(12)
        g = CyclicGroup(37)
        f = random_function(g, rng)
        assert gowers_norm(f, 1).norm_value == pytest.approx(
            abs(f.values.mean()), abs=1e-13
        )

    def test_point_mass_closed_form(self):
        n = 19
        f = GridFunction.indicator(CyclicGroup(n), [0])
        est = gowers_norm(f, 2)
        assert est.norm_value == pytest.approx(n ** (-0.75), abs=1e-13)
        assert est.raised_value == pytest.approx(n ** (-3.0), abs=1e-15)

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(13)
        for d, n in ((2, 8), (3, 6), (4, 5)):
            g = CyclicGroup(n)
            f = random_function(g, rng)
            fam = {om: f for om in itertools.product((0, 1), repeat=d)}
            assert gowers_norm(f, d).raised_value == pytest.approx(
                brute_cube_average(fam, d, n), abs=1e-12
            )

    def test_norm_equals_constant_family_average(self):
        rng = np.random.default_rng(14)
        g = CyclicGroup(21)
        f = random_function(g, rng)
        fam = CubeFamily.constant(f, 2)
        assert gowers_norm(f, 2).raised_value == pytest.approx(
            gowers_inner(fam), abs=1e-12
        )


class TestU2Fourier:
    def test_cosine_closed_form(self):
        n = 101
        x = np.arange(n)
        f = GridFunction(CyclicGroup(n), np.cos(2 * np.pi * x / n))
        est = gowers_norm_u2_fourier(f)
        assert est.norm_value == pytest.approx((1 / 8) ** 0.25, abs=1e-12)
        assert gowers_norm(f, 2).norm_value == pytest.approx((1 / 8) ** 0.25, abs=1e-10)

    def test_constant(self):
        f = GridFunction.constant(CyclicGroup(64), 1.0)
        assert gowers_norm_u2_fourier(f).norm_value == pytest.approx(1.0, abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(15)
        g = CyclicGroup(101)
        for _ in range(10):
            f = random_function(g, rng)
            a = enumerated_norm(f, 2) ** 0.25
            b = gowers_norm_u2_fourier(f).norm_value
            assert abs(a - b) <= 1e-9 * max(a, b)

    def test_exact_d2_is_the_fourier_leaf(self):
        # gowers_norm and dual_function at d = 2 run the same leaf, bit for bit
        rng = np.random.default_rng(43)
        for n in (2, 3, 101, 1009):
            f = random_function(CyclicGroup(n), rng)
            assert gowers_norm(f, 2).raised_value == gowers_norm_u2_fourier(f).raised_value
            assert np.array_equal(dual_function(f, 2).values,
                                  dual_function_u2_fourier(f).values)


def direct_u2(values):
    """O(N^2) double sums: c(h) = sum_x f(x) f(x + h), the norm and the dual.

    ||f||_{U^2}^4 = sum_h c(h)^2 / N^3 and DF(x) = N^-2 sum_h c(h) F(x + h),
    each sum written out over a table of shifts; no transform is involved.
    """
    n = values.size
    shifted = values[(np.arange(n)[:, None] + np.arange(n)) % n]  # [h, x] = f(x + h)
    c = shifted @ values
    return float(c @ c) / n**3, (shifted.T @ c) / n**2


def prime_length_fft_u2(values):
    """The length-N complex transform route: sum |fhat|^4 and coefficients |Fhat|^2 Fhat."""
    n = values.size
    fhat = np.fft.fft(values) / n
    raised = float(np.sum(np.abs(fhat) ** 4))
    dual = np.real(np.fft.ifft((np.abs(fhat) ** 2) * fhat * n))
    return raised, dual


class TestU2Correlation:
    """The padded real correlation against enumeration, direct sums and the length-N FFT."""

    def test_range_includes_lengths_with_no_fold_slack(self):
        # 2N - 1 is itself 5-smooth, so L = 2N - 1 and the two ranges touch
        tight = [n for n in range(2, 42) if _smooth_length(2 * n - 1) == 2 * n - 1]
        assert tight == [2, 3, 5, 8, 13, 14, 23, 38, 41]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=3, deadline=None)
    def test_every_n_to_300_matches_enumeration_and_direct_sums(self, seed):
        rng = np.random.default_rng(seed)
        for n in range(2, 301):
            f = GridFunction(CyclicGroup(n), rng.uniform(-1.0, 1.0, size=n))
            raised = gowers_norm_u2_fourier(f).raised_value
            dual = dual_function_u2_fourier(f).values
            direct_raised, direct_dual = direct_u2(f.values)
            for want in (enumerated_norm(f, 2), direct_raised):
                assert abs(raised - want) <= 1e-12 * want, n
            for want in (enumerated_dual(f, 2), direct_dual):
                assert np.abs(dual - want).max() <= 1e-12 * np.abs(want).max(), n

    def test_prime_100003_matches_the_length_n_transform(self):
        rng = np.random.default_rng(31)
        f = GridFunction(CyclicGroup(100003), rng.uniform(-1.0, 1.0, size=100003))
        want_raised, want_dual = prime_length_fft_u2(f.values)
        raised = gowers_norm_u2_fourier(f).raised_value
        dual = dual_function_u2_fourier(f).values
        assert abs(raised - want_raised) <= 1e-12 * want_raised
        assert np.abs(dual - want_dual).max() <= 1e-12 * np.abs(want_dual).max()


class TestMonteCarlo:
    def test_constant_has_zero_error(self):
        f = GridFunction.constant(CyclicGroup(53), 1.0)
        est = gowers_norm_mc(f, 2, samples=500, seed=1)
        assert est.raised_value == 1.0
        assert est.std_error == 0.0

    def test_tracks_exact_value(self):
        # degenerate variance case: nearly every sampled cube product is 0,
        # so allow a tiny absolute floor next to the 4-sigma band
        n = 101
        f = GridFunction.indicator(CyclicGroup(n), [0])
        exact = gowers_norm(f, 3).raised_value
        est = gowers_norm_mc(f, 3, samples=10**6, seed=2)
        assert abs(est.raised_value - exact) <= 4 * est.std_error + 1e-8

    def test_seed_replays_bit_identically(self):
        rng = np.random.default_rng(16)
        f = random_function(CyclicGroup(67), rng)
        a = gowers_norm_mc(f, 2, samples=5000, seed=9)
        b = gowers_norm_mc(f, 2, samples=5000, seed=9)
        assert a.raised_value == b.raised_value
        assert a.std_error == b.std_error

    def test_negative_raised_clamps_norm(self):
        rng = np.random.default_rng(17)
        f = random_function(CyclicGroup(67), rng)
        # odd function-ish: many sampled products negative; find a seed where
        # the sampled mean dips below zero to exercise the clamp
        for seed in range(40):
            est = gowers_norm_mc(f, 1, samples=100, seed=seed)
            if est.raised_value < 0:
                assert est.norm_value == 0.0
                break
        else:
            pytest.skip("no negative sample mean found")

    def test_std_error_matches_two_pass_on_tiny_spread(self):
        # products 1 + O(1e-8): a sum of squares minus n mean^2 cancels to 0
        n, samples, seed = 101, 300_000, 3
        vals = 1.0 + 1e-8 * np.random.default_rng(0).random(n)
        est = gowers_norm_mc(GridFunction(CyclicGroup(n), vals), 1, samples, seed)
        prods = []
        for i, start in enumerate(range(0, samples, 1 << 16)):
            rng = substream(seed, "gowers_mc", i)
            x, h = rng.integers(0, n, size=(min(1 << 16, samples - start), 2)).T
            prods.append(vals[x] * vals[(x + h) % n])
        prods = np.concatenate(prods)
        want = math.sqrt(np.var(prods, ddof=1) / samples)
        assert want > 0
        assert est.std_error == pytest.approx(want, rel=1e-6)
        assert est.raised_value == pytest.approx(prods.mean(), rel=1e-15)

    def test_budget_is_2_to_the_d_times_samples(self):
        f = GridFunction.constant(CyclicGroup(3), 1.0)
        assert gowers_norm_mc(f, 2, samples=100, seed=0, budget=400).raised_value == 1.0
        with pytest.raises(BudgetExceededError, match="samples"):
            gowers_norm_mc(f, 2, samples=100, seed=0, budget=399)

    def test_huge_d_is_refused_before_the_rows_are_built(self):
        f = GridFunction.constant(CyclicGroup(3), 1.0)
        with pytest.raises(BudgetExceededError):
            gowers_norm_mc(f, 30, samples=100, seed=0)

    def test_rejects_tiny_sample_counts(self):
        f = GridFunction.constant(CyclicGroup(11), 1.0)
        with pytest.raises(ValueError):
            gowers_norm_mc(f, 2, samples=50, seed=0)

    @pytest.mark.parametrize("n, d", [(1009, 3), (10007, 2), (999983, 1)])
    def test_matches_old_formula_bit_for_bit(self, n, d):
        f = random_function(CyclicGroup(n), np.random.default_rng(n))
        omegas = np.asarray(list(itertools.product((0, 1), repeat=d)), dtype=np.int64)

        def draw(rng, count):  # the draw as first written: a matmul and % n per vertex
            draws = rng.integers(0, n, size=(count, d + 1))
            prod = np.ones(count)
            for om in omegas:
                prod *= f.values[(draws[:, 0] + draws[:, 1:] @ om) % n]
            return prod

        samples = 2 * _MC_CHUNK + 77
        est = gowers_norm_mc(f, d, samples, seed=6)
        want = two_pass_mc_mean(draw, samples, 6, "gowers_mc", _MC_CHUNK)
        assert (est.raised_value, est.std_error) == want

    @pytest.mark.parametrize("d", [2, 3])
    def test_memory_is_one_draw_and_one_output(self, d):
        # one draw, one chunk's output and two blocks; at N = 999983 a tiled
        # table would take 16 to 32 MiB, and index and gather temporaries
        # for a whole chunk 512 KiB each
        n = 999983
        f = bernoulli_measure(n, seed=1)
        tracemalloc.start()
        try:
            substream(0, "gowers_mc", 0).integers(0, n, size=(_MC_CHUNK, d + 1))
            _, draw_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            gowers_norm_mc(f, d, 2 * _MC_CHUNK + 7, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < draw_peak + 8 * _MC_CHUNK + 2**18


class TestDualFunction:
    def test_constant(self):
        f = GridFunction.constant(CyclicGroup(23), 1.0)
        assert np.allclose(dual_function(f, 2).values, 1.0, atol=1e-13)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(18)
        for d, n in ((1, 11), (2, 9), (3, 6), (4, 5)):
            g = CyclicGroup(n)
            F = random_function(g, rng)
            assert np.allclose(
                dual_function(F, d).values, brute_dual(F, d, n), atol=1e-12
            )

    def test_pairing_identity(self):
        rng = np.random.default_rng(19)
        for d, n in ((2, 101), (3, 31)):
            g = CyclicGroup(n)
            F = random_function(g, rng)
            lhs = inner_product(F, dual_function(F, d))
            rhs = gowers_norm(F, d).raised_value
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))

    def test_pairing_identity_at_k4_n1009(self):
        rng = np.random.default_rng(44)
        F = random_function(CyclicGroup(1009), rng)
        lhs = inner_product(F, dual_function(F, 3))
        rhs = gowers_norm(F, 3).raised_value
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_monte_carlo_budget_is_2_to_the_d_samples_n(self):
        F = GridFunction.constant(CyclicGroup(3), 1.0)
        got = dual_function(F, 2, mode="monte_carlo", samples=100, budget=1200)
        assert np.array_equal(got.values, np.ones(3))
        with pytest.raises(BudgetExceededError, match="samples"):
            dual_function(F, 2, mode="monte_carlo", samples=100, budget=1199)
        with pytest.raises(BudgetExceededError):
            dual_function(F, 25, mode="monte_carlo", samples=100)

    def test_d2_matches_fourier_form(self):
        rng = np.random.default_rng(20)
        g = CyclicGroup(101)
        F = random_function(g, rng)
        a = enumerated_dual(F, 2)
        b = dual_function_u2_fourier(F).values
        assert np.abs(a - b).max() <= 1e-9 * max(1.0, np.abs(a).max())

    def test_monte_carlo_mode_is_consistent(self):
        rng = np.random.default_rng(21)
        g = CyclicGroup(31)
        F = random_function(g, rng)
        exact = dual_function(F, 2).values
        sampled = dual_function(F, 2, mode="monte_carlo", samples=20000, seed=3).values
        assert np.abs(exact - sampled).max() < 0.15

    @pytest.mark.parametrize("n, d, samples", [(31, 2, 1000), (101, 3, 700), (31, 1, 70000)])
    def test_monte_carlo_matches_old_formula_bit_for_bit(self, n, d, samples):
        # one chunk, several chunks with a short last one, and one x per chunk
        F = random_function(CyclicGroup(n), np.random.default_rng(n + d))
        want = np.empty(n)
        x_chunk = max(1, _MC_CHUNK // samples)
        for ci, start in enumerate(range(0, n, x_chunk)):
            stop = min(start + x_chunk, n)
            h = substream(4, "dual_mc", ci).integers(0, n, size=(samples, d))
            xs = np.arange(start, stop)
            prod = np.ones((stop - start, samples))
            for om in itertools.product((0, 1), repeat=d):
                if any(om):
                    shift = h @ np.asarray(om, dtype=np.int64)
                    prod *= F.values[(xs[:, None] + shift[None, :]) % n]
            want[start:stop] = prod.mean(axis=1)
        got = dual_function(F, d, mode="monte_carlo", samples=samples, seed=4).values
        assert np.array_equal(got, want)


def dual_norm_u2_fourier(g: GridFunction) -> float:
    """The norm dual to U^2: the l^(4/3) norm of the Fourier coefficients."""
    n = g.group.modulus
    ghat = np.fft.fft(g.values) / n
    return float(np.sum(np.abs(ghat) ** (4.0 / 3.0)) ** 0.75)


class TestDualNorm:
    def test_constant(self):
        g = CyclicGroup(31)
        assert dual_norm_u2_fourier(GridFunction.constant(g, 1.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_cosine_closed_form(self):
        n = 101
        x = np.arange(n)
        f = GridFunction(CyclicGroup(n), np.cos(2 * np.pi * x / n))
        assert dual_norm_u2_fourier(f) == pytest.approx(2 ** (-0.25), abs=1e-12)

    def test_pairing_bound(self):
        rng = np.random.default_rng(22)
        g = CyclicGroup(101)
        for _ in range(20):
            f, gfun = random_function(g, rng), random_function(g, rng)
            lhs = abs(inner_product(f, gfun))
            rhs = gowers_norm_u2_fourier(f).norm_value * dual_norm_u2_fourier(gfun)
            assert lhs <= rhs + 1e-9

    def test_dual_of_dual_norm_identity(self):
        # the dual norm of DF is the cube norm of F raised to 2^d - 1;
        # two independent routes at d = 2 (coefficient formula vs enumeration)
        rng = np.random.default_rng(30)
        g = CyclicGroup(101)
        for _ in range(5):
            F = random_function(g, rng)
            lhs = dual_norm_u2_fourier(dual_function(F, 2))
            rhs = gowers_norm(F, 2).norm_value ** 3
            assert abs(lhs - rhs) <= 1e-9 * max(lhs, rhs)


class TestInequalities:
    def test_cube_cauchy_schwarz(self):
        rng = np.random.default_rng(23)
        for d, n in ((2, 17), (3, 9)):
            for _ in range(10):
                g = CyclicGroup(n)
                funcs = {
                    om: random_function(g, rng)
                    for om in itertools.product((0, 1), repeat=d)
                }
                lhs = abs(gowers_inner(CubeFamily(d, funcs)))
                rhs = 1.0
                for f in funcs.values():
                    rhs *= gowers_norm(f, d).norm_value
                assert lhs <= rhs + 1e-10

    def test_triangle(self):
        rng = np.random.default_rng(24)
        for d, n in ((2, 31), (3, 13)):
            for _ in range(10):
                g = CyclicGroup(n)
                f, h = random_function(g, rng), random_function(g, rng)
                lhs = gowers_norm(f + h, d).norm_value
                rhs = gowers_norm(f, d).norm_value + gowers_norm(h, d).norm_value
                assert lhs <= rhs + 1e-10

    def test_monotone_in_dimension(self):
        rng = np.random.default_rng(25)
        g = CyclicGroup(19)
        for _ in range(10):
            f = random_function(g, rng)
            for d in (2, 3):
                assert (
                    gowers_norm(f, d - 1).norm_value
                    <= gowers_norm(f, d).norm_value + 1e-10
                )

    def test_homogeneous(self):
        rng = np.random.default_rng(26)
        g = CyclicGroup(23)
        f = random_function(g, rng)
        for lam in (-2.0, 0.5, 3.25):
            for d in (1, 2, 3):
                assert gowers_norm(f * lam, d).norm_value == pytest.approx(
                    abs(lam) * gowers_norm(f, d).norm_value, rel=1e-10, abs=1e-10
                )

    def test_positivity_of_diagonal_averages(self):
        rng = np.random.default_rng(27)
        for d in (1, 2, 3):
            for n in (7, 13):
                f = random_function(CyclicGroup(n), rng)
                assert gowers_norm(f, d).raised_value >= -1e-12

    def test_u2_strict_positivity(self):
        g = CyclicGroup(29)
        zero = GridFunction.constant(g, 0.0)
        assert gowers_norm(zero, 2).norm_value == 0.0
        rng = np.random.default_rng(28)
        for _ in range(10):
            f = random_function(g, rng)
            if np.abs(f.values).max() > 0:
                assert gowers_norm(f, 2).norm_value > 0
        for r in range(5):
            spike = GridFunction.indicator(g, [r])
            assert gowers_norm(spike, 2).norm_value > 0


class TestDualSupBoundWithArtifactSlack:
    """Sup bound 2^(2^d - 1) for duals of envelope-dominated functions.

    The slack 0.1 stands in for a vanishing term with no stated rate, so the
    corpus pins measures and sizes where the bound holds honestly.
    """

    def test_constant_measure_extreme_envelope(self):
        g = CyclicGroup(101)
        F = GridFunction.constant(g, 2.0)  # envelope nu + 1 for nu = 1
        assert np.abs(dual_function(F, 2).values).max() <= 2**3 + 0.1
        g31 = CyclicGroup(31)
        F3 = GridFunction.constant(g31, 2.0)
        assert np.abs(dual_function(F3, 3).values).max() <= 2**7 + 0.1

    def test_majorant_extreme_envelope(self):
        params = MajorantParams(k=3, N=300007, w=2, R_exponent=0.25, epsilon_k=0.25)
        nu = build_majorant(params)
        F = GridFunction(nu.group, nu.values + 1.0)
        df = dual_function_u2_fourier(F)
        assert np.abs(df.values).max() <= 2**3 + 0.1

    def test_bernoulli_measure(self):
        nu = bernoulli_measure(1000003, seed=2)
        rng = np.random.default_rng(29)
        signed = GridFunction(
            nu.group, rng.uniform(-1, 1, size=nu.group.modulus) * (nu.values + 1.0)
        )
        assert np.abs(dual_function_u2_fourier(signed).values).max() <= 2**3 + 0.1
        envelope = GridFunction(nu.group, nu.values + 1.0)
        assert np.abs(dual_function_u2_fourier(envelope).values).max() <= 2**3 + 0.1


@given(st.integers(5, 16), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_norm_nonnegative_and_homogeneous_small(n, seed):
    rng = np.random.default_rng(seed)
    f = GridFunction(CyclicGroup(n), rng.uniform(-2, 2, size=n))
    est = gowers_norm(f, 2)
    assert est.raised_value >= -1e-12
    doubled = gowers_norm(f * 2.0, 2)
    assert doubled.norm_value == pytest.approx(2 * est.norm_value, rel=1e-9, abs=1e-12)


def test_family_validation():
    g = CyclicGroup(5)
    one = GridFunction.constant(g, 1.0)
    with pytest.raises(ValueError):
        CubeFamily(2, {(0, 0): one})
    with pytest.raises(ValueError):
        CubeFamily(1, {(0,): one, (1,): GridFunction.constant(CyclicGroup(7), 1.0)})
