import collections
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from znkit import (
    CyclicGroup,
    GridFunction,
    GroupMismatchError,
    LinearFormSystem,
    SigmaAlgebra,
    atoms_of,
    conditional_expectation,
    expectation,
    inner_product,
    join_sigma,
    lq_norm,
    substream,
)
import znkit.core
from znkit.core import (_BLOCK, _TILE_CAP, _box_sum, _chunks, _form_product, _pairwise_sum,
                        _pointwise_mean, _uniform_draw, mc_mean)
from conftest import (atoms_by_comparison, first_occurrence_labels, random_function,
                      random_partition)


def _grid(vals):
    return GridFunction(CyclicGroup(len(vals)), np.asarray(vals))


class TestExpectation:
    def test_arithmetic_mean(self):
        assert expectation(_grid([1, 2, 3, 4, 5])) == pytest.approx(3.0, abs=1e-15)

    def test_constant(self):
        for n in (2, 7, 101):
            assert expectation(GridFunction.constant(CyclicGroup(n), 1.0)) == 1.0

    def test_point_mass(self):
        f = GridFunction.indicator(CyclicGroup(7), [0])
        assert expectation(f) == pytest.approx(1 / 7, abs=1e-15)


class TestInnerProduct:
    def test_ones(self):
        g = CyclicGroup(5)
        one = GridFunction.constant(g, 1.0)
        assert inner_product(one, one) == 1.0

    def test_point_mass(self):
        f = GridFunction.indicator(CyclicGroup(5), [0])
        assert inner_product(f, f) == pytest.approx(1 / 5, abs=1e-15)

    def test_matches_expectation_of_product(self):
        rng = np.random.default_rng(0)
        g = CyclicGroup(64)
        f, h = random_function(g, rng), random_function(g, rng)
        assert inner_product(f, h) == pytest.approx(expectation(f * h), abs=1e-12)

    def test_group_mismatch(self):
        f = GridFunction.constant(CyclicGroup(5), 1.0)
        h = GridFunction.constant(CyclicGroup(7), 1.0)
        with pytest.raises(GroupMismatchError):
            inner_product(f, h)


class TestLqNorm:
    def test_constant_any_q(self):
        f = GridFunction.constant(CyclicGroup(9), -2.5)
        for q in (1, 2, 4, math.inf):
            assert lq_norm(f, q) == pytest.approx(2.5, abs=1e-14)

    def test_point_mass_scaling(self):
        n = 17
        f = GridFunction.indicator(CyclicGroup(n), [3])
        for q in (1, 2, 4):
            assert lq_norm(f, q) == pytest.approx(n ** (-1 / q), abs=1e-14)

    def test_sup_norm(self):
        assert lq_norm(_grid([3, -4]), math.inf) == 4.0

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            lq_norm(_grid([1, 2]), 0.5)


class TestConditionalExpectation:
    def test_atom_averages(self):
        g = CyclicGroup(4)
        f = _grid([1, 2, 3, 4])
        algebra = SigmaAlgebra.from_labels(g, np.array([0, 0, 1, 1]))
        out = conditional_expectation(f, algebra)
        assert np.allclose(out.values, [1.5, 1.5, 3.5, 3.5], atol=1e-15)

    def test_trivial_algebra_gives_mean(self):
        rng = np.random.default_rng(1)
        g = CyclicGroup(31)
        f = random_function(g, rng)
        out = conditional_expectation(f, SigmaAlgebra.trivial(g))
        assert np.allclose(out.values, expectation(f), atol=1e-13)

    def test_discrete_algebra_is_identity(self):
        rng = np.random.default_rng(2)
        g = CyclicGroup(31)
        f = random_function(g, rng)
        out = conditional_expectation(f, SigmaAlgebra.discrete(g))
        assert np.array_equal(out.values, f.values)


class TestJoin:
    def test_intersection_of_atoms(self):
        g = CyclicGroup(5)
        a = SigmaAlgebra.from_labels(g, np.array([0, 0, 1, 1, 1]))
        b = SigmaAlgebra.from_labels(g, np.array([0, 1, 1, 1, 1]))
        joined = join_sigma([a, b])
        got = [set(atom.tolist()) for atom in atoms_of(joined)]
        assert got == [{0}, {1}, {2, 3, 4}]

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        g = CyclicGroup(40)
        a = random_partition(g, rng, 6)
        joined = join_sigma([a, a])
        assert np.array_equal(joined.atom_label, a.atom_label)

    def test_one_atom_factors_are_skipped(self, monkeypatch):
        # a one-atom factor is the identity of the join: no key is built and
        # nothing is re-canonicalised
        g = CyclicGroup(30)
        s = random_partition(g, np.random.default_rng(7), 5)
        trivial = SigmaAlgebra.trivial(g)

        def refuse(keys):
            raise AssertionError("_canonical called")

        monkeypatch.setattr(znkit.core, "_canonical", refuse)
        for factors in ([trivial, s], [s, trivial], [trivial, s, trivial]):
            joined = join_sigma(factors)
            assert np.array_equal(joined.atom_label, s.atom_label)
            assert joined.atom_count == s.atom_count
        assert join_sigma([trivial, trivial]).atom_count == 1

    def test_empty_join_is_trivial(self):
        g = CyclicGroup(6)
        assert join_sigma([], group=g).atom_count == 1

    def test_empty_join_needs_group(self):
        with pytest.raises(ValueError):
            join_sigma([])


class TestAtoms:
    def test_trivial(self):
        atoms = atoms_of(SigmaAlgebra.trivial(CyclicGroup(3)))
        assert [a.tolist() for a in atoms] == [[0, 1, 2]]

    def test_discrete(self):
        atoms = atoms_of(SigmaAlgebra.discrete(CyclicGroup(3)))
        assert [a.tolist() for a in atoms] == [[0], [1], [2]]

    def test_cover_is_disjoint(self):
        rng = np.random.default_rng(4)
        g = CyclicGroup(50)
        algebra = random_partition(g, rng, 7)
        atoms = atoms_of(algebra)
        merged = np.sort(np.concatenate(atoms))
        assert np.array_equal(merged, np.arange(50))


def _unique_rule(labels: np.ndarray, count: int) -> str | None:
    """The message SigmaAlgebra's checks raise for integer labels, or None,
    with canonicity tested as it first was: the first occurrences that
    np.unique reports must increase with the label."""
    if count < 1:
        return "atom_count must be positive"
    if set(labels.tolist()) != set(range(count)):
        return "labels must use exactly 0..atom_count-1, each at least once"
    _, first_seen = np.unique(labels, return_index=True)
    if not np.all(np.diff(first_seen) > 0):
        return "labels are not canonical (sorted by smallest member)"
    return None


_raw_labels = st.lists(st.integers(-2, 6), min_size=2, max_size=9)


class TestCanonicalLabels:
    """from_labels, join_sigma and atoms_of against pure-Python oracles."""

    @given(st.lists(st.lists(st.integers(-3, 10**12), min_size=1, max_size=12),
                    min_size=1, max_size=4),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    @example([[5, 5, -1, 5, 10**12, -1]], 0)
    def test_relabelling_and_atoms_match_the_oracles(self, pools, seed):
        rng = np.random.default_rng(seed)
        n = len(pools[0]) + 1
        g = CyclicGroup(n)
        factors = []
        for pool in pools:
            raw = np.asarray(pool)[rng.integers(0, len(pool), size=n)]
            algebra = SigmaAlgebra.from_labels(g, raw)
            assert algebra.atom_label.tolist() == first_occurrence_labels(raw.tolist())
            assert algebra.atom_count == len(set(raw.tolist()))
            factors.append(algebra)
        joined = join_sigma(factors)
        keys = list(zip(*(f.atom_label.tolist() for f in factors)))
        assert joined.atom_label.tolist() == first_occurrence_labels(keys)
        assert joined.atom_count == len(set(keys))
        atoms = atoms_of(joined)
        expect = atoms_by_comparison(joined)
        assert len(atoms) == len(expect)
        assert all(np.array_equal(a, b) for a, b in zip(atoms, expect))

    @given(_raw_labels, st.integers(-1, 8), st.booleans())
    @settings(max_examples=200, deadline=None)
    @example([0, 1, 0, 2], 3, False)
    @example([0, 2, 1, 2], 3, False)
    @example([1, 0, 0], 2, False)
    @example([0, 0, 1], 1, False)
    @example([0, 0, 2], 3, False)
    @example([0, -1, 1], 2, False)
    @example([0, 1], 0, False)
    def test_constructor_accepts_what_the_unique_rule_accepts(self, raw, count, relabel):
        # relabel draws canonical arrays often enough to exercise acceptance
        labels = np.asarray(first_occurrence_labels(raw) if relabel else raw)
        if relabel and count > 0:
            count = int(labels.max()) + 1
        expect = _unique_rule(labels, count)
        g = CyclicGroup(labels.size)
        if expect is None:
            assert SigmaAlgebra(g, labels, count).atom_label.tolist() == labels.tolist()
        else:
            with pytest.raises(ValueError, match=re.escape(expect)):
                SigmaAlgebra(g, labels, count)

    def test_wrong_shape_keeps_its_message(self):
        with pytest.raises(ValueError, match="assign a label to every residue"):
            SigmaAlgebra(CyclicGroup(3), np.zeros((1, 3), dtype=np.int64), 1)

    def test_constructor_needs_integer_labels(self):
        # a float array was truncated to [0, 0, 1] and accepted
        with pytest.raises(ValueError, match="integers, got dtype float64"):
            SigmaAlgebra(CyclicGroup(3), np.array([0.0, 0.9, 1.0]), 2)
        for dtype in (np.int8, np.int32, np.uint16):
            algebra = SigmaAlgebra(CyclicGroup(3), np.array([0, 1, 1], dtype=dtype), 2)
            assert algebra.atom_label.dtype == np.int64

    def test_a_huge_label_is_refused_before_counting(self):
        with pytest.raises(ValueError, match="exactly 0..atom_count-1"):
            SigmaAlgebra(CyclicGroup(2), np.array([0, 2**62]), 2)

    def test_from_labels_needs_shape_n(self):
        # a (1, N) array was flattened and accepted
        with pytest.raises(ValueError, match=r"shape \(3,\), got \(1, 3\)"):
            SigmaAlgebra.from_labels(CyclicGroup(3), np.array([[4, 4, 7]]))

    def test_sorts_per_construction(self, monkeypatch):
        calls = collections.Counter()
        for name in ("unique", "argsort", "sort"):
            def counted(*args, _real=getattr(np, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        g = CyclicGroup(60)
        rng = np.random.default_rng(9)
        raw = [rng.integers(0, 5, size=60) for _ in range(4)]
        SigmaAlgebra.trivial(g)
        SigmaAlgebra.discrete(g)
        SigmaAlgebra(g, np.asarray(first_occurrence_labels(raw[0].tolist())), 5)
        assert not calls  # validation sorts nothing
        factors = [SigmaAlgebra.from_labels(g, labels) for labels in raw]
        assert calls["unique"] == 4  # one per from_labels
        for m in range(1, 5):
            calls.clear()
            join_sigma(factors[:m])
            assert calls["unique"] == m - 1


class TestOperatorLaws:
    """Projection identities of conditional expectation, exact to 1e-12."""

    def test_idempotence_and_tower(self):
        rng = np.random.default_rng(5)
        g = CyclicGroup(128)
        for _ in range(50):
            f = random_function(g, rng, scale=3.0)
            coarse = random_partition(g, rng, 4)
            fine = join_sigma([coarse, random_partition(g, rng, 5)])
            once = conditional_expectation(f, fine)
            assert np.allclose(
                conditional_expectation(once, fine).values, once.values, atol=1e-12
            )
            tower = conditional_expectation(once, coarse)
            direct = conditional_expectation(f, coarse)
            assert np.allclose(tower.values, direct.values, atol=1e-12)

    def test_lq_contraction(self):
        rng = np.random.default_rng(6)
        g = CyclicGroup(101)
        for _ in range(25):
            f = random_function(g, rng, scale=2.0)
            algebra = random_partition(g, rng, 9)
            proj = conditional_expectation(f, algebra)
            for q in (1, 2, 4, math.inf):
                assert lq_norm(proj, q) <= lq_norm(f, q) + 1e-12

    def test_preserves_nonnegativity_and_constants(self):
        rng = np.random.default_rng(7)
        g = CyclicGroup(60)
        algebra = random_partition(g, rng, 8)
        f = GridFunction(g, np.abs(rng.normal(size=60)))
        assert conditional_expectation(f, algebra).values.min() >= 0
        const = GridFunction.constant(g, 2.25)
        assert np.allclose(
            conditional_expectation(const, algebra).values, 2.25, atol=1e-14
        )

    def test_residual_vanishes_on_every_atom(self):
        rng = np.random.default_rng(8)
        g = CyclicGroup(90)
        f = random_function(g, rng)
        algebra = random_partition(g, rng, 11)
        resid = f - conditional_expectation(f, algebra)
        for atom in atoms_of(algebra):
            assert abs(resid.values[atom].mean()) < 1e-12


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=40))
@settings(max_examples=40, deadline=None)
def test_expectation_within_value_range(vals):
    m = expectation(_grid(vals))
    assert min(vals) - 1e-9 <= m <= max(vals) + 1e-9


@given(
    st.integers(2, 30),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_join_refines_both_factors(n, seed):
    rng = np.random.default_rng(seed)
    g = CyclicGroup(n)
    a = random_partition(g, rng, 3)
    b = random_partition(g, rng, 4)
    joined = join_sigma([a, b])
    # every joined atom sits inside one atom of each factor
    for atom in atoms_of(joined):
        assert len(set(a.atom_label[atom].tolist())) == 1
        assert len(set(b.atom_label[atom].tolist())) == 1


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            GridFunction(CyclicGroup(3), np.array([1.0, np.nan, 2.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            GridFunction(CyclicGroup(3), np.array([1.0, 2.0]))

    def test_values_are_immutable(self):
        f = GridFunction.constant(CyclicGroup(4), 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constant_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GridFunction.constant(CyclicGroup(7), bad)
        with pytest.raises(ValueError, match="finite"):
            GridFunction(CyclicGroup(7), np.broadcast_to(bad, (7,)))

    def test_constant_is_one_broadcast_float(self):
        f = GridFunction.constant(CyclicGroup(7), 2.5)
        assert f.values.strides == (0,)
        assert f.values.dtype == np.float64 and f.values.tolist() == [2.5] * 7
        # arithmetic on it is dense
        assert (f + 1.0).values.strides == (8,) and (f * f).values.tolist() == [6.25] * 7

    def test_constant_costs_no_array_of_n(self):
        # the dense ones would be 80 MB and their finite check 10 MB
        tracemalloc.start()
        try:
            GridFunction.constant(CyclicGroup(10**7), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_other_broadcasts_are_made_dense(self):
        # a zero-stride vector of another dtype is converted, and so copied
        f = GridFunction(CyclicGroup(5), np.broadcast_to(np.int64(3), (5,)))
        assert f.values.strides == (8,) and f.values.tolist() == [3.0] * 5
        with pytest.raises(ValueError, match="expected 5 values"):
            GridFunction(CyclicGroup(5), np.broadcast_to(1.0, (4,)))

    def test_takes_ownership_of_a_contiguous_float_array(self):
        # zero copy: the caller's array becomes the function's, read-only
        a = np.zeros(7)
        f = GridFunction(CyclicGroup(7), a)
        assert f.values is a and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
        # any other input is copied, and the caller's array stays writable
        b = np.zeros(7, dtype=np.float32)
        assert GridFunction(CyclicGroup(7), b).values is not b and b.flags.writeable

    def test_modulus_lower_bound(self):
        with pytest.raises(ValueError):
            CyclicGroup(1)

    def test_prime_flag(self):
        assert CyclicGroup(101).is_prime and not CyclicGroup(100).is_prime
        CyclicGroup(101).ensure_prime()
        with pytest.raises(ValueError, match="prime modulus, got 100"):
            CyclicGroup(100).ensure_prime()

    def test_noncanonical_labels_rejected(self):
        with pytest.raises(ValueError):
            SigmaAlgebra(CyclicGroup(3), np.array([1, 0, 0]), 2)


def test_substream_is_deterministic_and_keyed():
    a = substream(42, "x", 1).integers(0, 1000, size=5)
    b = substream(42, "x", 1).integers(0, 1000, size=5)
    c = substream(42, "x", 2).integers(0, 1000, size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# substream(1, name, 0).integers(0, 2**32, size=4) for every stream name the
# library uses, recorded before hashlib's import moved into substream: a
# change to the hashing path must not move any stream.
GOLDEN_STREAMS = {
    "bernoulli": [289227597, 3606994539, 2598174805, 3680294152],
    "correlation_tuples": [254767707, 824505148, 1402991759, 3266201118],
    "dense01": [2012200504, 3219490515, 1960484297, 1676203887],
    "dual_mc": [857878251, 3160634664, 3680693014, 4024790985],
    "gowers_mc": [3189305227, 134517538, 2056167520, 731977607],
    "gvn": [2866465777, 3603978068, 3805669167, 959381901],
    "gy_moment": [1659650315, 2391054045, 112029791, 2967440672],
    "linforms": [1555472974, 383020834, 4139058486, 2225011692],
    "nu_mask": [874474074, 2285254225, 3783428761, 117573314],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STREAMS))
def test_substream_golden_values(name):
    got = substream(1, name, 0).integers(0, 2**32, size=4).tolist()
    assert got == GOLDEN_STREAMS[name]


@pytest.mark.parametrize("n", [101, 10007, 999983, 2**31 - 1, 2**32 + 15])
@pytest.mark.parametrize("t", [1, 3, 4])
def test_uniform_draw_takes_the_values_of_one_integers_call(n, t):
    # block by block, the points are those of one (count, t) draw; the
    # identity table makes the product a function of the points' first row
    count = 2 * _BLOCK + 77
    seen = []

    def weight(x):
        seen.append(x.T.copy())
        return x[0].astype(np.float64)

    got = _uniform_draw(weight, n, t)(substream(3, "blocks", 0), count)
    want = substream(3, "blocks", 0).integers(0, n, size=(count, t))
    assert [x.shape[0] for x in seen] == [_BLOCK, _BLOCK, 77]
    assert np.array_equal(np.concatenate(seen), want)
    assert np.array_equal(got, want[:, 0].astype(np.float64))


class TestMonteCarloEngine:
    @staticmethod
    def draw(rng, count):
        return rng.standard_exponential(count) ** 3  # heavy tailed

    def test_chunks_merge_like_one_two_pass_computation(self):
        # two full chunks and a partial one, regenerated from their sub-streams
        samples, chunk, seed = 2 * 1000 + 337, 1000, 5
        est = mc_mean(self.draw, samples, seed, "engine", chunk)
        vals = np.concatenate([
            self.draw(substream(seed, "engine", i), count)
            for i, count in enumerate((1000, 1000, 337))
        ])
        assert est.value == pytest.approx(vals.mean(), rel=1e-14)
        assert est.std_error == pytest.approx(
            math.sqrt(np.var(vals, ddof=1) / samples), rel=1e-12
        )
        assert (est.samples, est.seed) == (samples, seed)

    def test_chunk_i_draws_from_substream_i(self):
        got = [(rng.integers(0, 2**32, size=4).tolist(), lo, hi)
               for rng, lo, hi in _chunks(2337, 1000, 5, "engine")]
        want = [(substream(5, "engine", i).integers(0, 2**32, size=4).tolist(), lo, hi)
                for i, (lo, hi) in enumerate(((0, 1000), (1000, 2000), (2000, 2337)))]
        assert got == want

    @pytest.mark.parametrize("samples, chunk", [(3, 64), (5, 7), (100, 2**16), (400, 10**6)])
    def test_pointwise_mean_matches_a_loop_over_chunks_and_points(self, samples, chunk):
        # the x of one chunk share their draws of h; the blocks of x change nothing
        n, t = 1009, 2
        table = np.random.default_rng(2).normal(size=n)
        weight = _form_product(table, [(1, 0, 1), (1, 1, 1)], [0, 0])
        got = _pointwise_mean(weight, n, t, samples, 9, "pm", chunk)
        x_chunk = max(1, chunk // samples)
        want = np.empty(n)
        for i, lo in enumerate(range(0, n, x_chunk)):
            h = substream(9, "pm", i).integers(0, n, size=(samples, t))
            for x in range(lo, min(lo + x_chunk, n)):
                want[x] = np.mean(table[(x + h[:, 1]) % n] * table[(x + h[:, 0] + h[:, 1]) % n])
        assert np.allclose(got, want, rtol=1e-14, atol=0)


def old_form_product(table, mat, consts, x):
    """The product as the samplers used to form it: a matmul and a full % n per form."""
    n = table.size
    prod = np.ones(x.shape[1])
    for i in range(len(mat)):
        prod *= table[(np.asarray(mat[i], dtype=np.int64) @ x + consts[i]) % n]
    return prod


class TestFormProduct:
    @staticmethod
    def columns(n, t, count, seed):
        x = np.random.default_rng(seed).integers(0, n, size=(t, count))
        x[:, 0] = n - 1  # the largest index the bound allows
        return x

    @pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK + 1, 3 * _BLOCK])
    def test_unit_rows_match_old_product(self, count):
        table = np.random.default_rng(1).normal(size=101)
        rows = [(1,) + om for om in itertools.product((0, 1), repeat=3)]
        x = self.columns(101, 4, count, 2)
        got = _form_product(table, rows, [0] * len(rows))(x)
        assert np.array_equal(got, old_form_product(table, rows, [0] * len(rows), x))

    @pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK + 1])
    def test_one_variable_with_constants(self, count):
        table = np.random.default_rng(3).normal(size=97)
        mat, consts = [(1,), (2,), (5,), (96,)], [0, 7, 96, 50]
        x = self.columns(97, 1, count, 4)
        got = _form_product(table, mat, consts)(x)
        assert np.array_equal(got, old_form_product(table, mat, consts, x))

    @pytest.mark.parametrize("count", [1, _BLOCK - 1, _BLOCK + 1])
    def test_rational_rows_take_the_remainder(self, count):
        N = 10007
        system = LinearFormSystem.from_rows([("1/2", 1), (1, 3), (1, "-1/3")], [0, 5, -2])
        mat, consts = system.residue_matrix(N)
        assert 2 * N * N > _TILE_CAP  # inverted denominators: far past the tiling cap
        table = np.random.default_rng(5).normal(size=N)
        x = self.columns(N, 2, count, 6)
        got = _form_product(table, mat, consts)(x)
        assert np.array_equal(got, old_form_product(table, mat, consts, x))

    @pytest.mark.parametrize("const", [3, 4])
    def test_bounds_at_the_tiling_cap(self, const):
        # bound 4 (n - 1) + const + 1: exactly the cap tiles, one more reduces
        n = _TILE_CAP // 4
        table = np.random.default_rng(7).normal(size=n)
        mat, consts = [(1, 1, 1, 1), (1, 0, 2, 0)], [const, 1]
        x = self.columns(n, 4, _BLOCK + 1, 8)
        got = _form_product(table, mat, consts)(x)
        assert np.array_equal(got, old_form_product(table, mat, consts, x))

    def test_explicit_bound_with_negative_coefficients(self):
        # the window weight's use: indices known to lie in the table
        table = np.random.default_rng(9).normal(size=300)
        mat, consts = [(1, -1), (2, -3)], [100, 200]
        x = np.random.default_rng(10).integers(0, 34, size=(2, _BLOCK + 5))
        got = _form_product(table, mat, consts, bound=table.size)(x)
        assert np.array_equal(got, old_form_product(table, mat, consts, x))

    def test_refuses_indices_past_int64(self):
        with pytest.raises(OverflowError, match="int64"):
            _form_product(np.ones(3), [(2**62, 2**62)], [0])


class TestPairwiseSum:
    @pytest.mark.parametrize("cap", [128, 1000, 1 << 14])
    def test_equals_add_reduce_bit_for_bit(self, cap):
        # entries spread over 16 decades, so a different association of the
        # adds would show in the last bits
        rng = np.random.default_rng(cap)
        sizes = {1, 7, 8, 9, 127, 128, 129, cap - 1, cap, cap + 1, 3 * cap + 5, 999983}
        for n in sorted(sizes):
            vals = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
            leaves = []

            def leaf(lo, hi):
                leaves.append((lo, hi))
                return np.add.reduce(vals[lo:hi])

            total = _pairwise_sum(n, leaf, cap)
            assert total == np.add.reduce(vals) and total / n == vals.mean()
            # the leaves tile [0, n) in order, none longer than cap
            starts = [lo for lo, _ in leaves]
            assert starts[0] == 0 and [hi for _, hi in leaves] == starts[1:] + [n]
            assert all(0 < hi - lo <= cap for lo, hi in leaves)

    def test_misaligned_leaf_buffer(self):
        # a leaf summed from a copy at an odd offset of a reused buffer
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(100003) * 10.0 ** rng.integers(-8, 8, 100003)
        buf = np.empty(1000 + 3)

        def leaf(lo, hi):
            out = buf[3 : 3 + hi - lo]
            out[:] = vals[lo:hi]
            return np.add.reduce(out)

        assert _pairwise_sum(vals.size, leaf, 1000) == np.add.reduce(vals)

    def test_array_leaves_add_elementwise(self):
        # one sum per power, as the correlation verifier's tau moments take them
        rng = np.random.default_rng(6)
        vals = rng.uniform(1.0, 50.0, 70001)
        qs = (0.5, 1.0, 2.0, 3.7)
        got = _pairwise_sum(
            vals.size, lambda lo, hi: np.array([np.add.reduce(vals[lo:hi] ** q) for q in qs]),
            1 << 12)
        assert got.tolist() == [np.add.reduce(vals**q) for q in qs]

    def test_refuses_leaves_below_numpys_block(self):
        with pytest.raises(ValueError, match="at least 128"):
            _pairwise_sum(1000, lambda lo, hi: 0.0, 127)


class TestBoxSum:
    @pytest.mark.parametrize("box", [
        [(0, 127)], [(0, 128)], [(-37, 1200)],  # one leaf, one split, many
        [(5, 17), (-3, 40)],  # 572 points: leaves end inside rows
        [(0, 6), (2, 9), (-4, 11)],
        [(1, 31), (100, 160), (7, 9)],
    ])
    def test_equals_add_reduce_of_dense_vector(self, monkeypatch, box):
        # weight reads each point's entry of a dense vector in row-major
        # order, spread over 16 decades, so a wrong point, order or
        # association of the adds would show in the last bits
        monkeypatch.setattr(znkit.core, "_BOX_LEAF", 128)
        shape = tuple(hi - lo + 1 for lo, hi in box)
        lows = np.array([lo for lo, _ in box])[:, None]
        size = math.prod(shape)
        rng = np.random.default_rng(size)
        vals = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
        seen = []

        def weight(x):
            assert x.dtype == np.int64 and x.shape[1] <= 128
            seen.append(np.ravel_multi_index(tuple(x - lows), shape))
            return vals[seen[-1]]

        assert _box_sum(weight, box) == np.add.reduce(vals)
        # every point once, in row-major order
        assert np.array_equal(np.concatenate(seen), np.arange(size))
