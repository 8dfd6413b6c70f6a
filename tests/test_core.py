import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from znkit import (
    CyclicGroup,
    GridFunction,
    GroupMismatchError,
    SigmaAlgebra,
    atoms_of,
    conditional_expectation,
    expectation,
    inner_product,
    join_sigma,
    lq_norm,
    substream,
)
from znkit.core import mc_mean
from conftest import random_function, random_partition


def _grid(vals):
    return GridFunction.from_values(CyclicGroup(len(vals)), vals)


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
