"""A constant held as one broadcast float against the same constant held densely.

GridFunction.constant keeps a zero-stride view of one float.  Every public
consumer of a measure must give the same floats, bit for bit, on it as on
np.full of the same constant: these tests run each one on both.  The
sampled products also run above the tiling cap of _form_product, where a
dense table is gathered untiled and a broadcast one from its one entry.
"""

import tracemalloc

import numpy as np
import pytest

from znkit import (
    CyclicGroup,
    DecompositionConfig,
    GridFunction,
    LinearFormSystem,
    ap_expectation,
    dual_function,
    gowers_norm,
    gowers_norm_mc,
    gvn_check,
    kvn_decompose,
    verify_correlation,
    verify_linear_forms,
)
from znkit.core import _TILE_CAP, _form_product

SIZES = (101, 1009)
CONSTANTS = (1.0, 1 / 3)


def _pair(n: int, c: float) -> tuple[GridFunction, GridFunction]:
    """(broadcast, dense) copies of the constant c on Z_n."""
    group = CyclicGroup(n)
    broadcast = GridFunction.constant(group, c)
    dense = GridFunction(group, np.full(n, c))
    assert broadcast.values.strides == (0,) and dense.values.strides == (8,)
    return broadcast, dense


def _bits(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values).tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("c", CONSTANTS)
def test_verify_correlation(n, c):
    rng = np.random.default_rng(n)
    tuples = [rng.choice(n, size=3, replace=False).tolist() for _ in range(5)]
    reports = [verify_correlation(nu, 3, tuples) for nu in _pair(n, c)]
    assert repr(reports[0]) == repr(reports[1])


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("c", CONSTANTS)
def test_verify_linear_forms_exact_and_sampled(n, c):
    system = LinearFormSystem.progression(3)
    for kwargs in ({"mode": "exact"}, {"mode": "monte_carlo", "samples": 20000, "seed": 7}):
        reports = [verify_linear_forms(nu, system, verdict_threshold=10.0, **kwargs)
                   for nu in _pair(n, c)]
        assert repr(reports[0]) == repr(reports[1])


@pytest.mark.parametrize("n", SIZES)
def test_gvn_check(n):
    reports = [gvn_check(nu, k=3, trials=4, seed=2) for nu in _pair(n, 1.0)]
    assert repr(reports[0]) == repr(reports[1])


def _decomposition_bits(res) -> dict:
    return {"labels": _bits(res.sigma.atom_label), "atoms": res.sigma.atom_count,
            "omega": _bits(res.omega), "uniform": _bits(res.f_uniform.values),
            "antiuniform": _bits(res.f_antiuniform.values),
            "energy": repr(res.energy_trace), "iterations": res.iterations,
            "final": repr(res.final_uniformity), "success": res.terminated_successfully,
            "log": repr(res.iteration_log)}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("mode", ("exact", "monte_carlo"))
def test_kvn_decompose(n, mode):
    config = DecompositionConfig(k=3, epsilon=1e-4, uniformity_mode=mode, samples=5000,
                                 seed=3, max_iterations_override=4)
    # f below nu: an interval with scattered points, which refines (the
    # level sets and the exceptional set read nu), and f = nu itself
    vals = np.where(np.arange(n) < n // 3, 1.5, 0.0)
    vals[np.random.default_rng(n).random(n) < 0.2] = 1.5
    f = GridFunction(CyclicGroup(n), vals)
    results = [[_decomposition_bits(kvn_decompose(f, nu, config)),
                _decomposition_bits(kvn_decompose(nu, nu, config))]
               for nu in _pair(n, 1.5)]
    assert results[0][0]["iterations"] >= 1
    assert results[0] == results[1]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("c", CONSTANTS)
def test_gowers_norm_and_dual_function(n, c):
    outs = []
    for f in _pair(n, c):
        outs.append([repr(gowers_norm(f, d)) for d in (1, 2, 3)]
                    + [repr(gowers_norm_mc(f, 3, 1000, seed=4))]
                    + [_bits(dual_function(f, d).values) for d in (1, 2)]
                    + [_bits(dual_function(f, 2, mode="monte_carlo", samples=100,
                                           seed=5).values)])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("c", CONSTANTS)
def test_ap_expectation(n, c):
    rng = np.random.default_rng(n)
    other = GridFunction(CyclicGroup(n), rng.uniform(-1.0, 1.0, n))
    outs = []
    for const in _pair(n, c):
        # three terms take the transform route, four the translates
        outs.append([repr(ap_expectation([const] * 3, [0, 1, 2])),
                     repr(ap_expectation([const, other, const], [0, 1, 2])),
                     repr(ap_expectation([other, const, const, other], [0, 1, 2, 3]))])
    assert outs[0] == outs[1]


def test_correlation_on_a_constant_holds_no_copy_of_it():
    # the measure is built inside the trace: dense ones alone would be
    # 7.6 MiB, beside the verifier's 1.9 MiB factor table
    rng = np.random.default_rng(1)
    tuples = [rng.integers(0, 999983, size=2).tolist() for _ in range(3)]
    tracemalloc.start()
    try:
        verify_correlation(GridFunction.constant(CyclicGroup(999983), 1.0), 2, tuples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("n, rows", [
    (1009, [(1,), (2,)]),        # tiled: 2 copies of the table
    (999983, [(1,)]),            # bound n: gathered untiled
    (999983, [(1, 1), (1, 2)]),  # past the tiling cap: one remainder per form
])
def test_form_product_on_every_route(n, rows):
    x = np.random.default_rng(n).integers(0, n, size=(len(rows[0]), 5000))
    products = [_form_product(nu.values, rows, [0] * len(rows))(x) for nu in _pair(n, 1 / 3)]
    assert _bits(products[0]) == _bits(products[1])


def test_sampled_consumers_past_the_tiling_cap():
    n = 999983
    assert 2 * n > _TILE_CAP
    outs = []
    for nu in _pair(n, 1 / 3):
        outs.append([repr(verify_linear_forms(nu, system, mode="monte_carlo",
                                              samples=3000, seed=8, verdict_threshold=10.0))
                     for system in (LinearFormSystem.cube(2), LinearFormSystem.progression(3))]
                    + [repr(gowers_norm_mc(nu, 2, 3000, seed=9))])
    assert outs[0] == outs[1]


def test_sampled_dual_past_the_tiling_cap():
    n = 131101  # the rows (1, 1) reach 2n - 2, so 2 copies exceed the cap
    assert 2 * n > _TILE_CAP
    duals = [_bits(dual_function(nu, 1, mode="monte_carlo", samples=100, seed=10).values)
             for nu in _pair(n, 1 / 3)]
    assert duals[0] == duals[1]


def test_sampled_products_on_a_constant_copy_nothing_of_size_n():
    # np.take on the zero-stride table would copy it into 7.6 MiB of
    # contiguous floats on every call: 9.5 MiB traced for linforms
    nu = GridFunction.constant(CyclicGroup(999983), 1.0)
    for run in (lambda: verify_linear_forms(nu, LinearFormSystem.cube(2),
                                            mode="monte_carlo", samples=10**5, seed=1),
                lambda: gowers_norm_mc(nu, 2, 10**5, seed=1)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
