"""Every sampler's output, pinned to values recorded before the sampled dual's
chunk loop moved into core: a change to a chunk's stream, its size, the
order of its draws or the floats made from them shows here.

The sample counts span more than one chunk, so the chunk -> stream map and
mc_mean's merge of chunk statistics are pinned along with the draws.
"""

import contextlib
import hashlib
import io
import json
import warnings

import numpy as np
import pytest

from znkit import (
    CyclicGroup,
    GridFunction,
    LinearFormSystem,
    MajorantParams,
    bernoulli_measure,
    dual_function,
    gowers_norm_mc,
    gy_moment_check,
    verify_linear_forms,
)
from znkit.cli import main


def _random_function(n):
    return GridFunction(CyclicGroup(n), np.random.default_rng(35).uniform(-1, 1, n))


@pytest.mark.parametrize("n, d, samples, digest", [
    (10007, 3, 1000, "2dac5d9dbf905d6fbc8f24f821a5c3ddc1393362c969339972219dd5901cbfe9"),
    (1009, 2, 500, "a70541c39d40166a177b784e8f3d665220da4e659dd8a3daa515a9faece855cb"),
])
def test_sampled_dual_golden_values(n, d, samples, digest):
    dual = dual_function(_random_function(n), d, mode="monte_carlo", samples=samples, seed=1)
    assert hashlib.sha256(dual.values.tobytes()).hexdigest() == digest


def test_sampled_gowers_norm_golden_value():
    est = gowers_norm_mc(_random_function(10007), 3, 2 * 2**16 + 123, seed=1)
    assert repr((est.raised_value, est.std_error)) == \
        "(1.704199713372515e-05, 3.479124889337559e-05)"


def test_sampled_linear_forms_golden_value():
    nu = bernoulli_measure(10007, 3)
    est = verify_linear_forms(nu, LinearFormSystem.cube(2), mode="monte_carlo",
                              samples=300_000, seed=1).estimate
    assert repr((est.value, est.std_error)) == "(1.055762224769374, 0.15915073690520304)"


@pytest.mark.parametrize("rows, box, want", [
    ([(1,)], [(1000, 5000)], "(0.7267753403424173, 0.000784195517340065)"),
    ([(1, 0), (1, 1)], [(10, 500), (10, 500)], "(0.5252786716952057, 0.0008710728711043637)"),
])
def test_sampled_window_moment_golden_values(rows, box, want):
    params = MajorantParams(k=3, N=10007, w=2, R_exponent=0.25, epsilon_k=0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the boxes are shorter than R^(10 m)
        est = gy_moment_check(params, LinearFormSystem.from_rows(rows), box,
                              mode="monte_carlo", samples=300_000, seed=1)
    assert repr((est.value, est.std_error)) == want


def test_sampled_decomposition_golden_values():
    # the benchmark's decompose_bernoulli_k4 run: sampled norms and duals
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["decompose", "--n", "1009", "--nu", "bernoulli", "--nu-seed", "1",
                     "--k", "4", "--mode", "monte_carlo", "--epsilon-dec", "1e-4",
                     "--samples", "50000", "--seed", "1"])
    assert code == 0
    result = json.loads(out.getvalue())["result"]
    assert (result["atom_count"], result["omega_size"]) == (916, 832)
    assert result["energy_trace"] == [0.2643260458003013, 3.200459762550052]
