"""Uniformity norms over combinatorial cubes, dual functions, and the
degree-2 Fourier shortcuts.

The U^d norm of f is the 2^d-th root of the average of the product of f over
all cubes {x + omega.h : omega in {0,1}^d}, x in Z_N, h in Z_N^d.  Exact
evaluation runs one recursion on the last cube coordinate: for fixed h_d the
2^d vertex functions pair up into the 2^(d-1) derivatives
f_(omega',0) f_(omega',1)(. + h_d), and the d-cube average is the average
over h_d of the (d-1)-cube averages of those derivatives.  The recursion
stops at d = 2, one vectorized N x N step, and d = 1, a product of two
means.  A pair that holds the same array twice is multiplied once, so the
norm (one function at every vertex) costs one derivative per level.  Keeping
x instead of averaging it, with the constant 1 at vertex 0, gives the dual
function.  For the norm this is the defining sum in another order.

At d = 2 both the norm and the dual follow from the cyclic correlation
c(h) = sum_x f(x) f(x + h): ||f||_{U^2}^4 = sum_h c(h)^2 / N^3 and
DF(x) = N^-2 sum_h c(h) F(x + h).  Each correlation is a real linear one,
rfft and irfft at the least 5-smooth length L >= 2N - 1, folded mod N.  N is
usually prime, and numpy's complex FFT of a prime length falls back to
Bluestein's algorithm, three complex transforms of a padded length.  At
N = 999983 on a 2-vCPU host that route took about three times as long as
these real transforms, and `znkit dual --mode fourier` peaked at 233 MB RSS
with it against 142 MB without.

Cost gating uses the nominal enumeration cost 2^d * N^(d+1) multiply-adds so
that refusal thresholds are predictable from (N, d) alone, independent of
evaluation-order tricks.

The sampled norm and dual evaluate the cube as linear forms: rows
(1, omega) over the columns (x, h_1, ..., h_d), on core's form-product
kernel.  The rows have unit coefficients, so an index is a sum of at most
d + 1 residues and the kernel gathers it from a table tiled d + 1 times
(when that fits under its cap) with no remainder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    BudgetExceededError,
    CyclicGroup,
    GridFunction,
    _form_product,
    _smooth_length,
    expectation,
    mc_mean,
    substream,
)

__all__ = [
    "DEFAULT_BUDGET",
    "CubeFamily",
    "GowersEstimate",
    "gowers_inner",
    "gowers_norm",
    "gowers_norm_u2_fourier",
    "gowers_norm_mc",
    "dual_function",
    "dual_function_u2_fourier",
    "dual_norm_u2_fourier",
]

DEFAULT_BUDGET = 10**9

_MC_CHUNK = 1 << 16


def _nominal_cost(n: int, d: int) -> int:
    return (2**d) * n ** (d + 1)


def _check_budget(n: int, d: int, budget: int, what: str) -> None:
    if _nominal_cost(n, d) > budget:
        raise BudgetExceededError(
            f"exact {what} at N={n}, d={d} needs {_nominal_cost(n, d):.2e} "
            f"multiply-adds (> budget {budget:.2e}); use gowers_norm_mc or a "
            f"monte_carlo mode, or raise the budget"
        )


@dataclass(frozen=True)
class CubeFamily:
    """One function per vertex of the discrete cube {0,1}^d."""

    dimension: int
    functions: Mapping[tuple[int, ...], GridFunction]

    def __post_init__(self) -> None:
        if self.dimension < 0:
            raise ValueError("dimension must be >= 0")
        expected = set(itertools.product((0, 1), repeat=self.dimension))
        got = set(self.functions.keys())
        if got != expected:
            raise ValueError(
                f"need exactly the 2^{self.dimension} vertices of the cube as keys"
            )
        mods = {f.group.modulus for f in self.functions.values()}
        if len(mods) != 1:
            raise ValueError("all vertex functions must share one group")

    @property
    def group(self) -> CyclicGroup:
        return next(iter(self.functions.values())).group

    @classmethod
    def constant(cls, f: GridFunction, dimension: int) -> "CubeFamily":
        verts = itertools.product((0, 1), repeat=dimension)
        return cls(dimension, {omega: f for omega in verts})


@dataclass(frozen=True)
class GowersEstimate:
    """A U^d norm value together with how it was obtained.

    raised_value is the 2^d-th power (the cube average itself); sampling can
    leave it slightly negative, in which case the norm clamps at 0.
    std_error refers to raised_value and is 0 unless mode == "monte_carlo".
    """

    norm_value: float
    raised_value: float
    mode: str
    std_error: float
    dimension: int

    @classmethod
    def from_raised(
        cls, raised: float, dimension: int, mode: str, std_error: float = 0.0
    ) -> "GowersEstimate":
        norm = max(raised, 0.0) ** (1.0 / 2**dimension)
        return cls(norm, float(raised), mode, float(std_error), dimension)

    def upper_norm(self, z: float = 2.0) -> float:
        """Norm recomputed from raised_value + z std errors (for stop tests)."""
        return max(self.raised_value + z * self.std_error, 0.0) ** (1.0 / 2**self.dimension)


def _cube_average(fs: list[np.ndarray], pointwise: bool = False):
    """E_(x,h) prod_omega fs[omega](x + omega.h), omega in itertools.product order.

    pointwise keeps x: it returns the array x -> E_h prod_omega fs[omega](x + omega.h).
    """
    n = fs[0].size
    # idx[h, x] = x + h; only the d = 2 step needs it
    idx = (np.arange(n)[:, None] + np.arange(n)) % n if len(fs) > 2 else None

    def pair_means(a, b):  # h -> E_y a(y) b(y + h)
        return (a[None, :] * b[idx]).mean(axis=1)

    def average(fs):
        if len(fs) == 2:
            return fs[0] * fs[1].mean() if pointwise else float(fs[0].mean() * fs[1].mean())
        if len(fs) == 4:
            m1 = pair_means(fs[2], fs[3])
            if pointwise:
                return fs[0] * (fs[1][idx] * m1[:, None]).mean(axis=0)
            shared = fs[0] is fs[2] and fs[1] is fs[3]
            m0 = m1 if shared else pair_means(fs[0], fs[1])
            return float((m0 * m1).mean())
        keys = [(id(a), id(b)) for a, b in zip(fs[0::2], fs[1::2])]
        pairs = dict(zip(keys, zip(fs[0::2], fs[1::2])))
        total = 0.0
        for h in range(n):
            derivs = {key: a * np.roll(b, -h) for key, (a, b) in pairs.items()}
            total += average([derivs[key] for key in keys])
        return total / n

    return average(fs)


def gowers_inner(family: CubeFamily, budget: int = DEFAULT_BUDGET) -> float:
    """Multilinear cube average of 2^d functions, one per vertex.  Exact."""
    d = family.dimension
    if d == 0:
        return expectation(family.functions[()])
    _check_budget(family.group.modulus, d, budget, "cube average")
    verts = itertools.product((0, 1), repeat=d)
    return _cube_average([family.functions[om].values for om in verts])


def gowers_norm(f: GridFunction, d: int, budget: int = DEFAULT_BUDGET) -> GowersEstimate:
    """Exact U^d norm; for d = 1 this is |E(f)|."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    _check_budget(f.group.modulus, d, budget, "uniformity norm")
    return GowersEstimate.from_raised(_cube_average([f.values] * 2**d), d, "exact")


def _spectrum(values: np.ndarray) -> np.ndarray:
    """rfft of values zero-padded to the least 5-smooth length >= 2N - 1."""
    return np.fft.rfft(values, _smooth_length(2 * values.size - 1))


def _cyclic_correlation(a_hat: np.ndarray, b_hat: np.ndarray, n: int) -> np.ndarray:
    """c(h) = sum_x a(x) b(x + h mod n), from the padded spectra of a and b.

    The inverse transform is the linear correlation: shift h >= 0 at index h,
    shift -m at index L - m.  L >= 2n - 1 keeps the two ranges apart, and
    the cyclic shift h is linear shift h plus linear shift h - n.
    """
    length = _smooth_length(2 * n - 1)
    lin = np.fft.irfft(a_hat.conj() * b_hat, length)
    out = lin[:n].copy()
    out[1:] += lin[length - n + 1 :]
    return out


def gowers_norm_u2_fourier(f: GridFunction) -> GowersEstimate:
    """U^2 norm from the autocorrelation c of f: ||f||_{U^2}^4 = sum_h c(h)^2 / N^3.

    This equals sum_xi |fhat(xi)|^4, fhat(xi) = E(f(x) e(-x xi / N)), but c
    comes from padded real transforms (see the module docstring), so a prime
    N costs no length-N complex FFT.  Cost N log N, exact to roundoff.
    """
    n = f.group.modulus
    f_hat = _spectrum(f.values)
    c = _cyclic_correlation(f_hat, f_hat, n)
    raised = float(np.sum(c * c)) / n**3
    return GowersEstimate.from_raised(raised, 2, "fourier")


def gowers_norm_mc(
    f: GridFunction, d: int, samples: int, seed: int
) -> GowersEstimate:
    """Unbiased sampling of the U^d cube average over uniform (x, h).

    Deterministic for a fixed seed regardless of chunking: chunk i draws from
    the sub-stream (seed, "gowers_mc", i).
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    n = f.group.modulus
    rows = [(1,) + om for om in itertools.product((0, 1), repeat=d)]
    weight = _form_product(f.values, rows, [0] * len(rows))

    def draw(rng, count):  # columns (x, h_1, ..., h_d)
        return weight(rng.integers(0, n, size=(count, d + 1)).T)

    est = mc_mean(draw, samples, seed, "gowers_mc", _MC_CHUNK)
    return GowersEstimate.from_raised(est.value, d, "monte_carlo", est.std_error)


def dual_function(
    F: GridFunction,
    d: int,
    mode: str = "exact",
    samples: int | None = None,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> GridFunction:
    """DF(x): average of F over the 2^d - 1 nonzero cube vertices at base x.

    Satisfies <F, DF> = ||F||_{U^d}^{2^d}.  Exact mode is gated at nominal
    cost 2^d N^(d+1); monte_carlo estimates each point from `samples` random
    h draws.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    n = F.group.modulus
    if mode == "exact":
        _check_budget(n, d, budget, "dual function")
        fs = [np.ones(n)] + [F.values] * (2**d - 1)
        return GridFunction(F.group, _cube_average(fs, pointwise=True))
    if mode == "monte_carlo":
        if samples is None or samples < 100:
            raise ValueError("monte_carlo mode needs samples >= 100")
        return _dual_mc(F, d, samples, seed)
    raise ValueError(f"unknown mode {mode!r}")


def _dual_mc(F: GridFunction, d: int, samples: int, seed: int) -> GridFunction:
    """DF(x) from `samples` draws of h, shared by the x of one chunk.

    Chunk i holds about _MC_CHUNK / samples points x and draws its h from
    substream(seed, "dual_mc", i); the product runs on the rows (1, omega),
    omega != 0, over the columns (x, h), x repeated once per draw of h.
    """
    n = F.group.modulus
    rows = [(1,) + om for om in itertools.product((0, 1), repeat=d) if any(om)]
    weight = _form_product(F.values, rows, [0] * len(rows))
    out = np.empty(n)
    x_chunk = max(1, _MC_CHUNK // samples)
    for ci, start in enumerate(range(0, n, x_chunk)):
        stop = min(start + x_chunk, n)
        h = substream(seed, "dual_mc", ci).integers(0, n, size=(samples, d))
        cols = np.empty((d + 1, (stop - start) * samples), dtype=np.int64)
        grid = cols.reshape(d + 1, stop - start, samples)
        grid[0] = np.arange(start, stop)[:, None]
        grid[1:] = h.T[:, None, :]
        out[start:stop] = weight(cols).reshape(stop - start, samples).mean(axis=1)
    return GridFunction(F.group, out)


def dual_function_u2_fourier(F: GridFunction) -> GridFunction:
    """The d = 2 dual function DF(x) = N^-2 sum_h c(h) F(x + h).

    c is the autocorrelation of F, so DF has Fourier coefficients
    |Fhat|^2 Fhat.  Both correlations run on padded real transforms (see the
    module docstring) and share the transform of F: two rffts and two
    irffts.  An independent route used to cross-check the enumeration.
    """
    n = F.group.modulus
    f_hat = _spectrum(F.values)
    c = _cyclic_correlation(f_hat, f_hat, n)
    dual = _cyclic_correlation(_spectrum(c), f_hat, n)
    dual /= float(n) ** 2
    return GridFunction(F.group, dual)


def dual_norm_u2_fourier(g: GridFunction) -> float:
    """The norm dual to U^2: the l^(4/3) norm of the Fourier coefficients."""
    n = g.group.modulus
    ghat = np.fft.fft(g.values) / n
    return float(np.sum(np.abs(ghat) ** (4.0 / 3.0)) ** 0.75)
