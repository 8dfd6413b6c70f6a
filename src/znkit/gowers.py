"""Uniformity norms over combinatorial cubes, dual functions, and the
degree-2 Fourier shortcuts.

The U^d norm of f is the 2^d-th root of the average of the product of f over
all cubes {x + omega.h : omega in {0,1}^d}, x in Z_N, h in Z_N^d.  Exact
evaluation is one recursion on the last cube coordinate: for fixed h_d the
2^d vertex functions pair up into the 2^(d-1) derivatives
f_(omega',0) f_(omega',1)(. + h_d), and the d-cube average is the average
over h_d of the (d-1)-cube averages of those derivatives.  A block of shifts
(about 2^20 floats of derivatives) is read off the translates of a doubled
array as a batch of rows.  A pair holding one array twice is multiplied
once, so the norm costs one derivative per level; and as Delta_(-h) f is a
translate of Delta_h f, a level whose vertices all hold one array (the
norm's) takes only the shifts 0 <= h <= N/2, with 0 < h < N/2 counted
twice.  d = 1 is a product of two means.  At d = 2 the cube average of a
row is
sum_h c_(f00,f01)(h) c_(f10,f11)(h) / N^3, c_(a,b)(h) = sum_x a(x) b(x + h);
keeping x, with the constant 1 at vertex 0, gives the dual function
N^-2 sum_h c_(f10,f11)(h) f01(x + h).  Each correlation is rfft and irfft
at the least 5-smooth length L >= 2N - 1, folded mod N, on core's
correlation kernel (_spectrum, _folded_correlation): no length-N complex
FFT, which for prime N is Bluestein's three padded transforms (at
N = 999983 on a 2-vCPU host about three times the time, and 234 MB peak
RSS against 118 MB for `znkit dual --mode fourier --output`).

Exact evaluation is gated on its nominal cost, a function of (N, d) alone:
2N for d = 1, else 2^d N^(d-2) L ceil(log2 L).  The sampled norm and dual
are gated before they build their 2^d rows, at 2^d samples and 2^d samples N
gathers.  They evaluate the cube as linear forms, rows (1, omega) over the
columns (x, h_1, ..., h_d), on core's form-product kernel, which gathers
each index (a sum of at most d + 1 residues) from a table tiled d + 1 times,
when that fits, with no remainder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    CyclicGroup,
    GridFunction,
    GroupMismatchError,
    _BLOCK,
    _SHIFT_BLOCK,
    _check_budget,
    _folded_correlation,
    _form_product,
    _smooth_length,
    _spectrum,
    _translates,
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
]

DEFAULT_BUDGET = 10**9

_MC_CHUNK = 1 << 16


def _check_exact(n: int, d: int, budget: int, what: str) -> None:
    length = _smooth_length(2 * n - 1)  # nominal cost: one length-L transform per row
    cost = 2 * n if d == 1 else 2**d * n ** (d - 2) * length * (length - 1).bit_length()
    _check_budget(cost, budget, f"exact {what} at N={n}, d={d}",
                  "use gowers_norm_mc or a monte_carlo mode")


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
            raise GroupMismatchError("all vertex functions must share one group")

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


def _u2_leaf(fs: list, pointwise: bool):
    """sum_h c_(f0,f1)(h) c_(f2,f3)(h) / N^3 summed over the rows, or pointwise
    f0(x) N^-2 sum_h c_(f2,f3)(h) f1(x + h), f0 = None the constant 1.  Each
    distinct array is transformed once, and each spectrum is dropped once its
    last product is formed."""
    n = fs[1].shape[-1]
    hat = {id(a): a for a in (fs[1:] if pointwise else fs)}
    hat = {key: _spectrum(a) for key, a in hat.items()}
    prod = _product(hat, fs[2], fs[3])
    if pointwise:
        b_hat = hat[id(fs[1])]
        del hat
        c = _folded_correlation(prod, n)
        del prod
        c[..., n:] = 0.0
        prod = np.fft.rfft(c)
        del c
        np.conjugate(prod, out=prod)
        prod *= b_hat
        del b_hat
        out = _folded_correlation(prod, n)[..., :n]
        out /= float(n) ** 2
        if fs[0] is not None:
            out *= fs[0]
        return out
    shared = fs[0] is fs[2] and fs[1] is fs[3]
    prod0 = None if shared else _product(hat, fs[0], fs[1])
    del hat
    c = _folded_correlation(prod, n)[..., :n]
    c0 = c if shared else _folded_correlation(prod0, n)[..., :n]
    return float(np.sum(c0 * c)) / n**3


def _product(hat: dict, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """conj(a_hat) * b_hat, formed in one new array."""
    prod = hat[id(a)].conj()
    prod *= hat[id(b)]
    return prod


def _derivative_recursion(fs: list, pointwise: bool = False):
    """E_(x,h) prod_omega fs[omega](x + omega.h), omega in itertools.product order,
    summed over the rows of the (..., N) arrays fs; pointwise keeps x, with
    fs[0] = None for the constant 1."""
    n = fs[-1].shape[-1]
    if len(fs) == 2:
        if pointwise:
            return np.full(n, fs[1].mean())
        return float(fs[0].mean() * fs[1].mean())
    if len(fs) == 4:
        return _u2_leaf(fs, pointwise)
    keys = [(id(a), id(b)) for a, b in zip(fs[0::2], fs[1::2])]
    pairs = dict(zip(keys, zip(fs[0::2], fs[1::2])))
    shifted = {id(b): _translates(b) for _, b in pairs.values()}
    step = max(1, _SHIFT_BLOCK // fs[-1].size)
    total = np.zeros(fs[-1].shape) if pointwise else 0.0
    if all(a is fs[0] for a in fs):
        # one array f at every vertex: Delta_(-h) f is Delta_h f translated by
        # -h, so shifts h and N - h have one cube average; 0 < h < N/2 count
        # twice, h = 0 and (even N) h = N/2 once
        blocks = [(0, 1, 1.0)]
        blocks += [(start, min(start + step, (n + 1) // 2), 2.0)
                   for start in range(1, (n + 1) // 2, step)]
        blocks += [(n // 2, n // 2 + 1, 1.0)] if n % 2 == 0 else []
    else:
        blocks = [(start, min(start + step, n), 1.0) for start in range(0, n, step)]
    for start, stop, weight in blocks:
        derivs = {}
        for key, (a, b) in pairs.items():
            tb = shifted[id(b)][..., start:stop, :]  # [..., h, x] = b(x + h)
            derivs[key] = (tb if a is None else a[..., None, :] * tb).reshape(-1, n)
        inner = _derivative_recursion([derivs[key] for key in keys], pointwise)
        if pointwise:
            total += inner.reshape(*fs[-1].shape[:-1], stop - start, n).sum(axis=-2)
        else:
            total += weight * inner
    return total / n


def gowers_inner(family: CubeFamily, budget: int = DEFAULT_BUDGET) -> float:
    """Multilinear cube average of 2^d functions, one per vertex.  Exact."""
    d = family.dimension
    if d == 0:
        return expectation(family.functions[()])
    _check_exact(family.group.modulus, d, budget, "cube average")
    verts = itertools.product((0, 1), repeat=d)
    return _derivative_recursion([family.functions[om].values for om in verts])


def gowers_norm(f: GridFunction, d: int, budget: int = DEFAULT_BUDGET) -> GowersEstimate:
    """Exact U^d norm; for d = 1 this is |E(f)|, for d = 2 the Fourier route."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    _check_exact(f.group.modulus, d, budget, "uniformity norm")
    return GowersEstimate.from_raised(_derivative_recursion([f.values] * 2**d), d, "exact")


def gowers_norm_u2_fourier(f: GridFunction) -> GowersEstimate:
    """U^2 norm from the autocorrelation c of f: ||f||_{U^2}^4 = sum_h c(h)^2 / N^3.

    This equals sum_xi |fhat(xi)|^4, fhat(xi) = E(f(x) e(-x xi / N)), but c
    comes from padded real transforms; the same float as gowers_norm(f, 2).
    """
    raised = _u2_leaf([f.values] * 4, pointwise=False)
    return GowersEstimate.from_raised(raised, 2, "fourier")


def gowers_norm_mc(
    f: GridFunction, d: int, samples: int, seed: int, budget: int = DEFAULT_BUDGET
) -> GowersEstimate:
    """Unbiased sampling of the U^d cube average over uniform (x, h).

    Deterministic for a fixed seed regardless of chunking: chunk i draws from
    the sub-stream (seed, "gowers_mc", i).  Gated at 2^d * samples gathers.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    n = f.group.modulus
    _check_budget(2**d * samples, budget, f"sampled U^{d} norm", "lower d or samples")
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

    Satisfies <F, DF> = ||F||_{U^d}^{2^d}.  Exact mode runs the derivative
    recursion, gated at its nominal cost; monte_carlo estimates each point
    from `samples` random h draws, gated at 2^d * samples * N gathers.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    n = F.group.modulus
    if mode == "exact":
        _check_exact(n, d, budget, "dual function")
        fs = [None] + [F.values] * (2**d - 1)
        return GridFunction(F.group, _derivative_recursion(fs, pointwise=True))
    if mode == "monte_carlo":
        if samples is None or samples < 100:
            raise ValueError("monte_carlo mode needs samples >= 100")
        _check_budget(2**d * samples * n, budget, f"sampled dual at N={n}, d={d}",
                      "lower d or samples")
        return _dual_mc(F, d, samples, seed)
    raise ValueError(f"unknown mode {mode!r}")


def _dual_mc(F: GridFunction, d: int, samples: int, seed: int) -> GridFunction:
    """DF(x) from `samples` draws of h, shared by the x of one chunk.

    Chunk i holds about _MC_CHUNK / samples points x and draws its h from
    substream(seed, "dual_mc", i); the product runs on the rows (1, omega),
    omega != 0, over the columns (x, h), x repeated once per draw of h.
    The columns are built for about _BLOCK / samples points x at a time, in
    one buffer whose h rows are written once per chunk.
    """
    n = F.group.modulus
    rows = [(1,) + om for om in itertools.product((0, 1), repeat=d) if any(om)]
    weight = _form_product(F.values, rows, [0] * len(rows))
    out = np.empty(n)
    x_chunk = max(1, _MC_CHUNK // samples)
    x_block = max(1, _BLOCK // samples)
    for ci, start in enumerate(range(0, n, x_chunk)):
        stop = min(start + x_chunk, n)
        h = substream(seed, "dual_mc", ci).integers(0, n, size=(samples, d))
        grid = np.empty((d + 1, min(x_block, stop - start), samples), dtype=np.int64)
        grid[1:] = h.T[:, None, :]
        for lo in range(start, stop, x_block):
            hi = min(lo + x_block, stop)
            block = grid[:, : hi - lo]
            block[0] = np.arange(lo, hi)[:, None]
            cols = block.reshape(d + 1, (hi - lo) * samples)
            out[lo:hi] = weight(cols).reshape(hi - lo, samples).mean(axis=1)
    return GridFunction(F.group, out)


def dual_function_u2_fourier(F: GridFunction) -> GridFunction:
    """The d = 2 dual function DF(x) = N^-2 sum_h c(h) F(x + h).

    c is the autocorrelation of F, so DF has Fourier coefficients
    |Fhat|^2 Fhat: two rffts and two irffts, the same array as
    dual_function(F, 2).
    """
    v = F.values
    return GridFunction(F.group, _u2_leaf([None, v, v, v], pointwise=True))
