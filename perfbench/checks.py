"""Report checks and the independent oracles they use.

Every command's report is compared field by field with a reference:
integers, booleans and strings exactly, floats from exact routes to a
relative 1e-9, and Monte Carlo estimates within four of their reported
standard errors.  The oracles below recompute U^3 norms and U^3 dual
functions by the Fourier-derivative identities, a route that shares no
code with the enumeration inside znkit.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REL_TOL = 1e-9
ABS_TOL = 1e-15
MC_SIGMAS = 4.0


def u3_and_dual(f: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact ||f||_{U^3}^8 and the U^3 dual function D_3 f on Z_N.

    Uses ||f||_{U^3}^8 = E_h ||f f(. + h)||_{U^2}^4, where the U^2 term is
    the l^4 norm of the Fourier coefficients, and
    D_3 f(x) = E_h f(x + h) D_2[f f(. + h)](x), where D_2 g has Fourier
    coefficients |g^|^2 g^.  Cost N^2 log N instead of N^4.
    """
    n = f.size
    win = sliding_window_view(np.concatenate([f, f]), n)[:n]  # win[h] = f(. + h)
    weight = np.full(n // 2 + 1, 2.0)  # rfft bins stand for +xi and -xi
    weight[0] = 1.0
    if n % 2 == 0:
        weight[-1] = 1.0
    block = 512  # shifts per FFT batch
    raised = 0.0
    dual = np.zeros(n)
    for h0 in range(0, n, block):
        shifted = win[h0 : h0 + block]
        ghat = np.fft.rfft(f * shifted, axis=1) / n
        power = ghat.real**2 + ghat.imag**2
        raised += float(((power * power) @ weight).sum())
        d2 = np.fft.irfft(power * ghat * n, n, axis=1)
        dual += (shifted * d2).sum(axis=0)
    return raised / n, dual / n


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_exact(name: str, got, want) -> list[str]:
    """Recursive equality; floats (and ints standing for floats) to rel 1e-9."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{name}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [e for k in want for e in compare_exact(f"{name}.{k}", got[k], want[k])]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{name}: {got!r} does not match a list of {len(want)}"]
        return [e for i, (g, w) in enumerate(zip(got, want))
                for e in compare_exact(f"{name}[{i}]", g, w)]
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        return [] if got == want else [f"{name}: {got!r} != {want!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return [f"{name}: {got!r} is not a number"]
    return [] if _close(float(got), float(want)) else [f"{name}: {got!r} != {want!r}"]


def compare_same(name: str, got, want) -> list[str]:
    """Exact equality: counts, iterations, sizes, flags and labels."""
    return [] if got == want else [f"{name}: {got!r} != {want!r}"]


def compare_mc(name: str, got: float, got_se: float, want: float, want_se: float,
               power: int = 1) -> list[str]:
    """|got^power - want^power| within MC_SIGMAS of the larger std error.

    power lifts a reported norm back to the raised cube average that the
    std error refers to (2^d for a U^d norm).
    """
    se = max(float(got_se), float(want_se))
    diff = abs(float(got) ** power - float(want) ** power)
    if diff <= MC_SIGMAS * se + ABS_TOL:
        return []
    return [f"{name}: {got!r} is {diff / se if se else math.inf:.1f} std errors "
            f"from {want!r}"]


def read_column(path) -> np.ndarray:
    with open(path) as fh:
        return np.array(fh.read().split(), dtype=np.float64)
