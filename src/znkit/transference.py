"""Progression counting and the energy-increment decomposition.

The decomposition splits a function 0 <= f <= nu into a structured part
(a conditional expectation over a sigma-algebra built from level sets of
dual functions, bounded outside a small exceptional set) and a uniform
remainder with small U^(k-1) norm.  Each refinement step provably raises the
L^2 energy of the structured part by at least 2^(-2^k + 1) eps, which caps
the number of iterations: the loop stops at the first uniform remainder or,
failing that, at the smallest integer exceeding 2^(2^k)/eps + 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_BUDGET,
    GridFunction,
    SigmaAlgebra,
    _BOX_LEAF,
    _check_budget,
    _folded_correlation,
    _pairwise_sum,
    _same_group,
    _smooth_length,
    _spectrum,
    _translates,
    conditional_expectation,
    join_sigma,
    substream,
)
from .gowers import (
    GowersEstimate,
    dual_function,
    gowers_norm,
    gowers_norm_mc,
)
from .arith import _read_bits, odd_prime_bits, odd_prime_indicator

__all__ = [
    "DecompositionConfig",
    "DecompositionResult",
    "GvnReport",
    "ap_expectation",
    "gvn_check",
    "count_prime_aps",
    "build_level_sigma",
    "exceptional_set",
    "kvn_decompose",
]


def ap_expectation(fs: Sequence[GridFunction], cs: Sequence[int]) -> float:
    """E(prod_j f_j(x + c_j r) | x, r in Z_N); exact.

    Three coefficients distinct mod N take one correlation on core's
    padded real-transform kernel.  u = x + c_0 r, v = x + c_1 r is a
    bijection of Z_N^2, and x + c_2 r = (1 - l) u + l v with
    l = (c_2 - c_0) / (c_1 - c_0) mod N, so l and 1 - l are nonzero.  With
    g_0((1 - l) u) = f_0(u) and g_1(l v) = f_1(v) the average is
    N^-2 sum_s g_0(s) c(s), c(s) = sum_t g_1(t) f_2(t + s): three real
    transforms (two forward, one inverse) of the least 5-smooth length
    L >= 2N - 1, cost N log N, and no length-N complex transform.  Any other
    case (k != 3, or coefficients distinct as integers but congruent mod N)
    multiplies the translates f_j((x + c_j r) mod N), cost k N^2, summed in
    r-major order on core._pairwise_sum, each leaf from the whole rows r it meets.

    Includes the degenerate r = 0 terms; callers comparing against integer
    progression counts must subtract them explicitly.
    """
    if not fs:
        raise ValueError("need at least one function")
    if len(fs) != len(cs):
        raise ValueError("need one coefficient per function")
    if len(set(cs)) != len(cs):
        raise ValueError("coefficients must be distinct")
    _same_group(*fs)
    fs[0].group.ensure_prime()
    n = fs[0].group.modulus
    if len(cs) == 3 and len({c % n for c in cs}) == 3:
        lam = (cs[2] - cs[0]) * pow(int(cs[1] - cs[0]), -1, n) % n
        u = np.arange(n, dtype=np.int64)
        g0, g1 = np.empty(n), np.empty(n)
        g0[(1 - lam) % n * u % n] = fs[0].values
        g1[lam * u % n] = fs[1].values
        c = _folded_correlation(_spectrum(g1).conj() * _spectrum(fs[2].values), n)
        return float(g0 @ c[:n]) / n**2
    translates = [_translates(f.values) for f in fs]
    buf = np.empty((min(n, _BOX_LEAF // n + 2), n))  # the most rows r a leaf meets

    def leaf(lo: int, hi: int):
        r = np.arange(lo // n, (hi - 1) // n + 1)
        prod = buf[: r.size]
        prod[...] = translates[0][(cs[0] % n) * r % n]  # [r, x] = f_0(x + c_0 r)
        for t, c in zip(translates[1:], cs[1:]):
            prod *= t[(c % n) * r % n]
        return np.add.reduce(prod.reshape(-1)[lo - r[0] * n : hi - r[0] * n])

    return float(_pairwise_sum(n * n, leaf, max(_BOX_LEAF, n))) / n**2


@dataclass(frozen=True)
class GvnReport:
    """Fitted relation between progression averages and the weakest norm.

    pairs holds (|average|, min_j ||f_j||_{U^(k-1)}) per trial; slope is the
    least-squares constant through the origin, max_residual the largest
    excess |average| - slope * min_norm.  No universal constant is asserted.
    """

    k: int
    trials: int
    pairs: tuple[tuple[float, float], ...]
    slope: float
    max_residual: float
    seed: int


def gvn_check(
    nu: GridFunction,
    k: int,
    trials: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> GvnReport:
    """Sample tuples |f_j| <= nu + 1 and relate progression averages to norms.

    Trial functions are random pointwise scalings of nu + 1 (occasionally
    with one slot pinned at nu + 1 itself, the extreme allowed envelope).
    """
    if k < 2:
        raise ValueError(f"need k >= 2 terms per progression, got k = {k}")
    if trials < 1:
        raise ValueError(f"need trials >= 1 to fit a slope, got trials = {trials}")
    if nu.values.min() < 0:
        raise ValueError("nu must be nonnegative")
    group = nu.group
    group.ensure_prime()
    envelope = nu.values + 1.0
    d = k - 1
    pairs = []
    for trial in range(trials):
        rng = substream(seed, "gvn", trial)
        fs = []
        pin = rng.integers(0, k) if rng.random() < 0.25 else -1
        for j in range(k):
            if j == pin:
                fs.append(GridFunction(group, envelope.copy()))
            else:
                scale = rng.uniform(-1.0, 1.0, size=group.modulus)
                fs.append(GridFunction(group, scale * envelope))
        # the norms' budget gate refuses before the k N^2 progression gathers
        min_norm = min(gowers_norm(f, d, budget=budget).norm_value for f in fs)
        avg = abs(ap_expectation(fs, list(range(k))))
        pairs.append((avg, min_norm))
    sum_xy = sum(a * m for a, m in pairs)
    sum_xx = sum(m * m for _, m in pairs)
    slope = sum_xy / sum_xx if sum_xx > 0 else 0.0
    max_residual = max((a - slope * m) for a, m in pairs)
    return GvnReport(k, trials, tuple(pairs), slope, max_residual, seed)


@functools.cache
def _wheel_classes() -> tuple:
    """Per mod-6 class r of the half-indices: its live mod-210 subclasses x
    (a = r + 6 x mod 210, 2 a + 1 prime to 5 and 7) and, for each midpoint
    view s < 35 (a = 3 s + r mod 105, 2 a + 1 prime to 5 and 7) that some
    pair reaches, the pairs (row of x, row of y) of live subclasses x <= y
    with x + y = s + 35, then those with x + y = s."""
    classes = []
    for r in (0, 2, 3, 5):
        live = [x for x in range(35) if math.gcd(2 * (r + 6 * x) + 1, 35) == 1]
        pairs = [(row, col) for row in range(len(live)) for col in range(row, len(live))]
        views = []
        for s in range(35):
            if math.gcd(2 * (r + 3 * s) + 1, 35) == 1:
                shifted = tuple(p for p in pairs if live[p[0]] + live[p[1]] == s + 35)
                plain = tuple(p for p in pairs if live[p[0]] + live[p[1]] == s)
                if shifted or plain:
                    views.append((s, shifted, plain))
        classes.append((r, tuple(live), tuple(views)))
    return tuple(classes)


def _k3_wheel_shape(limit: int) -> tuple[int, int, int]:
    """(forward transforms, inverse transforms, length L') of the k = 3 count
    to limit >= 2; L' is the least 5-smooth length >= 2 len, len the size of
    the largest subclass, half-indices 0 mod 210."""
    top = (limit - 1) // 2
    wheel = _wheel_classes()
    forward = sum(len(live) for _, live, _ in wheel)
    inverse = sum(len(views) for _, _, views in wheel)
    return forward, inverse, _smooth_length(2 * (top // 210 + 1))


_TERM_CHUNK = 2**16  # entries of each view per read in _first_term_count


def _first_term_count(bits: np.ndarray, top: int, a: int) -> int:
    """3-APs (p, q, 2q - p) of primes q > p, 2q - p <= limit, for the odd
    prime p = 2a + 1, from bits = odd_prime_bits(limit) and top = (limit -
    1) // 2: 2q - p has half-index 2 a_q - a, so the ends are the bits
    a + 1, a + 2, ... and a + 2, a + 4, ..., read _TERM_CHUNK at a time."""
    h = (top + a) // 2  # largest a_q with 2 q - p <= limit
    near = np.empty(min(max(h - a, 0), _TERM_CHUNK), dtype=np.uint8)
    far = np.empty_like(near)
    count = 0
    for i in range(0, h - a, _TERM_CHUNK):
        n = min(_TERM_CHUNK, h - a - i)
        ends = _read_bits(bits, a + 1 + i, 1, near[:n])
        ends &= _read_bits(bits, a + 2 + 2 * i, 2, far[:n])
        count += int(np.count_nonzero(ends))
    return count


def _count_aps_k3_convolution(bits: np.ndarray, limit: int) -> int:
    """3-APs of primes <= limit, counted by autoconvolutions of the mod-210
    subclasses of the odd-prime bitset bits = odd_prime_bits(limit).

    2 is in no 3-AP (2m - 2 is even); write each odd prime as p = 2a + 1,
    so p, m, q is a 3-AP when a_p + a_q = 2 a_m.
    For p > 3, a = 0, 2, 3 or 5 (mod 6) and 2 a_m = 0 or 4 (mod 6); two of
    those classes sum to 0 or 4 only when both are one class, r, say.
    Class r splits into the 35 subclasses x = 0..34, a = r + 6x (mod 210),
    read from bits with stride 210; those with 2a + 1 = 0 (mod 5) or
    (mod 7) hold no prime but 5 or 7, and are dropped.  Each of the other 24
    is transformed once, in float64, at the 5-smooth length L' >= 2 len of
    the largest subclass, and its spectrum is stored rounded to complex64.
    Subclasses x <= y pair at the midpoints a_m = 105 w + 3 (x + y) + r, the
    bits of stride 105 from 3 (x + y) + r.  The view of a sum s + 35 is that
    of s shifted by one entry, so for each s < 35 the products with x + y =
    s + 35 are added up, multiplied by the phase e^(-2 pi i k / L') (a shift
    by one entry, which L' >= 2 len keeps from wrapping), the products with
    x + y = s are added (all in complex128), and the sum is doubled and
    inverted once: entry w counts the ordered pairs centred on the midpoint
    w of the view of s.  The products enter at weight 1 off the diagonal and
    1/2 on it, so the doubling gives them weights 2 and 1.  Scaling by 2 or
    1/2 is exact, so the sum equals the one that doubles each off-diagonal
    product (a zero may change sign), for two passes per view (each view has
    one diagonal product) in place of one per off-diagonal product.  A view
    whose midpoints are multiples of 5 or 7 is skipped, so a class takes 24
    forward and 24 inverse transforms.  Over all classes that counts
    2 t_m + 1 at each prime m >= 11, t_m the 3-APs centred on m with no end
    at 3, 5 or 7, and the 1 is p = q = m: the primes m >= 11 are a popcount
    of bits.  Beside bits (1/16 byte per integer), memory is the 24 complex64
    spectra of L' / 2 + 1 entries, the phase, one float buffer of L' + 2
    entries and one complex accumulator.  The accumulator takes each
    forward transform before it is rounded into its row; the float buffer
    holds each input, each inverse and then the midpoint mask, and its
    complex view is the scratch for each product; the accumulator's float
    view, once spent, holds the rounded counts.  p = 3 (a = 1) is in no
    class.  A 3-AP that holds 3, 5 or 7 has that prime as its least term,
    so the rest are the (p, q, 2q - p), q > p, for p = 3, 5 and 7, each
    counted by _first_term_count.

    Counts stay far below 2^53, so every entry of each inverse must land
    within rounding error of an integer; one that lies more than 0.25 off
    raises, and the dot of the counts with the mask is exact.  Rounding a
    spectrum entry to complex64 moves it by at most 2^-24 of its modulus,
    so a product moves by at most 2^-23 |X_x| |X_y|, and by Parseval and
    Cauchy-Schwarz each entry of an inverse moves by at most
    2^-23 sum w sqrt(n_x n_y) over the pairs of its two sums, n_x the
    primes in subclass x and w the pair's weight: 0.012 at 10^7 and 0.056
    at the cap, far inside 0.25 beside float64's own rounding.  The exact
    halving and doubling leave each term's precision, and these bounds, as
    they are.
    """
    top = (limit - 1) // 2  # largest a of an odd number <= limit
    special = sum(_first_term_count(bits, top, a) for a in (1, 2, 3))
    # one p = q = m pair per centre m >= 11, a >= 4
    total = int(bits[0] & 0x0F).bit_count() - int(np.bitwise_count(bits).sum())
    wheel = _wheel_classes()
    _, _, length = _k3_wheel_shape(limit)
    half = length // 2 + 1
    rows = max(len(live) for _, live, _ in wheel)
    spectra = np.empty((rows, half), dtype=np.complex64)
    phase = np.exp(np.arange(half) * (-2j * np.pi / length))
    acc = np.empty(half, dtype=np.complex128)
    buf = np.empty(2 * half)
    lin, prod = buf[:length], buf.view(np.complex128)
    counts = acc.view(np.float64)[:length]
    for r, live, views in wheel:
        for row, x in enumerate(live):
            size = len(range(r + 6 * x, top + 1, 210))
            _read_bits(bits, r + 6 * x, 210, lin[:size])
            lin[size:] = 0.0
            spectra[row] = np.fft.rfft(lin, n=length, out=acc)
        for s, shifted, plain in views:
            # weight 1 off the diagonal and 1/2 on it, then the sum doubled once
            for n, (row, col) in enumerate(shifted + plain):
                term = prod if n else acc
                np.multiply(spectra[row], spectra[col], out=term, dtype=np.complex128)
                if row == col:
                    term *= 0.5
                if n:
                    acc += prod
                if n + 1 == len(shifted):
                    acc *= phase
            acc *= 2.0
            conv = np.fft.irfft(acc, n=length, out=lin)
            np.rint(conv, out=counts)
            np.subtract(conv, counts, out=conv)
            residue = float(np.abs(conv, out=conv).max())
            if not residue <= 0.25:
                raise RuntimeError(
                    f"inexact pair-count transform: an entry lies {residue:.3g} from an integer"
                )
            # an index past L' - 1 lies beyond every pair sum of the class
            mask = lin[: min(len(range(3 * s + r, top + 1, 105)), length)]  # residues spent
            _read_bits(bits, 3 * s + r, 105, mask)
            total += int(np.dot(counts[: mask.size], mask))
    return total // 2 + special


def count_prime_aps(k: int, limit: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of k-term progressions of primes <= limit, difference >= 1.

    Every route reads the odd primes from one segmented sieve, bit a of
    odd_prime_bits(limit) set when 2 a + 1 is a prime <= limit; no list of
    primes and no Mobius or von Mangoldt table is built.  k = 2 is the
    closed-form pair count from one popcount of the bitset (1/16 byte per
    integer).  k = 3 runs the W-trick with W = 210 on the half-indices
    a = (p - 1) / 2 of the primes p > 7, on the bitset itself: within each
    of the four classes mod 6, which never pair across classes, the 24
    subclasses mod 210 that can hold primes are transformed once each (96
    forward transforms of 5-smooth length L' about limit / 210), the
    products of subclass pairs whose midpoint views are one view or that
    view shifted by one entry are summed and inverted once (96 inverse
    transforms), and the pair counts are read at the prime midpoints; the
    progressions (p, q, 2q - p) that start at p = 3, 5 or 7 are counted
    directly.  Beside the limit / 16-byte bitset, memory is the 24 complex64
    spectra of L' / 2 + 1 entries (4.6 MB at 10^7).  Other k read the
    unpacked indicator is_p = odd_prime_indicator(limit), half a byte per
    integer, and scan starts p
    and differences d = 6, 12, ..., 6 m_p, m_p = (limit - p) // (6 (k - 1)),
    reading each term j of all m_p progressions as one strided slice
    is_p[a + 3j : a + 3 j m_p + 1 : 3j], a = (p - 1) / 2 (budget-gated on that
    scan, sum_p (k - 1) m_p entries over every prime p, 2 included): 6
    divides the difference of every progression of four or more primes.  An
    odd d makes p + d (p odd) or p + 2d (p = 2) even and larger than 2; a d
    prime to 3 puts p, p + d, p + 2d in every residue class mod 3, so one of
    them is 3, which must be p, and then p + 3d = 3 (1 + d) is composite.
    With 6 | d, 2 + d is even, so the scan runs over the odd primes only.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if limit < 2:
        return 0
    if k == 2:
        bits = odd_prime_bits(limit)
        count = 1 + int(np.bitwise_count(bits, out=bits).sum())
        return count * (count - 1) // 2
    if k == 3:
        return _count_aps_k3_convolution(odd_prime_bits(limit), limit)
    is_p = odd_prime_indicator(limit)
    step = 6 * (k - 1)
    starts = np.flatnonzero(is_p)  # a = (p - 1) / 2 of the odd primes
    terms = (limit - 1 - 2 * starts) // step  # m_p
    cost = (k - 1) * ((limit - 2) // step + int(terms[terms > 0].sum()))
    _check_budget(cost, budget, f"start/difference scan for {k}-APs to {limit}",
                  "lower the limit")
    count = 0
    for a, m in zip(starts.tolist(), terms.tolist()):
        if m < 1:
            break
        ok = is_p[a + 3 : a + 3 * m + 1 : 3] & is_p[a + 6 : a + 6 * m + 1 : 6]
        for j in range(3, k):
            ok &= is_p[a + 3 * j : a + 3 * j * m + 1 : 3 * j]
        count += int(np.count_nonzero(ok))
    return count


# Above 2^53 neighbouring cuts j / alpha_grid near 1 lie closer together than
# the float spacing of frac, so the near-cut test cannot tell them apart.
_MAX_ALPHA_GRID = 2**53
# The level search tries at most this many cuts, so its cost is at most this
# many passes of N, whatever 1/eta is.
_CUT_TRIES = 64


def _near_cut(frac: np.ndarray, j, grid: int, eta: float) -> np.ndarray:
    """The level search's test: frac within eta of the cut j / grid on the
    circle, by the same float expression at every grid index j."""
    dist = np.abs(frac - (j % grid) / grid)
    return np.minimum(dist, 1.0 - dist) <= eta


def _level_alpha_index(
    frac: np.ndarray, nu: np.ndarray, grid: int, eta: float
) -> int:
    """Grid index j of the cut `build_level_sigma` takes: the first
    j = 0, 1, ... whose near-cut (nu + 1)-mass is at most the line, or else
    the first of least mass among the `_CUT_TRIES` tried."""
    n = frac.size
    line = 2.0 * (2.0 * eta + 1.0 / grid) * (float(nu.sum()) / n + 1.0)
    masses = []
    for j in range(min(grid, _CUT_TRIES)):
        mass = float((nu[_near_cut(frac, j, grid, eta)] + 1.0).sum()) / n
        if mass <= line:
            return j
        masses.append(mass)
    return masses.index(min(masses))


def build_level_sigma(
    G: GridFunction,
    epsilon: float,
    eta: float,
    nu: GridFunction,
    alpha_grid: int | None = None,
    value_bound: float | None = None,
) -> tuple[SigmaAlgebra, float]:
    """Partition Z_N by the level sets G in [eps(n + alpha), eps(n + 1 + alpha)).

    alpha is a cut j / alpha_grid (default alpha_grid = ceil(1/eta)) whose
    (nu + 1)-mass within eta of the cut points is O(eta), found by the
    averaging argument.  A point lies near at most 2 eta alpha_grid + 1 cuts,
    so for a measure nu >= 0 the mass averaged over the whole grid is at most
    (2 eta + 1/alpha_grid) E(nu + 1), and by Markov at least half the grid
    has at most twice that, the line.  The search tries j = 0, 1, ... in grid
    order, at most 64 of them, and takes the first j whose mass is at most
    the line; if none is, it takes the first of least mass among those tried.
    Each try is one pass of N, so the cost is at most 64 N whatever
    alpha_grid or 1/eta, and no array of alpha_grid entries is formed.  A
    grid below 1 or above 2^53 is refused.  Returns the partition and the
    chosen alpha.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0 < eta < 0.5:
        raise ValueError("eta must lie in (0, 1/2)")
    if alpha_grid is None:
        alpha_grid = math.ceil(1.0 / eta)
    if not 1 <= alpha_grid <= _MAX_ALPHA_GRID:
        raise ValueError(
            f"alpha_grid must lie in [1, 2^53], got {alpha_grid}: beyond 2^53 "
            "neighbouring cuts j / alpha_grid cannot be told apart"
        )
    _same_group(G, nu)
    if value_bound is not None:
        top = float(np.abs(G.values).max())
        if top > value_bound:
            raise ValueError(
                f"G exceeds the declared bound: max |G| = {top} > {value_bound}"
            )
    scaled = G.values / epsilon
    frac = scaled - np.floor(scaled)
    best_alpha = _level_alpha_index(frac, nu.values, alpha_grid, eta) / alpha_grid
    labels = np.floor(scaled - best_alpha).astype(np.int64)
    return SigmaAlgebra.from_labels(G.group, labels), best_alpha


def exceptional_set(sigma: SigmaAlgebra, nu: GridFunction, eta: float) -> np.ndarray:
    """Read-only mask of the union of the atoms whose (nu + 1)-mass is at
    most sqrt(eta), 0 < eta < 1/2.  nu + 1 is formed whole: np.bincount needs
    a weights array, and each atom's sum of nu plus its size rounds otherwise."""
    if not 0 < eta < 0.5:
        raise ValueError("eta must lie in (0, 1/2)")
    _same_group(sigma, nu)
    n = sigma.group.modulus
    masses = (
        np.bincount(sigma.atom_label, weights=nu.values + 1.0, minlength=sigma.atom_count)
        / n
    )
    mask = (masses <= math.sqrt(eta))[sigma.atom_label]
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True)
class DecompositionConfig:
    """Knobs for the energy-increment decomposition.

    uniformity_mode "exact" evaluates U^(k-1) norms and dual functions
    exactly (one derivative recursion, budget-gated); "monte_carlo" samples
    both and the stopping rule then
    compares estimate + 2 std errors against the threshold, so sampling
    noise cannot cause an early stop.
    """

    k: int
    epsilon: float
    eta: float = 0.0
    uniformity_mode: str = "exact"
    samples: int = 200_000
    seed: int = 0
    max_iterations_override: int | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError("k must be >= 3")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.eta == 0.0:
            object.__setattr__(self, "eta", self.epsilon / 10.0)
        if not 0 < self.eta < 0.5:
            raise ValueError("eta must lie in (0, 1/2)")
        if self.eta >= self.epsilon:
            raise ValueError("eta must be smaller than epsilon")
        if math.ceil(1.0 / self.eta) > _MAX_ALPHA_GRID:
            raise ValueError(
                f"eta = {self.eta} is too small: its level grid ceil(1/eta) "
                "exceeds 2^53 cut points"
            )
        if self.uniformity_mode not in ("exact", "monte_carlo"):
            raise ValueError("uniformity_mode must be 'exact' or 'monte_carlo'")

    @property
    def iteration_cap(self) -> int:
        """Smallest integer exceeding 2^(2^k)/epsilon + 1, unless overridden."""
        if self.max_iterations_override is not None:
            return self.max_iterations_override
        return math.floor(2 ** (2**self.k) / self.epsilon) + 2

    @property
    def uniformity_threshold(self) -> float:
        return self.epsilon ** (1.0 / 2**self.k)


@dataclass(frozen=True)
class DecompositionResult:
    """Output of the decomposition.

    f_uniform + f_antiuniform reconstructs f off the exceptional set, whose
    read-only boolean mask is omega;
    energy_trace[i] is the structured energy before refinement i, and
    iteration_log carries one record per loop pass for serialization.
    """

    sigma: SigmaAlgebra
    omega: np.ndarray
    f_uniform: GridFunction
    f_antiuniform: GridFunction
    energy_trace: tuple[float, ...]
    iterations: int
    final_uniformity: GowersEstimate
    terminated_successfully: bool
    iteration_log: tuple[dict, ...] = field(default=())


def _step_seed(seed: int, step: int) -> int:
    return (seed * 1_000_003 + step) & 0xFFFFFFFFFFFFFFFF


def kvn_decompose(
    f: GridFunction, nu: GridFunction, config: DecompositionConfig
) -> DecompositionResult:
    """Split 0 <= f <= nu into structured plus uniform parts.

    Loop: starting from the trivial partition and an empty exceptional set,
    project once onto B, E(f|B), and record the energy of the structured
    part (1 - 1_Omega) E(f|B) and the residual (1 - 1_Omega)(f - E(f|B));
    stop once the residual's U^(k-1) norm is at most epsilon^(1/2^k).
    Otherwise take the residual's dual function, refine B with its level-set
    partition, enlarge Omega with the newly small atoms (Omega only ever
    grows), and repeat.  The last pass's structured part is f_antiuniform.
    A hard cap on refinements marks the run unsuccessful instead of looping
    forever.
    """
    _same_group(f, nu)
    gap = f.values - nu.values
    worst = int(np.argmax(gap))
    if f.values.min() < 0 or gap[worst] > 0:
        raise ValueError(
            "need 0 <= f <= nu pointwise; worst residue "
            f"{worst}: f = {f.values[worst]}, nu = {nu.values[worst]}"
        )
    del gap
    group = f.group
    d = config.k - 1
    dual_bound = float(2 ** (2 ** (config.k - 1)))
    sigma = SigmaAlgebra.trivial(group)
    omega = np.zeros(group.modulus, dtype=bool)
    log: list[dict] = []
    iterations = 0
    success = False
    final_est: GowersEstimate
    while True:
        proj = conditional_expectation(f, sigma).values
        anti = np.where(omega, 0.0, proj)
        residual = GridFunction(group, np.where(omega, 0.0, f.values - proj))
        del proj
        if config.uniformity_mode == "exact":
            est = gowers_norm(residual, d, budget=config.budget)
        else:
            est = gowers_norm_mc(residual, d, config.samples,
                                 _step_seed(config.seed, iterations), config.budget)
        record = {
            "K": iterations,
            "energy": float((anti * anti).mean()),
            "uniformity": est.norm_value,
            "uniformity_stderr": est.std_error,
            "atom_count": sigma.atom_count,
            "omega_mass": float((nu.values[omega] + 1.0).sum() / group.modulus),
            "chosen_alpha": None,
        }
        log.append(record)
        if est.upper_norm(2.0) <= config.uniformity_threshold:
            success = True
            final_est = est
            break
        if iterations >= config.iteration_cap:
            final_est = est
            break
        del anti  # both are rebuilt by the next pass before any break
        dual = dual_function(  # sampled: config.samples // 100 draws per point
            residual, d, mode=config.uniformity_mode,
            samples=max(100, config.samples // 100),
            seed=_step_seed(config.seed, iterations), budget=config.budget,
        )
        del residual
        level, alpha = build_level_sigma(
            dual, config.epsilon, config.eta, nu, value_bound=dual_bound
        )
        sigma = join_sigma([sigma, level])
        omega = omega | exceptional_set(sigma, nu, config.eta)
        record["chosen_alpha"] = alpha
        iterations += 1
    omega.setflags(write=False)
    return DecompositionResult(
        sigma=sigma,
        omega=omega,
        f_uniform=residual,
        f_antiuniform=GridFunction(group, anti),
        energy_trace=tuple(record["energy"] for record in log),
        iterations=iterations,
        final_uniformity=final_est,
        terminated_successfully=success,
        iteration_log=tuple(log),
    )
