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

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    BudgetExceededError,
    GridFunction,
    GroupMismatchError,
    SigmaAlgebra,
    conditional_expectation,
    join_sigma,
    substream,
)
from .gowers import (
    DEFAULT_BUDGET,
    GowersEstimate,
    dual_function,
    dual_function_u2_fourier,
    gowers_norm,
    gowers_norm_mc,
    gowers_norm_u2_fourier,
)
from .arith import build_sieve

__all__ = [
    "DecompositionConfig",
    "DecompositionResult",
    "GvnReport",
    "ap_expectation",
    "gvn_check",
    "count_prime_aps",
    "build_level_sigma",
    "exceptional_set",
    "energy",
    "kvn_decompose",
]


def ap_expectation(fs: Sequence[GridFunction], cs: Sequence[int]) -> float:
    """E(prod_j f_j(x + c_j r) | x, r in Z_N); exact, cost N^2 products.

    Includes the degenerate r = 0 terms; callers comparing against integer
    progression counts must subtract them explicitly.
    """
    if len(fs) != len(cs):
        raise ValueError("need one coefficient per function")
    if len(set(cs)) != len(cs):
        raise ValueError("coefficients must be distinct")
    group = fs[0].group
    for f in fs[1:]:
        if f.group.modulus != group.modulus:
            raise GroupMismatchError("all functions must share one group")
    group.ensure_prime()
    n = group.modulus
    total = 0.0
    for r in range(n):
        prod = np.ones(n)
        for f, c in zip(fs, cs):
            prod *= np.roll(f.values, -((c * r) % n))
        total += float(prod.mean())
    return total / n


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


def _uniformity_norm_exact(f: GridFunction, d: int, budget: int) -> GowersEstimate:
    if d == 2:
        return gowers_norm_u2_fourier(f)
    return gowers_norm(f, d, budget=budget)


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
        avg = abs(ap_expectation(fs, list(range(k))))
        min_norm = min(
            _uniformity_norm_exact(f, d, budget).norm_value for f in fs
        )
        pairs.append((avg, min_norm))
    sum_xy = sum(a * m for a, m in pairs)
    sum_xx = sum(m * m for _, m in pairs)
    slope = sum_xy / sum_xx if sum_xx > 0 else 0.0
    max_residual = max((a - slope * m) for a, m in pairs)
    return GvnReport(k, trials, tuple(pairs), slope, max_residual, seed)


def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a transform length the FFT handles fast."""
    top = max(n - 1, 0)
    best = 1 << top.bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            best = min(best, odd << (top // odd).bit_length())
            odd *= 3
        five *= 5
    return best


def _count_aps_k3_convolution(primes: np.ndarray, limit: int) -> int:
    """3-APs of primes <= limit, counted by an odd-only autoconvolution.

    2 starts no 3-AP (2m - 2 is even), so write each odd prime as
    p = 2a + 1; the midpoint of p and q = 2b + 1 is m = a + b + 1.  The
    indicator of a over the (limit + 1) // 2 odd numbers up to limit is
    squared in Fourier space at a 5-smooth length S >= 2 len - 1, so the
    cyclic product is the linear one, and entry m - 1 of the inverse
    transform counts the ordered pairs (p, q) with p + q = 2m, including
    p = q = m.  Only those entries are read, at the odd prime midpoints m,
    and (pairs - 1) // 2 of them is the number of 3-APs centred on m.
    Counts stay far below 2^53, so each entry must land within rounding
    error of an integer; one that lies more than 0.25 off raises.
    """
    half = primes[primes > 2] // 2  # a = (p - 1) / 2
    if half.size == 0:
        return 0
    size = (limit + 1) // 2
    length = _smooth_length(2 * size - 1)
    x = np.zeros(size, dtype=np.float64)
    x[half] = 1.0
    spectrum = np.fft.rfft(x, n=length)
    del x
    spectrum *= spectrum
    pairs = np.fft.irfft(spectrum, n=length)[2 * half]  # m - 1 = 2a for m = p
    counts = np.rint(pairs)
    residue = float(np.abs(pairs - counts).max())
    if residue > 0.25:
        raise RuntimeError(
            f"inexact pair-count transform: an entry lies {residue:.3g} from an integer"
        )
    return int(((counts.astype(np.int64) - 1) // 2).sum())


def count_prime_aps(k: int, limit: int, budget: int = 10**9) -> int:
    """Exact number of k-term progressions of primes <= limit, difference >= 1.

    k = 2 is the closed-form pair count.  k = 3 squares the spectrum of the
    odd primes' half-indices (p - 1) / 2, a transform of 5-smooth length
    about limit, and reads the pair counts at the odd prime midpoints only;
    of the sieve it keeps just the primes, so the tables are freed before
    the transform.  Other k scan starts and differences (budget-gated).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if limit < 2:
        return 0
    primes = build_sieve(limit).primes
    if k == 2:
        return int(primes.size) * (int(primes.size) - 1) // 2
    if k == 3:
        return _count_aps_k3_convolution(primes, limit)
    if int(primes.size) * limit > budget:
        raise BudgetExceededError(
            f"start/difference scan needs ~{int(primes.size) * limit:.2e} ops "
            f"(> budget {budget:.2e})"
        )
    is_prime = np.zeros(limit + 1, dtype=bool)
    is_prime[primes] = True
    count = 0
    for p in primes.tolist():
        max_d = (limit - p) // (k - 1)
        if max_d < 1:
            break
        ds = np.arange(1, max_d + 1, dtype=np.int64)
        ok = np.ones(max_d, dtype=bool)
        for j in range(1, k):
            ok &= is_prime[p + j * ds]
        count += int(ok.sum())
    return count


def build_level_sigma(
    G: GridFunction,
    epsilon: float,
    eta: float,
    nu: GridFunction,
    alpha_grid: int | None = None,
    value_bound: float | None = None,
) -> tuple[SigmaAlgebra, float]:
    """Partition Z_N by the level sets G in [eps(n + alpha), eps(n + 1 + alpha)).

    alpha is chosen from an equispaced grid in [0, 1) to minimize the
    (nu + 1)-mass within eta of the cut points; the minimum is no worse than
    the grid average, which is O(eta) for any measure of mean O(1).  Returns
    the partition and the chosen alpha.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0 < eta < 0.5:
        raise ValueError("eta must lie in (0, 1/2)")
    if G.group.modulus != nu.group.modulus:
        raise GroupMismatchError("G and nu must share a group")
    if value_bound is not None:
        top = float(np.abs(G.values).max())
        if top > value_bound:
            raise ValueError(
                f"G exceeds the declared bound: max |G| = {top} > {value_bound}"
            )
    if alpha_grid is None:
        alpha_grid = math.ceil(1.0 / eta)
    scaled = G.values / epsilon
    frac = scaled - np.floor(scaled)
    weights = nu.values + 1.0
    best_alpha = 0.0
    best_mass = math.inf
    for j in range(alpha_grid):
        alpha = j / alpha_grid
        dist = np.abs(frac - alpha)
        dist = np.minimum(dist, 1.0 - dist)
        mass = float(weights[dist <= eta].sum()) / G.group.modulus
        if mass < best_mass - 1e-15:
            best_mass = mass
            best_alpha = alpha
    labels = np.floor(scaled - best_alpha).astype(np.int64)
    return SigmaAlgebra.from_labels(G.group, labels), best_alpha


def exceptional_set(sigma: SigmaAlgebra, nu: GridFunction, eta: float) -> np.ndarray:
    """Read-only mask of the union of the atoms whose (nu + 1)-mass is at
    most sqrt(eta)."""
    sigma._check_same_group(nu)
    n = sigma.group.modulus
    masses = (
        np.bincount(sigma.atom_label, weights=nu.values + 1.0, minlength=sigma.atom_count)
        / n
    )
    mask = (masses <= math.sqrt(eta))[sigma.atom_label]
    mask.setflags(write=False)
    return mask


def energy(f: GridFunction, sigma: SigmaAlgebra, omega: np.ndarray) -> float:
    """Squared L^2 norm of the conditional expectation outside the mask omega."""
    if omega.dtype != bool or omega.shape != (f.group.modulus,):
        raise ValueError("omega must be a boolean mask with one entry per residue")
    proj = np.where(omega, 0.0, conditional_expectation(f, sigma).values)
    return float((proj * proj).mean())


@dataclass(frozen=True)
class DecompositionConfig:
    """Knobs for the energy-increment decomposition.

    uniformity_mode "exact" evaluates U^(k-1) norms and dual functions
    exactly (via the Fourier route for k = 3, enumeration otherwise,
    budget-gated); "monte_carlo" samples both and the stopping rule then
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


def _estimate_uniformity(
    f: GridFunction, d: int, config: DecompositionConfig, step: int
) -> GowersEstimate:
    if config.uniformity_mode == "exact":
        try:
            return _uniformity_norm_exact(f, d, config.budget)
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"{exc}; rerun with uniformity_mode='monte_carlo'"
            ) from exc
    return gowers_norm_mc(f, d, config.samples, _step_seed(config.seed, step))


def _step_seed(seed: int, step: int) -> int:
    return (seed * 1_000_003 + step) & 0xFFFFFFFFFFFFFFFF


def _dual_for_step(
    f: GridFunction, d: int, config: DecompositionConfig, step: int
) -> GridFunction:
    if config.uniformity_mode == "exact":
        if d == 2:
            return dual_function_u2_fourier(f)
        return dual_function(f, d, mode="exact", budget=config.budget)
    samples_per_point = max(100, config.samples // 100)
    return dual_function(
        f, d, mode="monte_carlo", samples=samples_per_point,
        seed=_step_seed(config.seed, step),
    )


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
    if f.group.modulus != nu.group.modulus:
        raise GroupMismatchError("f and nu must share a group")
    gap = f.values - nu.values
    worst = int(np.argmax(gap))
    if f.values.min() < 0 or gap[worst] > 0:
        raise ValueError(
            "need 0 <= f <= nu pointwise; worst residue "
            f"{worst}: f = {f.values[worst]}, nu = {nu.values[worst]}"
        )
    group = f.group
    d = config.k - 1
    dual_bound = float(2 ** (2 ** (config.k - 1)))
    sigma = SigmaAlgebra.trivial(group)
    omega = np.zeros(group.modulus, dtype=bool)
    nu_plus = nu.values + 1.0
    log: list[dict] = []
    iterations = 0
    success = False
    final_est: GowersEstimate
    while True:
        proj = conditional_expectation(f, sigma).values
        anti = np.where(omega, 0.0, proj)
        residual = GridFunction(group, np.where(omega, 0.0, f.values - proj))
        est = _estimate_uniformity(residual, d, config, iterations)
        record = {
            "K": iterations,
            "energy": float((anti * anti).mean()),
            "uniformity": est.norm_value,
            "uniformity_stderr": est.std_error,
            "atom_count": sigma.atom_count,
            "omega_mass": float(nu_plus[omega].sum() / group.modulus),
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
        dual = _dual_for_step(residual, d, config, iterations)
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
