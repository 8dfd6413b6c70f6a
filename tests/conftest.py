import math

import numpy as np
import pytest

from znkit import CyclicGroup, GridFunction, SigmaAlgebra, build_sieve, substream


@pytest.fixture(scope="session")
def sieve_1e6():
    return build_sieve(10**6)


@pytest.fixture(scope="session")
def sieve_1e4():
    return build_sieve(10**4)


def random_function(group: CyclicGroup, rng, scale: float = 1.0) -> GridFunction:
    return GridFunction(group, rng.normal(size=group.modulus) * scale)


def random_partition(group: CyclicGroup, rng, atoms: int) -> SigmaAlgebra:
    n = group.modulus
    atoms = min(atoms, n)
    labels = rng.integers(0, atoms, size=n)
    # guarantee every label is hit
    labels[rng.permutation(n)[:atoms]] = np.arange(atoms)
    return SigmaAlgebra.from_labels(group, labels)


def first_occurrence_labels(keys) -> list[int]:
    """The distinct keys numbered 0, 1, ... as they first occur, in pure
    Python: the oracle for canonical relabelling."""
    seen: dict = {}
    return [seen.setdefault(key, len(seen)) for key in keys]


def atoms_by_comparison(algebra: SigmaAlgebra) -> list[np.ndarray]:
    """The atoms as sorted residue arrays, in label order, one N-length
    comparison per atom."""
    return [np.flatnonzero(algebra.atom_label == k) for k in range(algebra.atom_count)]


def two_pass_mc_mean(draw, samples: int, seed: int, stream: str, chunk: int):
    """(mean, std error) as core.mc_mean first computed them, with fresh
    arrays for each chunk's deviations and squares: the samplers' oracle."""
    total = m2 = 0.0
    for i, done in enumerate(range(0, samples, chunk)):
        count = min(chunk, samples - done)
        vals = draw(substream(seed, stream, i), count)
        chunk_total = float(vals.sum())
        dev = vals - chunk_total / count
        m2 += float((dev * dev).sum())
        if done:
            delta = chunk_total / count - total / done
            m2 += delta * delta * done * count / (done + count)
        total += chunk_total
    return total / samples, math.sqrt(m2 / (samples - 1) / samples)


def enumerated_cube_average(fs, pointwise: bool = False):
    """E_(x,h) prod_omega fs[omega](x + omega.h), omega in itertools.product order.

    The vectorised enumeration oracle for the exact U^d routes: d = 2 is one
    N x N index-grid step, each level above it a loop over h of np.roll
    derivatives, and no transform anywhere.  pointwise keeps x: it returns
    the array x -> E_h prod_omega fs[omega](x + omega.h).
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


def enumerated_norm(f: GridFunction, d: int) -> float:
    """||f||_{U^d}^(2^d) by enumeration."""
    return enumerated_cube_average([f.values] * 2**d)


def enumerated_dual(F: GridFunction, d: int) -> np.ndarray:
    """The dual function D_d F by enumeration, the constant 1 at vertex 0."""
    n = F.group.modulus
    return enumerated_cube_average([np.ones(n)] + [F.values] * (2**d - 1), pointwise=True)
