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
