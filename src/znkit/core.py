"""Measure-theoretic primitives on the cyclic group Z_N.

Functions on Z_N are stored densely as float64 vectors.  Expectations use
numpy's pairwise reduction, which keeps results deterministic and accurate
to ~1e-13 relative error for N up to 10^7.  Everything here is pure: values
and partitions are frozen after construction, so concurrent reads are safe.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ._primality import is_prime_64

__all__ = [
    "GroupMismatchError",
    "BudgetExceededError",
    "CyclicGroup",
    "GridFunction",
    "SigmaAlgebra",
    "EstimatorResult",
    "expectation",
    "inner_product",
    "lq_norm",
    "conditional_expectation",
    "join_sigma",
    "atoms_of",
    "substream",
    "mc_mean",
]


class GroupMismatchError(ValueError):
    """Operands live on different cyclic groups."""


class BudgetExceededError(RuntimeError):
    """An exact enumeration would exceed the caller's cost budget."""


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Named RNG sub-stream derived from a single 64-bit seed.

    Worker/chunk i must use ``substream(seed, ..., i)`` so that results do
    not depend on how work is split.  String path components are hashed
    stably (blake2s), so streams are reproducible across runs and platforms.
    """
    key = []
    for part in path:
        if isinstance(part, str):
            digest = hashlib.blake2s(part.encode("utf-8"), digest_size=8).digest()
            key.append(int.from_bytes(digest, "little"))
        else:
            key.append(int(part) & 0xFFFFFFFFFFFFFFFF)
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class CyclicGroup:
    """Z_N with residues identified with {0, ..., N-1}."""

    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

    @property
    def is_prime(self) -> bool:
        return is_prime_64(self.modulus)

    def ensure_prime(self) -> None:
        """Raise unless N is prime (needed wherever small integers get inverted mod N)."""
        if not self.is_prime:
            raise ValueError(f"operation requires a prime modulus, got {self.modulus}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GridFunction:
    """A real-valued function on Z_N, stored densely."""

    group: CyclicGroup
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.shape != (self.group.modulus,):
            raise ValueError(
                f"expected {self.group.modulus} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite (no NaN/Inf)")
        object.__setattr__(self, "values", _freeze(vals))

    @classmethod
    def from_values(cls, group: CyclicGroup, values: Iterable[float]) -> "GridFunction":
        return cls(group, np.asarray(list(values) if not isinstance(values, np.ndarray) else values))

    @classmethod
    def constant(cls, group: CyclicGroup, c: float) -> "GridFunction":
        return cls(group, np.full(group.modulus, float(c)))

    @classmethod
    def indicator(cls, group: CyclicGroup, residues: Iterable[int]) -> "GridFunction":
        vals = np.zeros(group.modulus)
        idx = np.asarray(sorted({r % group.modulus for r in residues}), dtype=np.int64)
        if idx.size:
            vals[idx] = 1.0
        return cls(group, vals)

    def _check_same_group(self, other: "GridFunction") -> None:
        if self.group.modulus != other.group.modulus:
            raise GroupMismatchError(
                f"groups differ: Z_{self.group.modulus} vs Z_{other.group.modulus}"
            )

    def __add__(self, other):
        if isinstance(other, GridFunction):
            self._check_same_group(other)
            return GridFunction(self.group, self.values + other.values)
        return GridFunction(self.group, self.values + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            self._check_same_group(other)
            return GridFunction(self.group, self.values - other.values)
        return GridFunction(self.group, self.values - float(other))

    def __rsub__(self, other):
        return GridFunction(self.group, float(other) - self.values)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._check_same_group(other)
            return GridFunction(self.group, self.values * other.values)
        return GridFunction(self.group, self.values * float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.group, -self.values)

    def shift(self, h: int) -> "GridFunction":
        """x -> f(x + h), reduced into {0, ..., N-1}."""
        return GridFunction(self.group, np.roll(self.values, -(h % self.group.modulus)))


@dataclass(frozen=True)
class SigmaAlgebra:
    """A partition of Z_N into labeled atoms.

    Labels are canonical: atom j's smallest residue is increasing in j, so
    equal partitions have equal label arrays and joins are deterministic.
    """

    group: CyclicGroup
    atom_label: np.ndarray
    atom_count: int

    def __post_init__(self) -> None:
        labels = np.ascontiguousarray(self.atom_label, dtype=np.int64)
        if labels.shape != (self.group.modulus,):
            raise ValueError("atom_label must assign a label to every residue")
        if self.atom_count < 1:
            raise ValueError("atom_count must be positive")
        counts = np.bincount(labels, minlength=self.atom_count)
        if labels.min() < 0 or labels.max() >= self.atom_count or counts.min() == 0:
            raise ValueError("labels must use exactly 0..atom_count-1, each at least once")
        _, first_seen = np.unique(labels, return_index=True)
        if not np.all(np.diff(first_seen) > 0):
            raise ValueError("labels are not canonical (sorted by smallest member)")
        object.__setattr__(self, "atom_label", _freeze(labels))

    @classmethod
    def from_labels(cls, group: CyclicGroup, labels: np.ndarray) -> "SigmaAlgebra":
        """Build from an arbitrary labeling, canonicalizing atom ids."""
        labels = np.ascontiguousarray(labels)
        uniq, first_idx, inverse = np.unique(labels, return_index=True, return_inverse=True)
        # renumber so atom j's first occurrence (== smallest residue) increases in j
        perm = np.argsort(first_idx, kind="stable")
        order = np.empty(uniq.size, dtype=np.int64)
        order[perm] = np.arange(uniq.size)
        return cls(group, order[inverse.ravel()], int(uniq.size))

    @classmethod
    def trivial(cls, group: CyclicGroup) -> "SigmaAlgebra":
        return cls(group, np.zeros(group.modulus, dtype=np.int64), 1)

    @classmethod
    def discrete(cls, group: CyclicGroup) -> "SigmaAlgebra":
        return cls(group, np.arange(group.modulus, dtype=np.int64), group.modulus)

    def _check_same_group(self, f: GridFunction) -> None:
        if self.group.modulus != f.group.modulus:
            raise GroupMismatchError(
                f"groups differ: Z_{self.group.modulus} vs Z_{f.group.modulus}"
            )


@dataclass(frozen=True)
class EstimatorResult:
    """A numeric estimate with its sampling uncertainty.

    std_error is 0 exactly when the value came from exhaustive enumeration.
    """

    value: float
    std_error: float
    samples: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.samples < 1:
            raise ValueError("samples must be positive")


def mc_mean(
    draw: Callable[[np.random.Generator, int], np.ndarray],
    samples: int,
    seed: int,
    stream: str,
    chunk: int,
) -> EstimatorResult:
    """Monte Carlo mean of the values draw(rng, count) returns, with its std error.

    Chunk i holds at most `chunk` values drawn from substream(seed, stream, i).
    The mean is the sum of the chunk sums over `samples`; the spread merges
    each chunk's (count, mean, M2) by Chan's parallel update, so no sum of
    squares is ever differenced against n mean^2.
    """
    if samples < 2:
        raise ValueError(f"monte carlo needs at least 2 samples, got {samples}")
    total = 0.0
    m2 = 0.0
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
    std_error = math.sqrt(m2 / (samples - 1) / samples)
    return EstimatorResult(total / samples, std_error, samples, seed)


def expectation(f: GridFunction) -> float:
    """Average of f over Z_N (numpy pairwise summation)."""
    return float(f.values.sum() / f.group.modulus)


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """E(f g) on a common group."""
    f._check_same_group(g)
    return float((f.values * g.values).sum() / f.group.modulus)


def lq_norm(f: GridFunction, q: float) -> float:
    """E(|f|^q)^(1/q); q = math.inf gives the sup norm."""
    if q == math.inf:
        return float(np.abs(f.values).max())
    if q < 1:
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    return float((np.abs(f.values) ** q).mean() ** (1.0 / q))


def conditional_expectation(f: GridFunction, algebra: SigmaAlgebra) -> GridFunction:
    """Replace f on each atom by its average over that atom."""
    algebra._check_same_group(f)
    sums = np.bincount(algebra.atom_label, weights=f.values, minlength=algebra.atom_count)
    sizes = np.bincount(algebra.atom_label, minlength=algebra.atom_count)
    means = sums / sizes
    return GridFunction(f.group, means[algebra.atom_label])


def join_sigma(
    algebras: Sequence[SigmaAlgebra], group: CyclicGroup | None = None
) -> SigmaAlgebra:
    """Common refinement: atoms are the nonempty intersections of input atoms.

    An empty list yields the trivial algebra, in which case the group must be
    supplied explicitly.
    """
    algebras = list(algebras)
    if not algebras:
        if group is None:
            raise ValueError("joining an empty list requires an explicit group")
        return SigmaAlgebra.trivial(group)
    base = algebras[0]
    for other in algebras[1:]:
        if other.group.modulus != base.group.modulus:
            raise GroupMismatchError("all algebras must live on the same group")
    labels = base.atom_label
    count = base.atom_count
    for other in algebras[1:]:
        # pairwise combine keeps intermediate keys below N^2, well inside int64
        combined = labels * np.int64(other.atom_count) + other.atom_label
        uniq, labels = np.unique(combined, return_inverse=True)
        count = int(uniq.size)
    return SigmaAlgebra.from_labels(base.group, labels)


def atoms_of(algebra: SigmaAlgebra) -> list[np.ndarray]:
    """The atoms as sorted residue arrays; a disjoint cover of Z_N."""
    return [
        np.flatnonzero(algebra.atom_label == k) for k in range(algebra.atom_count)
    ]
