"""Measure-theoretic primitives on the cyclic group Z_N.

Functions on Z_N are float64 vectors, dense or one value broadcast over Z_N
(a zero-stride view, which is how a constant is held).  Expectations use
numpy's pairwise reduction, which keeps results deterministic and accurate
to ~1e-13 relative error for N up to 10^7.  Everything here is pure: values
and partitions are frozen after construction, so concurrent reads are safe.

Every sampled estimate runs on two pieces here: the chunked engine (_chunks,
the one map from chunk i to substream(seed, stream, i), walked by mc_mean
and, for a mean at every x, _pointwise_mean) and the private _form_product,
the product prod_i f((mat[i] . x + c_i) mod N) at columns x that the linear
forms, window moments, sampled U^d norm and sampled dual all evaluate.  It
builds each index by in-place adds, gathers from a table tiled so that small
coefficients need no remainder, and multiplies in cache-sized blocks, fed
uniform points of a box a block at a time by _uniform_draw.  _pairwise_sum
gives np.add.reduce of an array never formed whole, from sums over the leaves
of numpy's pairwise-sum tree; on its leaves, _box_sum sums exact form averages
over the same boxes.

Exact cyclic correlations on Z_N share one private kernel: _spectrum, the
rfft zero-padded to the least 5-smooth length L >= 2N - 1, and
_folded_correlation, the irfft of conj(a_hat) b_hat folded mod N.  gowers'
U^2 leaf and transference's three-term progression average both use it, so
neither takes a length-N complex FFT (Bluestein's algorithm at prime N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ._primality import is_prime_64

__all__ = [
    "DEFAULT_BUDGET",
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
    "substream",
    "mc_mean",
]


class GroupMismatchError(ValueError):
    """Operands live on different cyclic groups."""


def _same_group(*items) -> None:
    """Refuse operands (functions, algebras) that do not all live on one Z_N."""
    moduli = dict.fromkeys(item.group.modulus for item in items)
    if len(moduli) > 1:
        raise GroupMismatchError("operands must share one group, got "
                                 + " vs ".join(f"Z_{n}" for n in moduli))


class BudgetExceededError(RuntimeError):
    """An exact enumeration would exceed the caller's cost budget."""


DEFAULT_BUDGET = 10**9  # nominal operations an exact route may take unless told otherwise


def _check_budget(cost: int, budget: int, what: str, remedy: str) -> None:
    """Refuse work whose nominal cost exceeds the budget, before any of it is done."""
    if cost > budget:
        raise BudgetExceededError(f"{what} needs {cost:.2e} operations (> budget "
                                  f"{budget:.2e}); {remedy}, or raise the budget")


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Named RNG sub-stream derived from a single 64-bit seed.

    Worker/chunk i must use ``substream(seed, ..., i)`` so that results do
    not depend on how work is split.  String path components are hashed
    stably (blake2s), so streams are reproducible across runs and platforms.
    hashlib is imported here, not at module level: it maps OpenSSL's
    libcrypto, which only sampling commands need (numpy.random loads it
    through secrets and hmac when a generator is built).
    """
    key = []
    for part in path:
        if isinstance(part, str):
            import hashlib

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


def _spectrum(values: np.ndarray) -> np.ndarray:
    """rfft along the last axis, zero-padded to the least 5-smooth length >= 2N - 1."""
    return np.fft.rfft(values, _smooth_length(2 * values.shape[-1] - 1))


def _folded_correlation(prod: np.ndarray, n: int) -> np.ndarray:
    """c(h) = sum_x a(x) b(x + h mod n) in [..., :n] of a length-L array, from
    prod = conj(rfft(a, L)) * rfft(b, L); the rest of the array is scratch.

    The inverse transform is the linear correlation: shift h >= 0 at index h,
    shift -m at index L - m.  L >= 2n - 1 keeps the two ranges apart, and
    the cyclic shift h is linear shift h plus linear shift h - n, folded in
    place.
    """
    length = _smooth_length(2 * n - 1)
    lin = np.fft.irfft(prod, length)
    lin[..., 1:n] += lin[..., length - n + 1 :]
    return lin


def _translates(values: np.ndarray) -> np.ndarray:
    """The view t[..., h, x] = values[..., (x + h) mod n], 0 <= h < n, on one copy."""
    n = values.shape[-1]
    doubled = np.concatenate([values, values[..., : n - 1]], axis=-1)
    return np.lib.stride_tricks.sliding_window_view(doubled, n, axis=-1)


def _canonical(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """(labels, count): the distinct keys numbered 0, 1, ... in order of first occurrence.

    One np.unique of the keys; the argsort that ranks their first
    occurrences runs over the distinct keys only.
    """
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse], int(first.size)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GridFunction:
    """A real-valued function on Z_N: float64 values, dense, or one value
    broadcast over Z_N.

    A broadcast (zero-stride) float64 vector is kept as it is, so a constant
    costs one float whatever N is; every reader of values only slices,
    gathers and applies ufuncs (_form_product gathers it from its one
    entry), and arithmetic on it returns a dense array.
    Any other input is made a contiguous float64 vector.  The function takes
    ownership of its array: one that is already a contiguous float64 vector
    is not copied but frozen in place, so the caller's array turns read-only.
    """

    group: CyclicGroup
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = self.values
        broadcast = (isinstance(vals, np.ndarray) and vals.dtype == np.float64
                     and vals.strides == (0,))
        if not broadcast:
            vals = np.ascontiguousarray(vals, dtype=np.float64)
        if vals.shape != (self.group.modulus,):
            raise ValueError(
                f"expected {self.group.modulus} values, got shape {vals.shape}"
            )
        # a broadcast vector holds one float, so one entry is checked
        if not np.all(np.isfinite(vals[:1] if broadcast else vals)):
            raise ValueError("values must be finite (no NaN/Inf)")
        object.__setattr__(self, "values", _freeze(vals))

    @classmethod
    def constant(cls, group: CyclicGroup, c: float) -> "GridFunction":
        """c at every residue, held as one float broadcast over Z_N."""
        return cls(group, np.broadcast_to(float(c), (group.modulus,)))

    @classmethod
    def indicator(cls, group: CyclicGroup, residues: Iterable[int]) -> "GridFunction":
        vals = np.zeros(group.modulus)
        idx = np.asarray(sorted({r % group.modulus for r in residues}), dtype=np.int64)
        if idx.size:
            vals[idx] = 1.0
        return cls(group, vals)

    def __add__(self, other):
        if isinstance(other, GridFunction):
            _same_group(self, other)
            return GridFunction(self.group, self.values + other.values)
        return GridFunction(self.group, self.values + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            _same_group(self, other)
            return GridFunction(self.group, self.values - other.values)
        return GridFunction(self.group, self.values - float(other))

    def __rsub__(self, other):
        return GridFunction(self.group, float(other) - self.values)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            _same_group(self, other)
            return GridFunction(self.group, self.values * other.values)
        return GridFunction(self.group, self.values * float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.group, -self.values)


@dataclass(frozen=True)
class SigmaAlgebra:
    """A partition of Z_N into labeled atoms.

    Labels are canonical: atom j's smallest residue is increasing in j, so
    equal partitions have equal label arrays and joins are deterministic.
    Construction checks every label array in O(N) and sorts nothing: an
    integer dtype, one label per residue, each of 0..atom_count-1 used, and
    canonical order, which holds exactly when the running maximum of the
    labels starts at 0 and never steps by more than 1.
    """

    group: CyclicGroup
    atom_label: np.ndarray
    atom_count: int

    def __post_init__(self) -> None:
        labels = np.asarray(self.atom_label)
        if labels.dtype.kind not in "iu":
            raise ValueError(f"atom_label must hold integers, got dtype {labels.dtype}")
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        if labels.shape != (self.group.modulus,):
            raise ValueError("atom_label must assign a label to every residue")
        if self.atom_count < 1:
            raise ValueError("atom_count must be positive")
        # the range is checked before bincount, which would size its table by the largest label
        if (labels.min() < 0 or labels.max() >= self.atom_count
                or np.bincount(labels, minlength=self.atom_count).min() == 0):
            raise ValueError("labels must use exactly 0..atom_count-1, each at least once")
        running = np.maximum.accumulate(labels)
        if running[0] != 0 or np.diff(running).max() > 1:
            raise ValueError("labels are not canonical (sorted by smallest member)")
        object.__setattr__(self, "atom_label", _freeze(labels))

    @classmethod
    def from_labels(cls, group: CyclicGroup, labels: np.ndarray) -> "SigmaAlgebra":
        """Build from an arbitrary labeling of shape (N,), canonicalizing atom ids."""
        labels = np.asarray(labels)
        if labels.shape != (group.modulus,):
            raise ValueError(f"labels must have shape ({group.modulus},), got {labels.shape}")
        return cls(group, *_canonical(labels))

    @classmethod
    def trivial(cls, group: CyclicGroup) -> "SigmaAlgebra":
        return cls(group, np.zeros(group.modulus, dtype=np.int64), 1)

    @classmethod
    def discrete(cls, group: CyclicGroup) -> "SigmaAlgebra":
        return cls(group, np.arange(group.modulus, dtype=np.int64), group.modulus)


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


def _chunks(total: int, size: int, seed: int, stream: str):
    """(rng, lo, hi) for chunk i = [lo, hi) of range(total), `size` at a time,
    rng = substream(seed, stream, i): the one map from a chunk to its stream."""
    for i, lo in enumerate(range(0, total, size)):
        yield substream(seed, stream, i), lo, min(lo + size, total)


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
    squares is ever differenced against n mean^2.  draw returns an array
    mc_mean may overwrite, valid until the next draw: its squared deviations
    are taken in place.
    """
    if samples < 2:
        raise ValueError(f"monte carlo needs at least 2 samples, got {samples}")
    total = 0.0
    m2 = 0.0
    for rng, done, stop in _chunks(samples, chunk, seed, stream):
        count = stop - done
        dev = draw(rng, count)
        chunk_total = float(dev.sum())
        np.subtract(dev, chunk_total / count, out=dev)
        np.multiply(dev, dev, out=dev)
        m2 += float(dev.sum())
        del dev  # a fresh array is freed before the next is drawn
        if done:
            delta = chunk_total / count - total / done
            m2 += delta * delta * done * count / (done + count)
        total += chunk_total
    std_error = math.sqrt(m2 / (samples - 1) / samples)
    return EstimatorResult(total / samples, std_error, samples, seed)


_BLOCK = 1 << 13  # columns per block: its indices and gathered values stay in cache
_TILE_CAP = 1 << 18  # entries of the largest tiled table (2 MiB of float64)


def _form_index(row: Sequence[int], const: int, x: np.ndarray, out: np.ndarray) -> None:
    """out = row . x + const at the columns of x, by in-place adds.

    A unit coefficient adds (or subtracts) its row of x with no multiply,
    and a zero coefficient costs nothing.
    """
    first = True
    for a, xj in zip(row, x):
        if not a:
            continue
        if first:
            if a == 1:
                np.copyto(out, xj)
            else:
                np.multiply(xj, a, out=out)
            first = False
        elif a == 1:
            out += xj
        elif a == -1:
            out -= xj
        else:
            out += a * xj
    if first:
        out.fill(const)
    elif const:
        out += const


def _form_product(
    table: np.ndarray, mat: np.ndarray, consts: np.ndarray, bound: int | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """The map x -> prod_i table[(mat[i] . x + consts[i]) mod n] at the columns of x.

    n is table.size and x has one row per column of mat.  The factors are
    multiplied in row order, starting from row 0's, so each product equals
    the one from np.ones and `prod *= table[index_i]` bit for bit.  bound
    is an exclusive bound on the indices mat[i] . x + consts[i], which must
    be nonnegative; by default the entries of x are residues in [0, n) and
    mat and consts are nonnegative.  When reps = ceil(bound / n) copies of
    the table hold at most _TILE_CAP entries, the indices gather from that
    tiled table with no remainder; a larger bound (a rational coefficient
    inverted mod N, say) takes one in-place np.remainder per form.  A
    broadcast table (one value, strides (0,)) gathers from its first entry,
    which clip hands every nonnegative index: np.take would otherwise copy
    the zero-stride table into a contiguous one of n floats on every call.
    The columns run in blocks of _BLOCK, multiplied in place into one output
    array, so no temporary grows with the number of columns.
    """
    n = table.size
    rows = list(zip(np.asarray(mat).tolist(), np.asarray(consts).tolist()))
    if bound is None:
        bound = max(sum(row) * (n - 1) + c for row, c in rows) + 1
    if bound > 2**63:
        raise OverflowError(f"form indices reach {bound - 1}, past the int64 range")
    reps = -(-bound // n)
    if table.strides == (0,):
        reps, reduce, source = 1, False, table[:1]
    else:
        reduce = reps > 1 and reps * n > _TILE_CAP
        source = table if reps == 1 or reduce else np.tile(table, reps)

    def product(x: np.ndarray) -> np.ndarray:
        count = x.shape[1]
        out = np.empty(count)
        idx = np.empty(min(count, _BLOCK), dtype=np.int64)
        factor = np.empty(idx.size)
        for start in range(0, count, _BLOCK):
            stop = min(start + _BLOCK, count)
            cols, block = x[:, start:stop], out[start:stop]
            ix, fx = idx[: stop - start], factor[: stop - start]
            for i, (row, const) in enumerate(rows):
                _form_index(row, const, cols, ix)
                if reduce:
                    np.remainder(ix, n, out=ix)
                # every index is in range by construction, so clip never acts
                np.take(source, ix, out=fx if i else block, mode="clip")
                if i:
                    block *= fx
        return out

    return product


def _uniform_draw(weight: Callable[[np.ndarray], np.ndarray], box: Sequence[tuple[int, int]]):
    """draw(rng, count) for mc_mean: weight at count uniform points of a box, one
    inclusive (lo, hi) per variable as _box_sum takes it.

    The points are drawn _BLOCK at a time, so a chunk's int64 points are
    never held whole.  The values are those of one
    rng.integers(lows, highs + 1, size=(count, t)) call, which fills its rows
    in order from the same stream.  A box with one interval for every
    variable passes scalar bounds, the same values as the bound arrays and
    about 3x faster in numpy.  Every draw writes into one buffer, sized by
    the largest count asked for so far, and returns a view of it.
    """
    t = len(box)
    if len(set(map(tuple, box))) == 1:
        lows, highs = box[0][0], box[0][1] + 1
    else:
        lows, highs = (np.array(ends, dtype=np.int64) for ends in zip(*box))
        highs += 1
    buf = np.empty(0)

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        nonlocal buf
        if buf.size < count:
            buf = np.empty(count)
        out = buf[:count]
        for start in range(0, count, _BLOCK):
            stop = min(start + _BLOCK, count)
            out[start:stop] = weight(rng.integers(lows, highs, size=(stop - start, t)).T)
        return out

    return draw


def _pointwise_mean(weight: Callable[[np.ndarray], np.ndarray], n: int, t: int,
                    samples: int, seed: int, stream: str, chunk: int) -> np.ndarray:
    """E_h weight(x, h) at every x of Z_n, from `samples` uniform h in Z_n^t: mc_mean's
    per-point counterpart.  The x of a chunk of max(1, chunk // samples) points share
    one rng.integers(0, n, size=(samples, t)); their columns (x, h), x repeated once
    per draw, are built max(1, _BLOCK // samples) points at a time in one buffer."""
    out, x_block = np.empty(n), max(1, _BLOCK // samples)
    grid = np.empty((t + 1, min(x_block, n), samples), dtype=np.int64)
    for rng, start, stop in _chunks(n, max(1, chunk // samples), seed, stream):
        grid[1:] = rng.integers(0, n, size=(samples, t)).T[:, None, :]
        for lo in range(start, stop, x_block):
            hi = min(lo + x_block, stop)
            grid[0, : hi - lo] = np.arange(lo, hi)[:, None]
            cols = grid[:, : hi - lo].reshape(t + 1, (hi - lo) * samples)
            out[lo:hi] = weight(cols).reshape(hi - lo, samples).mean(axis=1)
    return out


_PW_BLOCK = 128  # numpy's pairwise sum adds a node this size with no split
_BOX_LEAF = 1 << 17  # points of one _box_sum leaf


def _pairwise_sum(n: int, leaf: Callable[[int, int], object], cap: int):
    """np.add.reduce of a contiguous float64 array of n entries, bit for bit,
    from leaf(lo, hi), the sum of entries [lo, hi) that np.add.reduce gives.

    numpy's pairwise sum splits a node of more than 128 entries at
    n2 = n // 2 - (n // 2) % 8; this recursion splits the same way and calls
    leaf on every node of at most cap entries, so only a leaf's entries need
    exist at once.  The leaf may return an array (one sum per array of the
    same length, say): the nodes are added elementwise, the same float
    operations.  np.mean is the result divided by n.
    """
    if cap < _PW_BLOCK:
        raise ValueError(f"cap = {cap}: leaves must hold at least {_PW_BLOCK} entries")

    def node(lo: int, hi: int):
        if hi - lo <= cap:
            return leaf(lo, hi)
        mid = (hi - lo) // 2
        mid -= mid % 8
        return node(lo, lo + mid) + node(lo + mid, hi)

    return node(0, n)


def _box_sum(weight: Callable[[np.ndarray], np.ndarray], box: Sequence[tuple[int, int]]):
    """np.add.reduce of weight over a box, bit for bit: one inclusive (lo, hi) per variable,
    row-major, in int64 points, one per column, at most _BOX_LEAF per _pairwise_sum leaf."""

    def leaf(lo: int, hi: int):
        points, rest = np.empty((len(box), hi - lo), dtype=np.int64), np.arange(lo, hi)
        for j, (first, last) in reversed(list(enumerate(box))):  # digits of the flat index
            np.divmod(rest, last - first + 1, out=(rest, points[j]))
            points[j] += first
        return np.add.reduce(weight(points))

    return _pairwise_sum(math.prod(hi - lo + 1 for lo, hi in box), leaf, _BOX_LEAF)


def expectation(f: GridFunction) -> float:
    """Average of f over Z_N (numpy pairwise summation)."""
    return float(f.values.sum() / f.group.modulus)


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """E(f g) on a common group."""
    _same_group(f, g)
    return float((f.values * g.values).sum() / f.group.modulus)


def lq_norm(f: GridFunction, q: float) -> float:
    """E(|f|^q)^(1/q); q = math.inf gives the sup norm."""
    if q == math.inf:
        return float(np.abs(f.values).max())
    if not q >= 1:  # refuses nan too
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    return float((np.abs(f.values) ** q).mean() ** (1.0 / q))


def conditional_expectation(f: GridFunction, algebra: SigmaAlgebra) -> GridFunction:
    """Replace f on each atom by its average over that atom."""
    _same_group(f, algebra)
    sums = np.bincount(algebra.atom_label, weights=f.values, minlength=algebra.atom_count)
    sizes = np.bincount(algebra.atom_label, minlength=algebra.atom_count)
    means = sums / sizes
    return GridFunction(f.group, means[algebra.atom_label])


def join_sigma(algebras: Sequence[SigmaAlgebra]) -> SigmaAlgebra:
    """Common refinement: atoms are the nonempty intersections of input atoms.

    A factor with one atom is the identity of the join, so it is skipped:
    the join starts from the first factor with more than one atom (as its
    labels stand, canonical by construction) or, when there is none, is the
    trivial algebra.  Each further factor is folded in by one key per
    residue, label * other.atom_count + other label, and one canonicalising
    np.unique of those N keys: a join of m algebras with more than one atom
    sorts N keys m - 1 times, and the result's O(N) validity check sorts
    nothing.  Labels stay below N, so the keys stay below N^2.
    """
    algebras = list(algebras)
    if not algebras:
        raise ValueError("join_sigma needs at least one algebra")
    _same_group(*algebras)
    factors = [a for a in algebras if a.atom_count > 1]
    if len(factors) < 2:
        return factors[0] if factors else algebras[0]
    labels = factors[0].atom_label
    for other in factors[1:]:
        labels, count = _canonical(labels * np.int64(other.atom_count) + other.atom_label)
    return SigmaAlgebra(factors[0].group, labels, count)

