"""Command-line driver: the only module with side effects.

Every run prints one JSON report to stdout whose meta block records the tool
version, command, full parameter set and seed, so any output can be
reproduced from the file alone.  Timing and peak RSS are measured but
written to stderr; the wall_time_ms slot in artifacts stays null unless
--timing is passed, so that identical runs produce byte-identical files.

Exit codes: 0 success, 2 invalid parameters, 3 cost budget exceeded,
4 verification verdict failed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys
import time
import warnings

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import __version__
from .core import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CyclicGroup,
    GridFunction,
    substream,
)
from .gowers import (
    dual_function,
    dual_function_u2_fourier,
    gowers_norm,
    gowers_norm_mc,
    gowers_norm_u2_fourier,
)
from .arith import (
    MajorantParams,
    SieveTables,
    build_majorant,
    build_sieve,
    divisor_sums_on_progression,
)
from .pseudo import (
    LinearFormSystem,
    _correlation_shape,
    bernoulli_measure,
    gy2_correlation_check,
    gy_moment_check,
    verify_correlation,
    verify_linear_forms,
)
from .transference import (
    DecompositionConfig,
    _k3_wheel_shape,
    count_prime_aps,
    gvn_check,
    kvn_decompose,
)

__all__ = ["emit_report", "main"]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_VERDICT = 4

_COLUMN_CHUNK = 1 << 15


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (subparsers inherit it) whose refusals print the JSON error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        print(_to_json({"error": {"type": "invalid", "message": f"{self.prog}: {message}"}}))
        self.exit(EXIT_INVALID)


class VerdictError(Exception):
    """A verification command's check did not pass."""

    def __init__(self, report: dict):
        super().__init__("verification failed")
        self.report = report


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("reports must contain finite numbers only")
    return format(x, ".17g")


def _to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_to_json(obj[k], indent + 1)}'
            for k in sorted(obj, key=str)
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        inner = ",\n".join(f"{pad}  {_to_json(v, indent + 1)}" for v in items)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        items = ((k, obj[k]) for k in sorted(obj, key=str))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = enumerate(obj)
    else:
        out[prefix] = obj
        return
    for k, v in items:
        _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)


def emit_report(result: dict, fmt: str, path: str | None) -> str:
    """Serialize a report; bit-stable for a fixed result object.

    JSON keeps structure; CSV flattens nested keys and list indices with
    dots into one header row plus one value row (RFC-4180 quoting via the
    csv module).  Each CSV cell is its value's JSON text, except that
    strings stay raw and None is an empty cell.
    """
    if fmt == "json":
        text = _to_json(result) + "\n"
    elif fmt == "csv":
        import io

        flat: dict = {}
        _flatten("", result, flat)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(flat.keys()))
        writer.writerow(
            [v if isinstance(v, str) else "" if v is None else _to_json(v)
             for v in flat.values()]
        )
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _read_column(path: str, n: int) -> GridFunction:
    with warnings.catch_warnings():
        # an empty file is refused below, by its count of 0 values
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        vals = np.loadtxt(path, dtype=np.float64, ndmin=1)
    if vals.size != n:
        raise ValueError(f"{path} holds {vals.size} values, expected {n}")
    return GridFunction(CyclicGroup(n), vals)


def _dekker_split(x: np.ndarray, hi: np.ndarray,
                  lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Set x = hi + lo exactly, each half with at most 26 significant bits."""
    np.multiply(x, 134217729.0, out=hi)  # 2^27 + 1
    np.subtract(hi, x, out=lo)
    np.subtract(hi, lo, out=hi)
    np.subtract(x, hi, out=lo)
    return hi, lo


_POW10 = np.array([float(10**k) for k in range(21)])  # exact doubles
_POW10_HI, _POW10_LO = _dekker_split(_POW10, np.empty(21), np.empty(21))

# One row of bytes per value.  Columns 1-6 hold "-0.000", 7 the leading digit
# d0, 8-22 the digits d1..d15, 23 ".", 24-39 the digits d1..d16 again and
# 40 "\n".  The text of a row is the columns a mask keeps, in order:
# -12.5 keeps 1, 7, 8, 23, 25, 40 and 0.0625 keeps 2, 3, 6, 7, 24, 25, 40.
# So no row is shifted to place its point; a row of the % route sits in
# columns 16-39.  The digits are written as 4-digit groups, 4-byte aligned.
_ROW = np.zeros(44, dtype=np.uint8)
_ROW[1:7] = np.frombuffer(b"-0.000", dtype=np.uint8)
_ROW[40] = ord("\n")
_PERCENT_AT = 16


def _kept_columns(neg: int, e10: int, zeros: int) -> list[int]:
    """The columns of a fixed-notation row: sign, exponent e10 and `zeros`
    trailing zero digits, stripped as %g strips them (with a bare point)."""
    cols = [1] * neg
    if e10 < 0:  # "0.", -e10 - 1 zeros and d0, then d1.. from the second copy
        return cols + [2, 3, *range(8 + e10, 8), *range(24, 40 - zeros), 40]
    last = 16 - zeros  # the last digit printed, if it is past the point
    cols += [7, *range(8, 8 + min(e10, 15))]
    if e10 == 16:
        return cols + [39, 40]
    if last > e10:
        cols += [23, *range(24 + e10, 24 + last)]
    return cols + [40]


_NEG_KEY = 21 * 17  # row keys: neg * _NEG_KEY + (e10 + 4) * 17 + zeros, then the % rows


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The text of 0000..9999 as uint32, their trailing zero digits (4 for
    0000) as int8 and the row masks by key; built on first use, not on import."""
    q = np.arange(10**4)
    quads = (q[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    quad_zeros = sum(q % 10**j == 0 for j in range(1, 5)).astype(np.int8)
    keep = np.zeros((2 * _NEG_KEY + 25, _ROW.size), dtype=bool)
    for key, layout in enumerate(itertools.product((0, 1), range(-4, 17), range(17))):
        keep[key, _kept_columns(*layout)] = True
    for n in range(25):
        keep[2 * _NEG_KEY + n, [*range(_PERCENT_AT, _PERCENT_AT + n), 40]] = True
    return quads.view(np.uint32).ravel(), quad_zeros, keep


def _times_pow10(a: np.ndarray, k: np.ndarray,
                 out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, err) with p + err = a * 10^k exactly: Dekker's error-free product.

    out is a float64 array of shape (5, a.size): p and err are its first two
    rows, the other three are scratch.  The halves of 10^k are gathered
    again where they are needed, so no more rows are live at once.
    """
    p, err, a_hi, a_lo, b = out
    np.multiply(a, np.take(_POW10, k, out=b, mode="clip"), out=p)
    _dekker_split(a, a_hi, a_lo)
    np.multiply(a_hi, np.take(_POW10_HI, k, out=b, mode="clip"), out=err)
    err -= p
    err += np.multiply(a_hi, np.take(_POW10_LO, k, out=b, mode="clip"), out=b)
    err += np.multiply(a_lo, np.take(_POW10_HI, k, out=b, mode="clip"), out=b)
    err += np.multiply(a_lo, np.take(_POW10_LO, k, out=b, mode="clip"), out=b)
    return p, err


def _decimal_digits(a: np.ndarray, floats: np.ndarray,
                    ints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For 1e-4 <= a < 1e17: the decimal exponent of a, and its 17
    significant digits as an integer in [10^16, 10^17), rounded half to even
    on a's exact value, as format(a, ".17g") rounds them.

    floats (float64) and ints (int64) are scratch of shapes (5, a.size) and
    (3, a.size); the results are the first two rows of ints.
    """
    e10, digits, k = ints
    np.log10(a, out=floats[0])
    np.floor(floats[0], out=floats[0])
    np.copyto(e10, floats[0], casting="unsafe")
    np.clip(e10, -4, 16, out=e10)
    np.subtract(16, e10, out=k)
    p, err = _times_pow10(a, k, floats)
    # log10 may be off by one next to a power of ten; p and err tell exactly
    up = (p > 1e17) | ((p == 1e17) & (err >= 0))
    down = (p < 1e16) | ((p == 1e16) & (err < 0))
    fix = np.flatnonzero(up | down)
    e10[fix] += np.where(up[fix], 1, -1)
    p[fix], err[fix] = _times_pow10(a[fix], 16 - e10[fix], np.empty((5, fix.size)))
    # p is an even integer, so rint rounds the sum half to even.  It never
    # carries to 10^17: no double lies within 5e-18 of its size below a power
    # of ten from 10^-4 to 10^17 (the nearest is 8.3e-17 below 0.1).
    np.copyto(digits, p, casting="unsafe")
    np.rint(err, out=err)
    np.copyto(k, err, casting="unsafe")
    digits += k
    return e10, digits


def _divmod(x: np.ndarray, m: int, q: np.ndarray,
            r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.divmod by a scalar into q and r (neither may be x), in two passes:
    // by a scalar is far faster."""
    np.floor_divide(x, m, out=q)
    np.multiply(q, m, out=r)
    np.subtract(x, r, out=r)
    return q, r


def _digit_rows(rows: np.ndarray, a: np.ndarray, floats: np.ndarray,
                ints: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """Write the 17 digits of each a (1e-4 <= a < 1e17) into its row; return
    (e10 + 4) * 17 + zeros, the unsigned part of the row's key, in ints[0].

    floats, ints and quad are scratch: float64 (5, a.size), int64
    (6, a.size) and uint32 (a.size,).
    """
    quads, quad_zeros, _ = _text_tables()
    e10, digits = _decimal_digits(a, floats, ints[:3])
    high, low = _divmod(digits, 10**8, ints[2], ints[3])
    lead, high = _divmod(high, 10**8, ints[1], ints[4])
    lead += ord("0")
    rows[:, 7] = lead
    groups = [*_divmod(high, 10**4, ints[1], ints[2]), *_divmod(low, 10**4, ints[4], ints[5])]
    row_quads = rows.view(np.uint32)
    for i, g in enumerate(groups):
        np.take(quads, g, out=quad, mode="clip")
        row_quads[:, 2 + i] = row_quads[:, 6 + i] = quad
    rows[:, 23] = ord(".")

    def trailing_zeros(high, low):  # of the 8-digit numbers 10^4 high + low
        return np.where(low == 0, quad_zeros[high] + 4, quad_zeros[low])

    zeros = np.where(low == 0, trailing_zeros(*groups[:2]) + 8, trailing_zeros(*groups[2:]))
    e10 += 4
    e10 *= 17
    e10 += zeros
    return e10


def _percent_rows(values: np.ndarray) -> np.ndarray:
    """format(v, ".17g") of each value by one % operation, as the rows of a
    uint8 array, space padded to 24 bytes (the longest text has 24)."""
    text = ("%-24.17g" * values.size) % tuple(values.tolist())
    return np.frombuffer(text.encode(), dtype=np.uint8).reshape(values.size, 24)


def _column_chunks(values: np.ndarray):
    """format(v, ".17g") + "\\n" of each value, as bytes, _COLUMN_CHUNK values
    at a time.

    Where %g prints fixed notation (1e-4 <= |v| < 1e17) the text is built in
    numpy from the exact 17-digit rounding; zeros, subnormals and the other
    values of exponent notation go through _percent_rows.  Every chunk-sized
    array is allocated once and reused, so later chunks fault in no fresh
    pages.  Each gather into one of them has its indices in range by
    construction and passes mode="clip": the default mode copies through a
    fresh buffer.
    """
    keep = _text_tables()[2]
    size = min(values.size, _COLUMN_CHUNK)
    canvas = np.tile(_ROW, (size, 1))
    mask = np.empty(canvas.shape, dtype=bool)
    floats = np.empty((6, size))
    ints = np.empty((6, size), dtype=np.int64)
    quad = np.empty(size, dtype=np.uint32)
    for start in range(0, values.size, _COLUMN_CHUNK):
        chunk = values[start : start + _COLUMN_CHUNK]
        n = chunk.size
        rows = canvas[:n]
        a = np.abs(chunk, out=floats[0, :n])
        other = np.flatnonzero(~((a >= 1e-4) & (a < 1e17)))
        a[other] = 1.0  # any value of the range; its row is overwritten below
        key = _digit_rows(rows, a, floats[1:, :n], ints[:, :n], quad[:n])
        np.add(key, _NEG_KEY, out=key, where=np.signbit(chunk))
        if other.size:
            text = _percent_rows(chunk[other])
            rows[other, _PERCENT_AT : _PERCENT_AT + 24] = text
            key[other] = 2 * _NEG_KEY + (text != ord(" ")).sum(axis=1)
        yield rows[np.take(keep, key, axis=0, out=mask[:n], mode="clip")].tobytes()


def _write_column(values: np.ndarray, path: str) -> None:
    """One value per line, in _fmt_float's text; NaN/Inf refused before opening.

    Writing chunk by chunk keeps peak memory flat in the column length.
    """
    if not np.isfinite(values).all():
        raise ValueError("reports must contain finite numbers only")
    with open(path, "wb") as fh:
        fh.writelines(_column_chunks(values))


def _finished_line(command: str, elapsed_ms: float) -> str:
    """The stderr line that closes a run: its time and, where the platform
    reports it, the process's peak RSS in MB (ru_maxrss is in KiB on Linux,
    in bytes on macOS)."""
    line = f"[znkit] {command} finished in {elapsed_ms:.1f} ms"
    if resource is None:
        return line
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak /= 2**20 if sys.platform == "darwin" else 2**10
    return f"{line}, peak RSS {peak:.1f} MB"


def _majorant_params(args) -> MajorantParams:
    return MajorantParams(
        k=args.k, N=args.n, w=args.w, R_exponent=args.theta, epsilon_k=args.epsilon
    )


def _measure_from_args(args) -> GridFunction:
    kind = args.nu
    n = args.n
    if kind == "constant":
        return GridFunction.constant(CyclicGroup(n), 1.0)
    if kind == "bernoulli":
        return bernoulli_measure(n, args.nu_seed)
    if kind == "majorant":
        return build_majorant(_majorant_params(args))
    return _read_column(kind, n)


def _system_from_args(spec: str) -> LinearFormSystem:
    for name, arg, build in (("cube", "D", LinearFormSystem.cube),
                             ("progression", "K", LinearFormSystem.progression)):
        if spec.startswith(name + ":"):
            try:
                size = int(spec[len(name) + 1 :])
            except ValueError:
                raise ValueError(
                    f"--system {name}:{arg} takes an integer {arg}, got {spec!r}"
                ) from None
            return build(size)
    with open(spec) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "rows" not in data:
        raise ValueError(f"system file {spec} must hold a JSON object with a \"rows\" list")
    try:
        return LinearFormSystem.from_rows(data["rows"], data.get("constants"))
    except TypeError as exc:
        raise ValueError(f"system file {spec}: {exc}") from exc


def _write_tables_csv(tables: SieveTables, lambda_r: np.ndarray, path: str, limit: int) -> None:
    """Write (n, mu, lambda, lambda_r) rows for n = 1..limit, floats as repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "mu", "lambda", "lambda_r"])
        for n in range(1, limit + 1):
            writer.writerow(
                [
                    n,
                    int(tables.mobius[n]),
                    repr(float(tables.von_mangoldt[n])),
                    repr(float(lambda_r[n])),
                ]
            )


def _cmd_sieve(args) -> dict:
    tables = build_sieve(args.limit)
    lam = np.zeros(args.limit + 1)
    if args.r:
        lam[1:] = divisor_sums_on_progression(1, 0, 1, args.limit, args.r)
    if args.output:
        _write_tables_csv(tables, lam, args.output, args.limit)
    return {
        "limit": args.limit,
        "r": args.r,
        "prime_count": tables.primes.size,
        "output": args.output,
    }


def _cmd_majorant(args) -> dict:
    params = _majorant_params(args)
    nu = build_majorant(params)
    if args.output:
        _write_column(nu.values, args.output)
    lo, hi = params.window
    return {
        "N": params.N,
        "k": params.k,
        "w": params.w,
        "W": params.W,
        "theta": params.R_exponent,
        "epsilon_k": params.epsilon_k,
        "R": params.R,
        "window": [lo, hi],
        "mean": float(nu.values.mean()),
        "output": args.output,
    }


def _read_input(args) -> GridFunction:
    """The --input column of gowers and dual, read once --mode and --d are known to agree."""
    if args.mode == "fourier" and args.d != 2:
        raise ValueError("fourier mode is available for d = 2 only")
    return _read_column(args.input, args.n)


def _cmd_gowers(args) -> dict:
    f = _read_input(args)
    if args.mode == "exact":
        est = gowers_norm(f, args.d, budget=args.budget)
    elif args.mode == "fourier":
        est = gowers_norm_u2_fourier(f)
    else:
        est = gowers_norm_mc(f, args.d, args.samples, args.seed, budget=args.budget)
    return {
        "d": est.dimension,
        "mode": est.mode,
        "norm_value": est.norm_value,
        "raised_value": est.raised_value,
        "std_error": est.std_error,
    }


def _cmd_dual(args) -> dict:
    f = _read_input(args)
    if args.mode == "fourier":
        df = dual_function_u2_fourier(f)
    elif args.mode == "exact":
        df = dual_function(f, args.d, mode="exact", budget=args.budget)
    else:
        df = dual_function(f, args.d, mode="monte_carlo", samples=args.samples,
                           seed=args.seed, budget=args.budget)
    if args.output:
        _write_column(df.values, args.output)
    return {
        "d": args.d,
        "mode": args.mode,
        "sup": float(np.abs(df.values).max()),
        "mean": float(df.values.mean()),
        "output": args.output,
    }


def _verdict(report) -> dict:
    """The report as a dict; a failed verdict raises it in a VerdictError (exit 4)."""
    out = report.to_dict()
    if not report.passed:
        raise VerdictError(out)
    return out


def _cmd_linforms(args) -> dict:
    nu = _measure_from_args(args)
    system = _system_from_args(args.system)
    report = verify_linear_forms(
        nu,
        system,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        budget=args.budget,
        verdict_threshold=args.threshold,
    )
    return _verdict(report)


def _cmd_correlation(args) -> dict:
    rng = substream(args.seed, "correlation_tuples")
    tuples = [
        rng.integers(0, args.n, size=args.m).tolist() for _ in range(args.tuples)
    ]
    tuples = [t for t in tuples if len(set(t)) == len(t)]
    if not tuples:
        raise ValueError(
            f"none of the {args.tuples} drawn tuples has m = {args.m} distinct "
            f"shifts modulo N = {args.n}"
        )
    nu = _measure_from_args(args)
    report = verify_correlation(
        nu, args.m, tuples, c_tau=args.c_tau, a_tau=args.a_tau,
        verdict_threshold=args.threshold,
    )
    product_leaf, tau_leaf, tau_leaves, table = _correlation_shape(args.n)
    held = (f"broadcast constant ({nu.values.itemsize} B)" if nu.values.strides == (0,)
            else f"dense ({nu.values.nbytes / 1e6:.1f} MB)")
    print(f"[znkit] correlation route: product leaves of at most {product_leaf} points, "
          f"{tau_leaves} tau leaves of at most {tau_leaf} residues, factor table of "
          f"{table} entries, {len(tuples)} of {args.tuples} tuples kept, measure: {held}",
          file=sys.stderr)
    return _verdict(report)


def _cmd_gycheck(args) -> dict:
    params = _majorant_params(args)
    lo, hi = params.window
    if args.box:
        try:
            lo, hi = (int(s) for s in args.box.split(":"))
        except ValueError:
            raise ValueError(f"--box takes two integers lo:hi, got {args.box!r}") from None
    if args.h_list:
        try:
            shifts = [int(s) for s in args.h_list.split(",")]
        except ValueError:
            raise ValueError(
                f"--h-list takes comma-separated integers, got {args.h_list!r}"
            ) from None
        est = gy2_correlation_check(params, shifts, (lo, hi))
        kind = "shifted_correlation"
    else:
        system = LinearFormSystem.from_rows([(1,)])
        est = gy_moment_check(
            params, system, [(lo, hi)], mode=args.mode,
            samples=args.samples, seed=args.seed,
        )
        kind = "window_moment"
    return {
        "kind": kind,
        "N": params.N,
        "w": params.w,
        "theta": params.R_exponent,
        "R": params.R,
        "box": [lo, hi],
        "ratio": est.value,
        "std_error": est.std_error,
        "samples": est.samples,
    }


def _cmd_decompose(args) -> dict:
    nu = _measure_from_args(args)
    group = nu.group
    if args.f == "dense01":
        rng = substream(args.f_seed, "dense01")
        f = GridFunction(group, (rng.random(args.n) < 0.5).astype(np.float64))
        f = GridFunction(group, np.minimum(f.values, nu.values))
    elif args.f == "nu-mask":
        rng = substream(args.f_seed, "nu_mask")
        mask = rng.random(args.n) < 0.5
        f = GridFunction(group, np.where(mask, nu.values, 0.0))
    else:
        f = _read_column(args.f, args.n)
    config = DecompositionConfig(
        k=args.k,
        epsilon=args.epsilon_dec,
        eta=args.eta,
        uniformity_mode=args.mode,
        samples=args.samples,
        seed=args.seed,
    )
    result = kvn_decompose(f, nu, config)
    report = {
        "k": args.k,
        "epsilon": args.epsilon_dec,
        "eta": config.eta,
        "iterations": result.iterations,
        "iteration_cap": config.iteration_cap,
        "terminated_successfully": result.terminated_successfully,
        "final_uniformity": result.final_uniformity.norm_value,
        "final_uniformity_stderr": result.final_uniformity.std_error,
        "uniformity_threshold": config.uniformity_threshold,
        "atom_count": result.sigma.atom_count,
        "omega_size": int(result.omega.sum()),
        "energy_trace": list(result.energy_trace),
        "trace": list(result.iteration_log),
    }
    if args.output:
        emit_report(report, "json", args.output)
    return report


def _cmd_apcount(args) -> dict:
    count = count_prime_aps(args.k, args.limit)
    if args.k == 3 and args.limit >= 2:
        forward, inverse, length = _k3_wheel_shape(args.limit)
        print(f"[znkit] apcount route: odd-prime bitset, wheel 210 on half-indices, "
              f"{forward} forward and {inverse} inverse transforms of length L' = {length}",
              file=sys.stderr)
    return {"k": args.k, "limit": args.limit, "count": count}


def _cmd_gvn(args) -> dict:
    nu = _measure_from_args(args)
    report = gvn_check(nu, args.k, args.trials, args.seed)
    return {
        "k": report.k,
        "trials": report.trials,
        "slope": report.slope,
        "max_residual": report.max_residual,
        "pairs": [list(p) for p in report.pairs],
    }


def _add_majorant_flags(p: argparse.ArgumentParser, w: int = 3) -> None:
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--w", type=int, default=w)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=0.0)


def _add_measure_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nu", default="constant",
                   help="constant | bernoulli | majorant | path to column CSV")
    p.add_argument("--nu-seed", type=int, default=0, dest="nu_seed")
    _add_majorant_flags(p)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="znkit",
        description="uniformity norms, prime majorants, and decompositions on Z_N",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--report-file", default=None,
                        help="also write the stdout report to this path")
    parser.add_argument("--timing", action="store_true",
                        help="embed measured wall time in the report "
                             "(off by default so reruns are byte-identical)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="factorization tables as CSV")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sieve, seed=None)

    p = sub.add_parser("majorant", help="build the majorant measure")
    p.add_argument("--n", type=int, required=True)
    _add_majorant_flags(p)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_majorant, seed=None)

    p = sub.add_parser("gowers", help="U^d norm of a column-CSV function")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("exact", "fourier", "mc"), default="exact")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_gowers)

    p = sub.add_parser("dual", help="dual function of a column-CSV function")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("exact", "fourier", "mc"), default="exact")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("linforms", help="verify the linear forms condition")
    p.add_argument("--n", type=int, required=True)
    _add_measure_flags(p)
    p.add_argument("--system", default="cube:2",
                   help="cube:D | progression:K | path to JSON {rows, constants}")
    p.add_argument("--mode", choices=("exact", "monte_carlo"), default="monte_carlo")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--threshold", type=float, default=0.25)
    p.set_defaults(func=_cmd_linforms)

    p = sub.add_parser("correlation", help="verify the correlation condition")
    p.add_argument("--n", type=int, required=True)
    _add_measure_flags(p)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--tuples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--c-tau", type=float, default=4.0, dest="c_tau")
    p.add_argument("--a-tau", type=float, default=None, dest="a_tau")
    p.add_argument("--threshold", type=float, default=1.0)
    p.set_defaults(func=_cmd_correlation)

    p = sub.add_parser("gycheck", help="window moment ratios of divisor sums")
    p.add_argument("--n", type=int, required=True)
    _add_majorant_flags(p, w=2)
    p.add_argument("--h-list", default=None, dest="h_list",
                   help="comma-separated shifts; switches to the shifted check")
    p.add_argument("--box", default=None,
                   help="lo:hi overriding the window (--box=-5:5 for a negative lo)")
    p.add_argument("--mode", choices=("exact", "monte_carlo"), default="exact")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gycheck)

    p = sub.add_parser("decompose", help="energy-increment decomposition")
    p.add_argument("--n", type=int, required=True)
    _add_measure_flags(p)
    p.add_argument("--f", default="nu-mask",
                   help="dense01 | nu-mask | path to column CSV")
    p.add_argument("--f-seed", type=int, default=1, dest="f_seed")
    p.add_argument("--epsilon-dec", type=float, required=True, dest="epsilon_dec")
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--mode", choices=("exact", "monte_carlo"), default="exact")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("apcount", help="count prime arithmetic progressions")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(func=_cmd_apcount, seed=None)

    p = sub.add_parser("gvn", help="progression averages vs weakest norm")
    p.add_argument("--n", type=int, required=True)
    _add_measure_flags(p)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gvn)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "format", "report_file", "timing", "command")
    }
    started = time.monotonic()
    try:
        result = args.func(args)
        code = EXIT_OK
    except VerdictError as exc:
        result = exc.report
        code = EXIT_VERDICT
    except BudgetExceededError as exc:
        print(_to_json({"error": {"type": "budget", "message": str(exc)}}))
        return EXIT_BUDGET
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(_to_json({"error": {"type": "invalid", "message": str(exc)}}))
        return EXIT_INVALID
    elapsed_ms = 1000.0 * (time.monotonic() - started)
    print(_finished_line(args.command, elapsed_ms), file=sys.stderr)
    meta = {
        "version": __version__,
        "command": args.command,
        "parameters": params,
        "seed": params.get("seed"),
        "wall_time_ms": elapsed_ms if args.timing else None,
    }
    text = emit_report({"meta": meta, "result": result}, args.format, args.report_file)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
