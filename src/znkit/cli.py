"""Command-line driver: the only module with side effects.

Every run prints one JSON report to stdout whose meta block records the tool
version, command, full parameter set and seed, so any output can be
reproduced from the file alone.  Timing is measured but written to stderr;
the wall_time_ms slot in artifacts stays null unless --timing is passed, so
that identical runs produce byte-identical files.

Exit codes: 0 success, 2 invalid parameters, 3 cost budget exceeded,
4 verification verdict failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .core import (
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
from .arith import MajorantParams, build_majorant, build_sieve, lambda_r_table, write_tables_csv
from .pseudo import (
    LinearFormSystem,
    bernoulli_measure,
    gy2_correlation_check,
    gy_moment_check,
    verify_correlation,
    verify_linear_forms,
)
from .transference import (
    DecompositionConfig,
    count_prime_aps,
    gvn_check,
    kvn_decompose,
)

__all__ = ["RunSpec", "run", "emit_report", "main"]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_VERDICT = 4


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
        for k in sorted(obj, key=str):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], out)
    else:
        out[prefix] = obj


def emit_report(result: dict, fmt: str, path: str | None) -> str:
    """Serialize a report; bit-stable for a fixed result object.

    JSON keeps structure; CSV flattens nested keys with dots into one header
    row plus one value row (RFC-4180 quoting via the csv module).
    """
    if fmt == "json":
        text = _to_json(result) + "\n"
    elif fmt == "csv":
        import csv as _csv
        import io

        flat: dict = {}
        _flatten("", result, flat)
        buf = io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(list(flat.keys()))
        writer.writerow(
            [
                _fmt_float(v) if isinstance(v, (float, np.floating)) else
                ("" if v is None else v)
                for v in flat.values()
            ]
        )
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


class RunSpec:
    """A fully-resolved command: name, reported parameters and parsed args."""

    def __init__(self, command: str, parameters: dict, args: argparse.Namespace):
        self.command = command
        self.parameters = parameters
        self.args = args

    def to_meta(self) -> dict:
        return {
            "version": __version__,
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.parameters.get("seed"),
        }


def _read_column(path: str, n: int) -> GridFunction:
    vals = np.loadtxt(path, dtype=np.float64, ndmin=1)
    if vals.size != n:
        raise ValueError(f"{path} holds {vals.size} values, expected {n}")
    return GridFunction(CyclicGroup(n), vals)


def _write_column(values: np.ndarray, path: str) -> None:
    with open(path, "w") as fh:
        for v in values:
            fh.write(_fmt_float(float(v)) + "\n")


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
    if spec.startswith("cube:"):
        return LinearFormSystem.cube(int(spec.split(":", 1)[1]))
    if spec.startswith("progression:"):
        return LinearFormSystem.progression(int(spec.split(":", 1)[1]))
    with open(spec) as fh:
        data = json.load(fh)
    return LinearFormSystem.from_rows(data["rows"], data.get("constants"))


def _cmd_sieve(args) -> dict:
    tables = build_sieve(args.limit)
    lam = lambda_r_table(args.limit, args.r) if args.r else np.zeros(args.limit + 1)
    if args.output:
        write_tables_csv(tables, lam, args.output, limit=args.limit)
    return {
        "limit": args.limit,
        "r": args.r,
        "prime_count": tables.prime_count(),
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


def _cmd_gowers(args) -> dict:
    f = _read_column(args.input, args.n)
    if args.mode == "exact":
        est = gowers_norm(f, args.d, budget=args.budget)
    elif args.mode == "fourier":
        if args.d != 2:
            raise ValueError("fourier mode is available for d = 2 only")
        est = gowers_norm_u2_fourier(f)
    elif args.mode == "mc":
        est = gowers_norm_mc(f, args.d, args.samples, args.seed)
    else:
        raise ValueError(f"unknown mode {args.mode!r}")
    return {
        "d": est.dimension,
        "mode": est.mode,
        "norm_value": est.norm_value,
        "raised_value": est.raised_value,
        "std_error": est.std_error,
    }


def _cmd_dual(args) -> dict:
    f = _read_column(args.input, args.n)
    if args.mode == "fourier":
        if args.d != 2:
            raise ValueError("fourier mode is available for d = 2 only")
        df = dual_function_u2_fourier(f)
    elif args.mode == "exact":
        df = dual_function(f, args.d, mode="exact", budget=args.budget)
    elif args.mode == "mc":
        df = dual_function(
            f, args.d, mode="monte_carlo", samples=args.samples, seed=args.seed
        )
    else:
        raise ValueError(f"unknown mode {args.mode!r}")
    if args.output:
        _write_column(df.values, args.output)
    return {
        "d": args.d,
        "mode": args.mode,
        "sup": float(np.abs(df.values).max()),
        "mean": float(df.values.mean()),
        "output": args.output,
    }


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
    out = report.to_dict()
    if not report.passed:
        raise VerdictError(out)
    return out


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
    out = report.to_dict()
    if not report.passed:
        raise VerdictError(out)
    return out


def _cmd_gycheck(args) -> dict:
    params = _majorant_params(args)
    lo, hi = params.window
    if args.box:
        lo, hi = (int(s) for s in args.box.split(":"))
    if args.h_list:
        shifts = [int(s) for s in args.h_list.split(",")]
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
    return {"k": args.k, "limit": args.limit, "count": count_prime_aps(args.k, args.limit)}


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
    parser = argparse.ArgumentParser(
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
    p.add_argument("--budget", type=int, default=10**9)
    p.set_defaults(func=_cmd_gowers)

    p = sub.add_parser("dual", help="dual function of a column-CSV function")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("exact", "fourier", "mc"), default="exact")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10**9)
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
    p.add_argument("--budget", type=int, default=10**9)
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
    p.add_argument("--box", default=None, help="lo:hi overriding the window")
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


def run(spec: RunSpec) -> tuple[int, dict]:
    """Dispatch a resolved command; returns (exit_code, report envelope)."""
    args = spec.args
    started = time.monotonic()
    try:
        result = args.func(args)
        code = EXIT_OK
    except VerdictError as exc:
        result = exc.report
        code = EXIT_VERDICT
    elapsed_ms = 1000.0 * (time.monotonic() - started)
    envelope = {
        "meta": {
            **spec.to_meta(),
            "wall_time_ms": elapsed_ms if args.timing else None,
        },
        "result": result,
    }
    print(f"[znkit] {spec.command} finished in {elapsed_ms:.1f} ms", file=sys.stderr)
    return code, envelope


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
    spec = RunSpec(args.command, params, args)
    try:
        code, envelope = run(spec)
    except BudgetExceededError as exc:
        print(_to_json({"error": {"type": "budget", "message": str(exc)}}))
        return EXIT_BUDGET
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(_to_json({"error": {"type": "invalid", "message": str(exc)}}))
        return EXIT_INVALID
    text = emit_report(envelope, args.format, args.report_file)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
