"""Outside-in layer tracing for an in-process `znkit.cli.main(argv)` call.

The tracer wraps the public functions of each layer module and rebinds every
znkit namespace that imported them (for example `pseudo.lambda_r_table` and
`cli.build_majorant`), so calls across modules are seen.  A span's self time
is its duration minus the time of the spans it caused; the self times are
summed per layer and for a few named functions.  Hot leaves such as
`tau_weight`, called once per residue, are counted instead of spanned: a
span per call would cost more than the call.  Counters of work done are read
from the wrapped calls' arguments and results.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict
from typing import Callable

LAYERS = ("cli", "core", "gowers", "arith", "pseudo", "transference")
COUNTED_LEAVES = {"pseudo.tau_weight": "pseudo.tau_evals"}
SELF_TIMED = ("transference.count_prime_aps", "transference.ap_expectation",
              "transference.build_level_sigma")


def _cube_cost(n: int, d: int) -> int:
    return 2**d * n ** (d + 1)


# Work counters: qualified name -> fn(bound arguments, result) -> {metric: amount}
COUNTERS: dict[str, Callable[[dict, object], dict]] = {
    "arith.lambda_r_table": lambda a, r: {"arith.table_entries": a["limit"] + 1},
    "arith.build_sieve": lambda a, r: {"arith.sieve_entries": a["limit"] + 1},
    "gowers.gowers_norm": lambda a, r: {
        "gowers.exact_nominal_cost": _cube_cost(a["f"].group.modulus, a["d"])},
    "gowers.gowers_inner": lambda a, r: {
        "gowers.exact_nominal_cost": _cube_cost(a["family"].group.modulus,
                                                a["family"].dimension)},
    "gowers.dual_function": lambda a, r: (
        {"gowers.exact_nominal_cost": _cube_cost(a["F"].group.modulus, a["d"])}
        if a["mode"] == "exact"
        else {"gowers.mc_samples": a["samples"] * a["F"].group.modulus}),
    "gowers.gowers_norm_mc": lambda a, r: {"gowers.mc_samples": a["samples"]},
    "pseudo.verify_linear_forms": lambda a, r: (
        {"pseudo.mc_samples": a["samples"]} if a["mode"] == "monte_carlo" else {}),
    "pseudo.gy_moment_check": lambda a, r: (
        {"pseudo.mc_samples": a["samples"]} if a["mode"] == "monte_carlo" else {}),
    "core.substream": lambda a, r: {"core.substreams": 1},
    "transference.build_level_sigma": lambda a, r: {
        "transference.alpha_evals":
            (a["alpha_grid"] or math.ceil(1.0 / a["eta"])) * a["G"].group.modulus},
    "transference.kvn_decompose": lambda a, r: {
        "transference.refine_iterations": r.iterations},
}

METRICS = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.calls", "count") for layer in LAYERS]
    + [(f"{name}.self_s", "s") for name in SELF_TIMED]
    + [("arith.table_entries", "count"), ("arith.sieve_entries", "count"),
       ("gowers.exact_nominal_cost", "ops"), ("gowers.mc_samples", "samples"),
       ("pseudo.mc_samples", "samples"), ("pseudo.tau_evals", "count"),
       ("core.substreams", "count"), ("transference.alpha_evals", "count"),
       ("transference.refine_iterations", "count")]
)


class Tracer:
    """Span and counter recorder; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, layer: str, qual: str, fn: Callable) -> Callable:
        values, stack = self.values, self._stack
        counter = COUNTERS.get(qual)
        signature = inspect.signature(fn) if counter else None
        timed = qual in SELF_TIMED

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                own = duration - frame[0]
                values[f"{layer}.self_s"] += own
                values[f"{layer}.calls"] += 1
                if timed:
                    values[f"{qual}.self_s"] += own
                if stack:
                    stack[-1][0] += duration
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for name, amount in counter(bound.arguments, result).items():
                    values[name] += amount
            return result

        return wrapper

    def _leaf(self, metric: str, fn: Callable) -> Callable:
        values = self.values

        def wrapper(*args, **kwargs):
            values[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "znkit" or name.startswith("znkit.")]
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"znkit.{layer}"]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                qual = f"{layer}.{name}"
                replace[obj] = (self._leaf(COUNTED_LEAVES[qual], obj)
                                if qual in COUNTED_LEAVES else self._span(layer, qual, obj))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, replace[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        return {name: (float if name.endswith("_s") else int)(self.values.get(name, 0))
                for name, _ in METRICS}
