"""The three CLI sessions, the inputs they read, and how each report is checked.

A session is a fixed sequence of `python -m znkit ...` commands run one at a
time in a scratch directory.  File inputs are generated from the benchmark
seed; every other flag, program seeds included, is fixed, so reports can be
compared with references recorded at the seed commit (references.json).

Why these sessions:
  majorant      the W*N divisor-sum table (arith) and N = 10^6 CSV read and
                write (cli); no transference work.  It stops at w = 7: at
                w = 11 and N = 999983 the table is about 9.2 GB, more than an
                8 GB host holds.  A change that makes w = 11 reachable adds
                it as its own benchmark change.
  progressions  transference (progression averages, level-set refinement),
                exact U^3 enumeration and the dense sieve build_sieve(10^7);
                no pseudo work.
  verifiers     Monte Carlo sampling in pseudo and gowers, core.substream and
                the tau trial division; arith does little.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (
    compare_exact,
    compare_mc,
    compare_same,
    read_column,
    u3_and_dual,
)

EXIT_OK = 0  # znkit.cli.EXIT_OK; every benchmarked command succeeds
N_SMALL = 101
N_MID = 10007
INTERVAL_LEN = 5003  # about N/2: the indicator refines exactly once
# The uniform column is this fixed base column composed with a seeded affine
# map x -> a x + b of Z_N.  U^3 norms and dual means are invariant under such
# maps, so the exact values recorded for the base column hold for every seed.
BASE_COLUMN_SEED = 2004

MAJ = ("--n", "999983", "--theta", "0.3333", "--epsilon", "0.25")
LIN = ("--n", "10007", "--nu", "majorant", "--k", "3", "--w", "2",
       "--theta", "0.3333", "--epsilon", "0.1", "--seed", "1")


@dataclass(frozen=True)
class Inputs:
    """Oracle values for the seeded small column: ||f||_{U^3}^8 and D_3 f."""

    small_raised: float
    small_dual: np.ndarray


def base_uniform_column() -> np.ndarray:
    return np.random.default_rng(BASE_COLUMN_SEED).random(N_MID)


def make_inputs(seed: int, workdir: Path) -> Inputs:
    """Write small.csv, interval.csv and uniform.csv for this seed."""
    rng = np.random.default_rng([seed, 0x7A6E6B6974])
    small = rng.uniform(-1.0, 1.0, N_SMALL)
    start = int(rng.integers(0, N_MID))
    a = int(rng.integers(1, N_MID))
    b = int(rng.integers(0, N_MID))
    uniform = base_uniform_column()[(a * np.arange(N_MID) + b) % N_MID]
    interval = np.zeros(N_MID)
    interval[(start + np.arange(INTERVAL_LEN)) % N_MID] = 1.0
    for name, col in (("small", small), ("interval", interval), ("uniform", uniform)):
        with open(workdir / f"{name}.csv", "w") as fh:
            fh.write("".join(format(float(v), ".17g") + "\n" for v in col))
    return Inputs(*u3_and_dual(small))


Oracle = Callable[[dict, Inputs, dict, Path], list]


@dataclass(frozen=True)
class Command:
    """One CLI call and what its report must contain.

    same:   result fields compared exactly (counts, sizes, flags, labels)
    exact:  result fields from exact routes, floats to relative 1e-9
    mc:     (estimate, std error, power) triples, within 4 std errors
    oracle: extra check against values computed here, not recorded
    """

    label: str
    argv: tuple[str, ...]
    same: tuple[str, ...] = ()
    exact: tuple[str, ...] = ()
    mc: tuple[tuple[str, str, int], ...] = ()
    oracle: Oracle | None = None

    def recorded_fields(self) -> tuple[str, ...]:
        return self.same + self.exact + tuple(f for m in self.mc for f in m[:2])


def _oracle_small_norm(result, inputs, consts, workdir):
    raised = inputs.small_raised
    return (compare_exact("raised_value", result["raised_value"], raised)
            + compare_exact("norm_value", result["norm_value"], raised ** 0.125))


def _oracle_small_dual(result, inputs, consts, workdir):
    dual = inputs.small_dual
    return (compare_exact("mean", result["mean"], float(dual.mean()))
            + compare_exact("sup", result["sup"], float(np.abs(dual).max())))


def _oracle_uniform_norm(result, inputs, consts, workdir):
    return compare_mc("raised_value", result["raised_value"], result["std_error"],
                      consts["uniform_u3_raised"], 0.0)


def _oracle_uniform_dual(result, inputs, consts, workdir):
    # The dual estimate has no reported std error, so it is taken from the
    # written column: znkit draws fresh h for every 2^16 / S consecutive
    # points, so batches of 2^18 / S consecutive points are close to
    # independent, and the spread of their means gives the std error of the
    # overall mean (it also holds if a draw is shared by up to 4x more points).
    col = read_column(workdir / "dual_mc.csv")
    errors = (compare_exact("dual_mc.csv mean", float(col.mean()), result["mean"])
              + compare_exact("dual_mc.csv sup", float(np.abs(col).max()), result["sup"]))
    samples = 1000  # the --samples flag of dual_u3_mc
    starts = np.arange(0, col.size, 2**18 // samples)
    sizes = np.diff(np.append(starts, col.size))
    batch_means = np.add.reduceat(col, starts) / sizes
    share = sizes / col.size
    mean = float(col.mean())
    se = math.sqrt(float(share @ share) * float(share @ (batch_means - mean) ** 2)
                   / (1.0 - float(share @ share)))
    errors += compare_mc("mean", mean, se, consts["uniform_dual_mean"], 0.0)
    if not 0 < mean <= result["sup"] < 1:
        errors.append(f"sup {result['sup']!r} / mean {mean!r} out of range")
    return errors


def _oracle_dual_file(result, inputs, consts, workdir):
    col = read_column(workdir / "dual.csv")
    return (compare_exact("dual.csv mean", float(col.mean()), result["mean"])
            + compare_exact("dual.csv sup", float(np.abs(col).max()), result["sup"]))


def _majorant(w: int, *extra: str) -> Command:
    return Command(f"majorant_w{w}", ("majorant", *MAJ, "--w", str(w), *extra),
                   same=("N", "W", "w", "k", "window"), exact=("R", "mean"))


def _gycheck_exact(label: str, *extra: str) -> Command:
    return Command(label, ("gycheck", *MAJ, *extra),
                   same=("kind", "box", "samples", "w"), exact=("ratio", "R", "std_error"))


WORKLOADS: dict[str, tuple[Command, ...]] = {
    "majorant": (
        _majorant(2),
        _majorant(3, "--output", "nu.csv"),
        _majorant(5),
        _majorant(7),
        _gycheck_exact("gycheck_w2", "--w", "2"),
        _gycheck_exact("gycheck_w5", "--w", "5"),
        _gycheck_exact("gycheck_shifts", "--h-list", "0,2,6"),
        Command("gowers_u2_fourier",
                ("gowers", "--n", "999983", "--d", "2", "--input", "nu.csv",
                 "--mode", "fourier"),
                same=("d", "mode"), exact=("norm_value", "raised_value", "std_error")),
        Command("dual_u2_fourier",
                ("dual", "--n", "999983", "--d", "2", "--input", "nu.csv",
                 "--mode", "fourier", "--output", "dual.csv"),
                same=("d", "mode"), exact=("sup", "mean"), oracle=_oracle_dual_file),
    ),
    "progressions": (
        Command("apcount_k3", ("apcount", "--k", "3", "--limit", "10000000"),
                same=("k", "limit", "count")),
        Command("apcount_k4", ("apcount", "--k", "4", "--limit", "100000"),
                same=("k", "limit", "count")),
        Command("gvn_k3", ("gvn", "--n", "2003", "--trials", "30", "--seed", "1"),
                same=("k", "trials"), exact=("slope", "max_residual", "pairs")),
        Command("gvn_k4", ("gvn", "--n", "101", "--k", "4", "--trials", "20",
                           "--seed", "1"),
                same=("k", "trials"), exact=("slope", "max_residual", "pairs")),
        Command("gowers_u3_exact",
                ("gowers", "--n", "101", "--d", "3", "--input", "small.csv",
                 "--mode", "exact"),
                same=("d", "mode", "std_error"), oracle=_oracle_small_norm),
        Command("dual_u3_exact",
                ("dual", "--n", "101", "--d", "3", "--input", "small.csv",
                 "--mode", "exact"),
                same=("d", "mode"), oracle=_oracle_small_dual),
        Command("decompose_interval",
                ("decompose", "--n", "10007", "--f", "interval.csv",
                 "--epsilon-dec", "1e-4", "--eta", "1e-5"),
                same=("iterations", "atom_count", "omega_size", "iteration_cap",
                      "terminated_successfully"),
                exact=("energy_trace", "final_uniformity", "uniformity_threshold")),
    ),
    "verifiers": (
        Command("linforms_cube2",
                ("linforms", *LIN, "--system", "cube:2", "--samples", "10000000"),
                same=("samples", "parameters", "passed"),
                mc=(("estimate", "std_error", 1),)),
        Command("linforms_cube3",
                ("linforms", *LIN, "--system", "cube:3", "--samples", "2000000"),
                same=("samples", "parameters", "passed"),
                mc=(("estimate", "std_error", 1),)),
        Command("gycheck_mc",
                ("gycheck", *MAJ, "--w", "2", "--mode", "monte_carlo",
                 "--samples", "20000000", "--seed", "1"),
                same=("kind", "box", "samples"), mc=(("ratio", "std_error", 1),)),
        Command("gowers_u3_mc",
                ("gowers", "--n", "10007", "--d", "3", "--input", "uniform.csv",
                 "--mode", "mc", "--samples", "4000000", "--seed", "1"),
                same=("d", "mode"), oracle=_oracle_uniform_norm),
        Command("dual_u3_mc",
                ("dual", "--n", "10007", "--d", "3", "--input", "uniform.csv",
                 "--mode", "mc", "--samples", "1000", "--seed", "1",
                 "--output", "dual_mc.csv"),
                same=("d", "mode"), oracle=_oracle_uniform_dual),
        Command("decompose_bernoulli_k4",
                ("decompose", "--n", "1009", "--nu", "bernoulli", "--nu-seed", "1",
                 "--k", "4", "--mode", "monte_carlo", "--epsilon-dec", "1e-4",
                 "--samples", "50000", "--seed", "1"),
                same=("iterations", "atom_count", "omega_size",
                      "terminated_successfully"),
                exact=("energy_trace",),
                mc=(("final_uniformity", "final_uniformity_stderr", 8),)),
        Command("correlation",
                ("correlation", "--n", "999983", "--tuples", "20", "--seed", "1"),
                same=("samples", "parameters", "passed"),
                exact=("estimate", "moments")),
    ),
}


def check_report(cmd: Command, code: int, stdout: str, inputs: Inputs,
                 refs: dict, workdir: Path) -> list[str]:
    """Every way this command's exit code or report is wrong; empty if right."""
    if code != EXIT_OK:
        return [f"exit code {code}, expected {EXIT_OK}: {stdout[-300:]!r}"]
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable report ({exc}): {stdout[-300:]!r}"]
    missing = [f for f in cmd.recorded_fields() if f not in result]
    if missing:
        return [f"report lacks {missing}"]
    want = refs["commands"][cmd.label]
    errors = []
    for f in cmd.same:
        errors += compare_same(f, result[f], want[f])
    for f in cmd.exact:
        errors += compare_exact(f, result[f], want[f])
    for f, se, power in cmd.mc:
        errors += compare_mc(f, result[f], result[se], want[f], want[se], power)
    if cmd.oracle is not None:
        errors += cmd.oracle(result, inputs, refs["constants"], workdir)
    return errors


def record_fields(cmd: Command, stdout: str) -> dict:
    result = json.loads(stdout)["result"]
    return {f: result[f] for f in cmd.recorded_fields()}


def record_constants() -> dict:
    """Exact oracle values for the base uniform column (seed independent)."""
    raised, dual = u3_and_dual(base_uniform_column())
    return {"uniform_u3_raised": raised, "uniform_dual_mean": float(dual.mean())}
