#!/usr/bin/env python3
"""Uniformity trends for the majorant as N grows.

Two experiments at fixed (w, theta, epsilon):

* distance to the constant measure in the U^2 norm, which should shrink as
  N runs through the decades;
* correlation of nu - 1 against random polynomials of dual functions built
  from envelope-dominated inputs (degree <= 3, two duals), reported next to
  the trivial bound E|nu - 1| sup|Phi|.  No threshold is asserted: the decay
  rate is not pinned, only the trend is of interest.

Usage: python scripts/uniformity_trend.py [--full]
"""

import argparse
import sys

import numpy as np

sys.path.insert(0, "src")

from znkit import (
    GridFunction,
    MajorantParams,
    build_majorant,
    dual_function,
    gowers_norm,
)
from znkit.core import substream
from znkit.pseudo import antiuniform_correlation

PRIMES = (10007, 100003, 1000003)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--w", type=int, default=2)
    parser.add_argument("--theta", type=float, default=1 / 8)
    parser.add_argument("--epsilon", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full", action="store_true",
                        help="include N = 10^6 (about a second extra)")
    args = parser.parse_args()

    sizes = PRIMES if args.full else PRIMES[:2]
    print(f"w={args.w} theta={args.theta} epsilon={args.epsilon}")
    print(f"{'N':>8} {'||nu-1||_U2':>12} {'|<nu-1, Phi(D)>|':>17} {'trivial bound':>14}")
    for n in sizes:
        params = MajorantParams(
            k=3, N=n, w=args.w, R_exponent=args.theta, epsilon_k=args.epsilon
        )
        nu = build_majorant(params)
        dist = gowers_norm(nu - 1.0, 2).norm_value

        rng = substream(args.seed, "trend", n)
        duals = []
        for _ in range(2):
            F = GridFunction(nu.group, rng.uniform(-1, 1, size=n) * (nu.values + 1.0))
            duals.append(dual_function(F, 2))
        poly = {(1, 0): 1.0, (0, 1): -0.5, (2, 1): 0.25, (0, 3): 0.1}
        corr = abs(antiuniform_correlation(nu, duals, poly))
        sup_phi = sum(
            abs(c) * 8.2 ** sum(e) for e, c in poly.items()
        )
        trivial = float(np.abs(nu.values - 1.0).mean()) * sup_phi
        print(f"{n:>8} {dist:12.5f} {corr:17.3e} {trivial:14.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
