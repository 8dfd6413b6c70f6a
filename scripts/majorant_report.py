#!/usr/bin/env python3
"""Desk-scale behavior of the majorant: means, window moments, sensitivity.

Sweeps N through the decades and w over small cutoffs, reporting the mean of
the majorant, the window moment ratio against (W log R / phi(W))^m, and the
sensitivity of both to the small-prime cutoff w.  The sweep makes the
R = N^theta degeneracy visible: below theta ~ 1/3 no divisor coprime to W
clears the threshold at these N, the divisor sum freezes at log R, and the
ratio pins to (phi(W)/W) log R instead of drifting to 1.  Divisor sums are
computed on the progression W n + 1 only, so memory is O(window + R) and the
sweep reaches w = 13 (W = 30030) at N = 10^6.

Usage: python scripts/majorant_report.py [--full]
"""

import argparse
import sys
import warnings

sys.path.insert(0, "src")

from znkit import LinearFormSystem, MajorantParams, build_majorant, gy_moment_check

PRIMES = {10**4: 10007, 10**5: 100003, 10**6: 999983}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true",
                        help="include the N = 10^6 rows (a few seconds)")
    parser.add_argument("--epsilon", type=float, default=0.25)
    args = parser.parse_args()

    sizes = [10**4, 10**5] + ([10**6] if args.full else [])
    system = LinearFormSystem.from_rows([(1,)])
    print(f"{'N':>8} {'w':>3} {'theta':>7} {'R':>9} {'E(nu)':>8} {'window ratio':>13}")
    for scale in sizes:
        n = PRIMES[scale]
        for w in (2, 3, 5, 7, 11, 13):
            for theta in (1 / 20, 1 / 8, 1 / 3, 1 / 2):
                params = MajorantParams(
                    k=3, N=n, w=w, R_exponent=theta, epsilon_k=args.epsilon
                )
                nu = build_majorant(params)
                lo, hi = params.window
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    ratio = gy_moment_check(params, system, [(lo, hi)]).value
                print(f"{n:>8} {w:>3} {theta:7.4f} {params.R:9.1f} "
                      f"{nu.values.mean():8.4f} {ratio:13.4f}")
    print("\nthe window ratio approaches 1 only once R = N^theta clears the")
    print("smallest prime coprime to W; with theta = 1/20 that needs N ~ 10^40")
    return 0


if __name__ == "__main__":
    sys.exit(main())
