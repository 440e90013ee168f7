#!/usr/bin/env python3
"""Empirical convergence experiment.

For one base and modulus, scan a ladder of sieve bounds and print how the
observed share of primes per class approaches the exact density, together
with the weighted character sum against its predicted main term.

    python scripts/convergence_table.py -g 2 -f 4
    python scripts/convergence_table.py -g 13 -f 12 --bounds 1e4,1e5,1e6 --threads 4
"""

import argparse

from rootdensity.density import Progression, delta_closed, residues
from rootdensity.scan import ScanConfig, scan


def run(g: int, f: int, bounds: tuple[int, ...], workers: int) -> None:
    classes = residues(f)
    exact = {a: float(delta_closed(Progression(a, f), g)) for a in classes}
    print(f"base g = {g}, modulus f = {f}")
    print(f"{'x':>10}  {'a':>4}  {'hits':>8}  {'observed':>10}  {'exact':>10}  "
          f"{'abs err':>9}  {'heuristic':>11}  {'main term':>11}")
    for x in bounds:
        counts = scan(g, f, x, ScanConfig(workers=workers))
        for a in classes:
            c = counts[a]
            observed = c.hits / c.primes_total
            main_term = exact[a] * c.li_x
            print(f"{x:>10}  {a:>4}  {c.hits:>8}  {observed:>10.6f}  {exact[a]:>10.6f}  "
                  f"{abs(observed - exact[a]):>9.6f}  {c.heuristic_sum:>11.1f}  {main_term:>11.1f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-g", type=int, required=True)
    parser.add_argument("-f", type=int, default=1)
    parser.add_argument("--bounds", default="1e4,1e5,1e6",
                        help="comma-separated sieve bounds (default 1e4,1e5,1e6)")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()
    bounds = tuple(int(float(s)) for s in args.bounds.split(","))
    run(args.g, args.f, bounds, args.threads)


if __name__ == "__main__":
    main()
