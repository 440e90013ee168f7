#!/usr/bin/env python3
"""Equidistribution survey.

Walk a range of bases and report, for each, its squarefree kernel class,
the moduli up to a bound for which the primes with that primitive root
are weakly uniformly distributed, and the classes of exactly zero
density encountered along the way.

    python scripts/wud_survey.py --gmin -10 --gmax 10 --fmax 24
"""

import argparse

from rootdensity.classify import wud_set, zero_density
from rootdensity.density import InvalidBaseError, Progression, make_base, residues


def survey(gmin: int, gmax: int, fmax: int) -> None:
    print(f"{'g':>6}  {'g1':>5}  {'h':>3}  {'family':<16}  {'WUD moduli <= ' + str(fmax):<28}  zero classes")
    for g in range(gmin, gmax + 1):
        try:
            base = make_base(g)
        except InvalidBaseError:
            continue
        wud = [f for f in range(1, fmax + 1) if wud_set(g, f).is_wud]
        zeros = []
        for f in range(1, fmax + 1):
            for a in residues(f):
                if zero_density(Progression(a, f), g).triggered:
                    zeros.append(f"{a}({f})")
        family = wud_set(g, 1).family.value
        shown = " ".join(zeros[:6]) + (" ..." if len(zeros) > 6 else "")
        print(f"{g:>6}  {base.g1:>5}  {base.h:>3}  {family:<16}  {str(wud):<28}  {shown}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gmin", type=int, default=-10)
    parser.add_argument("--gmax", type=int, default=10)
    parser.add_argument("--fmax", type=int, default=24)
    args = parser.parse_args()
    survey(args.gmin, args.gmax, args.fmax)


if __name__ == "__main__":
    main()
