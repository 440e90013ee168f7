"""Command-line front end.

Subcommands: density (exact closed form per class), verify (closed form
vs truncated series vs sieve counts), classify (vanishing classes and
weak-uniform-distribution verdicts), scan (sieve counts per class) and
heuristic (weighted character sum vs the predicted main term).

All machine-readable emissions share one shape per subcommand; CSV and
JSON carry identical cell strings.  Exit codes: 0 success, 1 a
verification check failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from decimal import ROUND_CEILING, ROUND_HALF_EVEN, Decimal, localcontext

from .classify import wud_set, zero_density
from .density import (
    X_CAP,
    DensityValue,
    InvalidBaseError,
    Progression,
    delta_closed,
    delta_closed_v2,
    make_base,
    residues,
)

RECORD_COLUMNS = ["g", "f", "a", "coefficient", "numeric", "method", "value", "error"]
SCAN_COLUMNS = ["a", "primes_in_class", "hits", "observed", "predicted", "abs_error"]
CLASSIFY_COLUMNS = ["f", "is_wud", "family", "zero_residues"]
# classify walks every class of every f <= fmax: its work grows as fmax^2
_FMAX_CAP = 1000
_MAX_DIGITS = 30


def _classes(args) -> list[Progression]:
    """The requested classes (-a, or every coprime class mod f), validated
    before any work is done."""
    classes = [args.a] if args.a is not None else residues(args.f)
    return [Progression(a, args.f) for a in classes]


def _digits(text: str) -> int:
    """--digits as an int in 1.._MAX_DIGITS; anything else is a one-line
    usage error."""
    try:
        digits = int(text)
    except ValueError:
        digits = 0
    if not 1 <= digits <= _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"need an integer in 1..{_MAX_DIGITS}, got {text!r}")
    return digits


def _sig_decimal(value: Decimal, digits: int, rounding: str = ROUND_HALF_EVEN) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = rounding
        return str(+value)


def _sig_float(value: float, digits: int = 12) -> str:
    return format(value, f".{digits}g")


def _emit(rows: list[dict[str, str]], columns: list[str], fmt: str, out) -> None:
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
    elif fmt == "json":
        json.dump([{c: row[c] for c in columns} for row in rows], out, indent=2)
        out.write("\n")
    else:
        widths = {c: max(len(c), *(len(r[c]) for r in rows)) if rows else len(c) for c in columns}
        out.write("  ".join(c.ljust(widths[c]) for c in columns).rstrip() + "\n")
        for row in rows:
            out.write("  ".join(row[c].ljust(widths[c]) for c in columns).rstrip() + "\n")


def _density_record(g: int, f: int, a: int, dv: DensityValue, method: str,
                    digits: int, value: str = "", error: str = "") -> dict[str, str]:
    """One emitted row; the coefficient string round-trips to the identical
    rational."""
    return {
        "g": str(g),
        "f": str(f),
        "a": str(a),
        "coefficient": str(dv.coefficient),
        "numeric": str(dv.numeric(digits)),
        "method": method,
        "value": value,
        "error": error,
    }


def cmd_density(args) -> int:
    make_base(args.g)
    compute = delta_closed_v2 if args.method == "closed_v2" else delta_closed
    rows = []
    # a modulus has at most 2 * tau(f) distinct coefficients: render each
    # once, keyed by the coefficient's integer pair, which hashes in C
    records = {}
    for prog in _classes(args):
        dv = compute(prog, args.g)
        key = dv.coefficient.numerator, dv.coefficient.denominator
        record = records.get(key)
        if record is None:
            record = records[key] = _density_record(
                args.g, args.f, prog.a, dv, args.method, args.digits)
        rows.append({**record, "a": str(prog.a)})
    _emit(rows, RECORD_COLUMNS, args.format, sys.stdout)
    return 0


def cmd_verify(args) -> int:
    from .scan import ScanConfig, scan
    from .series import series_truncated

    make_base(args.g)
    classes = _classes(args)
    if not 1 <= args.N <= X_CAP:
        raise ValueError(f"need 1 <= N <= {X_CAP}, got N={args.N}")
    if not args.tol >= 0:  # also rejects nan, which every comparison would pass
        raise ValueError(f"need a tolerance >= 0, got tol={args.tol}")
    counts = scan(args.g, args.f, args.x, ScanConfig(workers=args.threads))
    rows = []
    failures = []
    for prog in classes:
        a = prog.a
        dv = delta_closed(prog, args.g)
        est = series_truncated(prog, args.g, args.N)
        count = counts[a]

        rows.append(_density_record(args.g, args.f, a, dv, "closed", args.digits))

        series_err = abs(est.partial_sum - dv.numeric(30))
        if series_err > est.tail_bound:
            failures.append(f"a={a}: series off by {series_err} > tail bound {est.tail_bound}")
        rows.append(_density_record(
            args.g, args.f, a, dv, "series", args.digits,
            value=_sig_decimal(est.partial_sum, args.digits),
            # rounded up: the printed bound is never below the one checked
            error=_sig_decimal(est.tail_bound, args.digits, ROUND_CEILING),
        ))

        observed = count.hits / count.primes_total
        emp_err = abs(observed - float(dv))
        if emp_err > args.tol:
            failures.append(f"a={a}: empirical off by {emp_err:.5f} > tolerance {args.tol}")
        if dv.coefficient == 0 and count.hits != 0:
            failures.append(f"a={a}: exact zero density but {count.hits} hits observed")
        rows.append(_density_record(
            args.g, args.f, a, dv, "empirical", args.digits,
            value=_sig_float(observed, args.digits),
            error=_sig_float(emp_err, args.digits),
        ))
    _emit(rows, RECORD_COLUMNS, args.format, sys.stdout)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


def cmd_classify(args) -> int:
    make_base(args.g)
    if not 1 <= args.fmax <= _FMAX_CAP:
        raise ValueError(f"need 1 <= fmax <= {_FMAX_CAP}, got fmax={args.fmax}")
    rows = []
    for f in range(1, args.fmax + 1):
        verdict = wud_set(args.g, f)
        zeros = [
            a for a in residues(f)
            if zero_density(Progression(a, f), args.g).triggered
        ]
        rows.append({
            "f": str(f),
            "is_wud": str(verdict.is_wud).lower(),
            "family": verdict.family.value,
            "zero_residues": ";".join(str(a) for a in zeros),
        })
    _emit(rows, CLASSIFY_COLUMNS, args.format, sys.stdout)
    return 0


def cmd_scan(args) -> int:
    from .scan import ScanConfig, scan

    counts = scan(args.g, args.f, args.x, ScanConfig(workers=args.threads))
    rows = []
    for a, count in counts.items():
        predicted = float(delta_closed(Progression(a, args.f), args.g))
        observed = count.hits / count.primes_total
        rows.append({
            "a": str(a),
            "primes_in_class": str(count.primes_in_class),
            "hits": str(count.hits),
            "observed": _sig_float(observed),
            "predicted": _sig_float(predicted),
            "abs_error": _sig_float(abs(observed - predicted)),
        })
    _emit(rows, SCAN_COLUMNS, args.format, sys.stdout)
    return 0


def cmd_heuristic(args) -> int:
    from .scan import ScanConfig, scan

    classes = _classes(args)
    counts = scan(args.g, args.f, args.x, ScanConfig(workers=args.threads))
    rows = []
    for prog in classes:
        count = counts[prog.a]
        dv = delta_closed(prog, args.g)
        main_term = float(dv) * count.li_x
        rows.append(_density_record(
            args.g, args.f, prog.a, dv, "heuristic", args.digits,
            value=_sig_float(count.heuristic_sum, args.digits),
            error=_sig_float(abs(count.heuristic_sum - main_term), args.digits),
        ))
    _emit(rows, RECORD_COLUMNS, args.format, sys.stdout)
    return 0


def _add_common(sub, scanning: bool = False) -> None:
    sub.add_argument("-g", type=int, required=True, help="base whose primitive-root primes are counted")
    sub.add_argument("-f", type=int, default=1, help="modulus of the progression (default 1)")
    sub.add_argument("--format", choices=("table", "csv", "json"), default="table")
    sub.add_argument("--digits", type=_digits, default=12, metavar=f"1..{_MAX_DIGITS}",
                     help="significant digits in numeric output")
    if scanning:
        # scan starts at most as many workers as there are usable cores
        sub.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                         help="worker processes for the sieve scan")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootdensity",
        description="Exact densities of primes in arithmetic progressions "
                    "with a prescribed primitive root",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("density", help="exact class densities (closed form)")
    _add_common(p)
    p.add_argument("-a", type=int, default=None, help="single residue class (default: all)")
    p.add_argument("--method", choices=("closed", "closed_v2"), default="closed")
    p.set_defaults(func=cmd_density)

    p = subs.add_parser("verify", help="closed form vs series vs sieve counts")
    _add_common(p, scanning=True)
    p.add_argument("-a", type=int, default=None)
    p.add_argument("-N", type=int, default=10_000, help="series truncation point")
    p.add_argument("-x", type=int, default=10**6, help="sieve bound")
    p.add_argument("--tol", type=float, default=0.01,
                   help="absolute tolerance for observed vs predicted density")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("classify", help="zero-density classes and WUD verdicts")
    _add_common(p)
    p.add_argument("--fmax", type=int, default=12, help="classify moduli up to this bound")
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("scan", help="sieve counts per residue class")
    _add_common(p, scanning=True)
    p.add_argument("-x", type=int, default=10**6, help="sieve bound")
    p.set_defaults(func=cmd_scan)

    p = subs.add_parser("heuristic", help="weighted character sum vs predicted main term")
    _add_common(p, scanning=True)
    p.add_argument("-a", type=int, default=None)
    p.add_argument("-x", type=int, default=10**6, help="sieve bound")
    p.set_defaults(func=cmd_heuristic)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ValueError(f"need --threads >= 1, got {args.threads}")
        return args.func(args)
    except (InvalidBaseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
