"""Workload inputs and block server for one pass of the rootdensity benchmark.

`run.py` starts this file once per pass, in a fresh interpreter, so the
package's caches start cold as they do for a command-line user:

    python3 perfbench/workloads.py --workload exact-grid --seed 1 --trace 0

The child imports `rootdensity` from `src/` of the current directory
(or, with `--package reference`, the frozen copy in
`perfbench/reference/`).  It generates its inputs from the seed and
prints `READY <number of blocks>`.  Then it reads block indices from
stdin, one per line.  It runs each block and answers `done <ns>` with
the block's time; then it checks the block's outputs against
`goldens.json` and answers `checked`.  On `end` it runs
the fixed CLI calls and prints one JSON line with the pass's counts and
failures.  With `--trace 1` it also records spans around the calls it
makes into the package.  It then times each layer's public functions on
inputs drawn from the same workload (the layer probes).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from contextlib import contextmanager, redirect_stdout
from functools import partial
from pathlib import Path

from metrics import WORKLOADS

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
PACKAGES = {"current": Path("src"), "reference": HERE / "reference"}

# exact-grid: a seeded window of small bases g and the same window of -g
# (negative bases cost more per triple, so every seed gets an equal mix),
# every f <= GRID_F_MAX and every coprime a, plus one structured large
# base from each pool.
GRID_F_MAX = 60
GRID_SPAN = 300  # windows are drawn inside [-GRID_SPAN, GRID_SPAN]
GRID_WIDTH = {"full": 25, "tiny": 2}
STRUCTURED = {
    # perfect powers with h > 1; 21**7 is the exceptional WUD base
    "power": [21**7, 6**11, 10**9, 7**5],
    "negative-power": [-(3**7), -(2**15), -(5**9), -(6**7)],
    "negative": [-223092870, -(10**9 + 7), -(2**31 - 1), -3234846615],
    # p*q with p, q > 10**6 (factor's trial bound) and p*q = 3 mod 4, so
    # every seed sends the same number of factor() calls down the rho path
    "semiprime": [1000003 * 1000117, 1000033 * 1000151, 1000037 * 1000151, 1000039 * 1000193],
}

# scan-sweep: one (g, f) pair from each stratum, scanned to SCAN_X with
# workers=1; scan-sweep-w2 scans the same pairs with workers=2, W2_ROUNDS
# times over: a pool scan takes half as long, and its time varies two to
# three times as much from block to block, so it needs more blocks.
SCAN_X = {"full": 5 * 10**6, "tiny": 10**5}
W2_ROUNDS = 3
SCAN_STRATA = {
    "small": [(2, 4), (3, 5), (5, 8), (7, 12)],
    # highly composite moduli with 192 classes each
    "negative-composite": [(-3, 840), (-5, 840), (-6, 720), (-7, 720)],
    # h = 3 for each
    "power": [(27, 7), (125, 9), (-8, 10), (343, 6)],
}

# certify: four pairs per pass, each modulus with phi(f) = 12, so every
# seed certifies the same number of classes.
CERTIFY_POOL = [(2, 13), (3, 28), (-3, 21), (5, 36), (6, 26), (-2, 42), (10, 21), (27, 28)]
CERTIFY_PAIRS = 4
CERTIFY_N = {"full": 10**6, "tiny": 10**4}
CERTIFY_X = {"full": 10**6, "tiny": 10**5}
CERTIFY_TOL = 0.01

HEURISTIC_RTOL = 1e-12

# Fixed command-line calls whose stdout must stay byte-identical.
CLI_CALLS = [
    ["density", "-g", "2", "-f", "12"],
    ["density", "-g", "-3", "-f", "28", "--format", "csv"],
    ["density", "-g", "6", "-f", "20", "--format", "json", "--digits", "20"],
    ["density", "-g", "1801088541", "-f", "36", "--method", "closed_v2", "--format", "csv"],
    ["classify", "-g", "1801088541", "--fmax", "36"],
    ["classify", "-g", "1801088541", "--fmax", "36", "--format", "csv"],
    ["classify", "-g", "1801088541", "--fmax", "36", "--format", "json"],
]

# Layer probes on workloads whose pass does not reach the layer.
PROBE_N = {"full": 10**4, "tiny": 10**3}
PROBE_X = {"full": 10**6, "tiny": 10**5}
TRIPLE_PROBE_SAMPLES = 5000


def admissible(g: int) -> bool:
    return g not in (-1, 0, 1) and not (g > 1 and math.isqrt(g) ** 2 == g)


def make_inputs(workload: str, seed: int, scale: str = "full") -> dict:
    """The inputs of one workload: the same seed gives the same inputs."""
    # both scan workloads draw the same pairs for a seed
    rng = random.Random(f"{workload.removesuffix('-w2')}:{seed}")
    if workload == "exact-grid":
        width = GRID_WIDTH[scale]
        lo = rng.randrange(2, GRID_SPAN - width + 2)
        window = [s * g for g in range(lo, lo + width) for s in (1, -1) if admissible(s * g)]
        structured = [rng.choice(pool) for pool in STRUCTURED.values()]
        return {"bases": window + structured, "structured": structured, "f_max": GRID_F_MAX}
    if workload in ("scan-sweep", "scan-sweep-w2"):
        pairs = [rng.choice(pool) for pool in SCAN_STRATA.values()]
        return {"pairs": pairs, "x": SCAN_X[scale]}
    if workload == "certify":
        pairs = rng.sample(CERTIFY_POOL, CERTIFY_PAIRS)
        return {"pairs": pairs, "N": CERTIFY_N[scale], "x": CERTIFY_X[scale]}
    raise ValueError(f"unknown workload {workload!r}")


def residues(f: int) -> list[int]:
    return [a for a in range(1, f + 1) if math.gcd(a, f) == 1]


def grid_line(f: int, a: int, coefficient, causes) -> str:
    """One exact-grid row as hashed into the golden digest of its base."""
    return f"{f},{a},{coefficient},{';'.join(sorted(c.value for c in causes))}\n"


def scan_key(g: int, f: int, x: int) -> str:
    return f"{g},{f},{x}"


def scan_record(counts: dict) -> dict:
    """Golden form of a scan result: exact counts, heuristic sums as floats."""
    first = next(iter(counts.values()))
    return {
        "primes_total": first.primes_total,
        "classes": {
            str(a): [c.primes_in_class, c.hits, c.heuristic_sum] for a, c in counts.items()
        },
    }


def scan_mismatch(got: dict, want: dict) -> str | None:
    """Why two scan records differ, or None when they agree (heuristic
    sums within a relative HEURISTIC_RTOL, everything else exactly)."""
    if got["primes_total"] != want["primes_total"]:
        return f"primes_total {got['primes_total']} != {want['primes_total']}"
    if got["classes"].keys() != want["classes"].keys():
        return "class sets differ"
    for a, (pic, hits, heur) in got["classes"].items():
        wpic, whits, wheur = want["classes"][a]
        if (pic, hits) != (wpic, whits):
            return f"class {a}: counts {(pic, hits)} != {(wpic, whits)}"
        if not math.isclose(heur, wheur, rel_tol=HEURISTIC_RTOL, abs_tol=0.0):
            return f"class {a}: heuristic_sum {heur!r} != {wheur!r}"
    return None


def cli_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    from rootdensity.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


# ---------------------------------------------------------------- tracing


class Spans:
    """Per-name call counts and busy time for calls made from this file.

    The benchmark calls each layer directly, so spans never nest and a
    span's self time is its duration."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.totals: dict[str, list[int]] = {}

    def call(self, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            slot = self.totals.setdefault(name, [0, 0])
            slot[0] += 1
            slot[1] += time.perf_counter_ns() - t0

    def mean_us(self, name: str) -> float:
        calls, ns = self.totals[name]
        return ns / calls / 1e3


class Pass:
    """What one pass did, and what went wrong."""

    def __init__(self):
        self.items = 0
        self.work_ns = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: dict[str, int] = {}
        self.summary: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.info: dict = {}  # timings the layer probes reuse

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(why)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return float(sorted_values[k])


CPUS = sorted(os.sched_getaffinity(0))


@contextmanager
def all_cpus(wide: bool):
    """Let this process and the pool workers it forks use every usable CPU
    while the block runs; otherwise it stays on the CPU it was pinned to."""
    if not wide:
        yield
        return
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def _timed(fn, *args):
    t0 = time.perf_counter_ns()
    out = fn(*args)
    return out, time.perf_counter_ns() - t0


# ---------------------------------------------------------------- blocks
#
# A workload is a list of (label, block).  A block runs timed work and
# returns a function that checks its outputs; the server times the block
# alone.  The label names the rate the block's items count towards.


def grid_blocks(inputs: dict, goldens: dict, spans: Spans, res: Pass) -> list:
    from rootdensity import Progression, delta_closed, delta_closed_v2, zero_density

    classes = [(f, a) for f in range(1, inputs["f_max"] + 1) for a in residues(f)]
    latencies = res.info["latencies"] = []

    def block(g: int):
        rows = []
        for f, a in classes:
            t0 = time.perf_counter_ns()
            try:
                prog = Progression(a, f)
                d1 = spans.call("density.delta_closed", delta_closed, prog, g)
                d2 = spans.call("density.delta_closed_v2", delta_closed_v2, prog, g)
                z = spans.call("classify.zero_density", zero_density, prog, g)
            except Exception as exc:  # an operation that raises counts as failed
                rows.append((f, a, exc))
                continue
            latencies.append(time.perf_counter_ns() - t0)
            rows.append((f, a, (d1.coefficient, d2.coefficient, z.cases)))

        def check() -> None:
            res.attempted += len(rows)
            digest = hashlib.sha256()
            bad = 0
            for f, a, out in rows:
                if isinstance(out, Exception):
                    bad += 1
                    res.fail(0, f"g={g} f={f} a={a}: {out!r}")
                    continue
                res.items += 1
                c1, c2, causes = out
                if c1 != c2:
                    bad += 1
                    res.fail(0, f"g={g} f={f} a={a}: closed {c1} != closed_v2 {c2}")
                digest.update(grid_line(f, a, c1, causes).encode())
            if digest.hexdigest() != goldens["grid"].get(str(g)):
                res.fail(len(rows), f"g={g}: exact coefficients differ from the golden digest")
            else:
                res.failed += bad

        return check

    return [("triples_per_s", lambda g=g: block(g)) for g in inputs["bases"]]


def _check_scan(res: Pass, goldens: dict, g: int, f: int, x: int, counts, label: str) -> dict | None:
    record = scan_record(counts)
    want = goldens["scan"].get(scan_key(g, f, x))
    why = "no golden recorded" if want is None else scan_mismatch(record, want)
    if why:
        res.fail(1, f"scan g={g} f={f} x={x} {label}: {why}")
        return None
    return record


def sweep_blocks(inputs: dict, goldens: dict, spans: Spans, res: Pass, workers: int) -> list:
    from rootdensity import ScanConfig, scan

    x = inputs["x"]
    rounds = W2_ROUNDS if workers > 1 else 1
    walls = res.info["walls"] = {workers: 0}  # time of one round
    res.counts["scan.primes_total"] = res.counts["scan.hits"] = 0

    def block(g: int, f: int, first: bool):
        try:
            with all_cpus(workers > 1):
                counts, ns = _timed(scan, g, f, x, ScanConfig(workers=workers))
        except Exception as exc:
            counts, ns = exc, 0
        walls[workers] += ns / rounds

        def check() -> None:
            res.attempted += 1
            if isinstance(counts, Exception):
                res.fail(1, f"scan g={g} f={f} workers={workers}: {counts!r}")
                return
            res.items += next(iter(counts.values())).primes_total
            # both worker counts are checked against the same workers=1
            # goldens, so they must agree, as scan.py promises
            record = _check_scan(res, goldens, g, f, x, counts, f"workers={workers}")
            if record is None or not first:
                return
            res.counts["scan.primes_total"] += record["primes_total"]
            res.counts["scan.hits"] += sum(c[1] for c in record["classes"].values())

        return check

    label = "primes_per_s" if workers == 1 else "primes_per_s_w2"
    return [(label, lambda g=g, f=f, r=r: block(g, f, r == 0))
            for r in range(rounds) for g, f in inputs["pairs"]]


def certify_blocks(inputs: dict, goldens: dict, spans: Spans, res: Pass) -> list:
    from rootdensity import (
        Progression,
        ScanConfig,
        delta_closed,
        delta_closed_v2,
        scan,
        series_truncated,
    )
    from rootdensity.sieves import mobius_table, phi_table

    N, x = inputs["N"], inputs["x"]
    info = res.info
    info.update(first_ns=[], warm_ns=0, warm_calls=0, scan_ns=0, tables={})
    res.counts["scan.primes_total"] = res.counts["scan.hits"] = 0

    def tables():
        # traced passes build the series tables first, so that the first
        # series call per pair times the bucket pass alone
        _, info["tables"]["mobius"] = _timed(mobius_table, N)
        _, info["tables"]["phi"] = _timed(phi_table, N)

    def block(g: int, f: int):
        classes = residues(f)
        rows = []
        try:
            for a in classes:
                prog = Progression(a, f)
                d1 = delta_closed(prog, g)
                d2 = delta_closed_v2(prog, g)
                est, ns = _timed(series_truncated, prog, g, N)
                if rows:
                    info["warm_ns"] += ns
                    info["warm_calls"] += 1
                else:
                    info["first_ns"].append(ns)
                rows.append((a, d1, d2, est))
            counts, ns = _timed(scan, g, f, x, ScanConfig(workers=1))
            info["scan_ns"] += ns
        except Exception as exc:
            counts = exc

        def check() -> None:
            res.attempted += len(classes)
            if isinstance(counts, Exception):
                res.fail(len(classes), f"certify g={g} f={f}: {counts!r}")
                return
            if _check_scan(res, goldens, g, f, x, counts, "workers=1") is None:
                res.failed += len(classes) - 1
                return
            digest = hashlib.sha256()
            for a, d1, *_ in rows:
                digest.update(f"{a},{d1.coefficient}\n".encode())
            if digest.hexdigest() != goldens["coefficients"].get(f"{g},{f}"):
                res.fail(len(classes), f"certify g={g} f={f}: coefficients differ from the golden digest")
                return
            first = next(iter(counts.values()))
            res.counts["scan.primes_total"] += first.primes_total
            res.counts["scan.hits"] += sum(c.hits for c in counts.values())
            for a, d1, d2, est in rows:
                count = counts[a]
                observed = count.hits / count.primes_total
                series_gap = abs(est.partial_sum - d1.numeric(30))
                if d1.coefficient != d2.coefficient:
                    why = f"closed {d1.coefficient} != closed_v2 {d2.coefficient}"
                elif series_gap > est.tail_bound:
                    why = f"series gap {series_gap} > tail bound {est.tail_bound}"
                elif abs(observed - float(d1)) > CERTIFY_TOL:
                    why = f"empirical gap {abs(observed - float(d1)):.5f} > {CERTIFY_TOL}"
                elif d1.coefficient == 0 and count.hits:
                    why = f"zero density but {count.hits} hits"
                else:
                    res.items += 1
                    continue
                res.fail(1, f"certify g={g} f={f} a={a}: {why}")

        return check

    blocks = [("certified_per_s", lambda g=g, f=f: block(g, f)) for g, f in inputs["pairs"]]
    return ([("-", tables)] if spans.enabled else []) + blocks


BLOCKS = {
    "exact-grid": grid_blocks,
    "scan-sweep": partial(sweep_blocks, workers=1),
    "scan-sweep-w2": partial(sweep_blocks, workers=2),
    "certify": certify_blocks,
}


def cli_checks(goldens: dict, res: Pass) -> list[int]:
    """Run the fixed CLI calls in process; return their wall times (ns)."""
    walls = []
    for argv, want in zip(CLI_CALLS, goldens["cli"]):
        res.attempted += 1
        try:
            (code, out), ns = _timed(run_cli, argv)
        except Exception as exc:
            res.fail(1, f"cli {' '.join(argv)}: {exc!r}")
            continue
        walls.append(ns)
        if want["argv"] != argv or code != 0 or cli_digest(out) != want["sha256"]:
            res.fail(1, f"cli {' '.join(argv)}: stdout differs from the golden bytes")
    return walls


# ---------------------------------------------------------------- probes


def _per_call_us(fn, args_list, repeat: int = 1) -> float:
    t0 = time.perf_counter_ns()
    for _ in range(repeat):
        for args in args_list:
            fn(*args)
    return (time.perf_counter_ns() - t0) / (len(args_list) * repeat) / 1e3


def _triple_metrics(latencies: list[int], res: Pass) -> None:
    lat = sorted(latencies)
    res.layers["density.triple_p50_us"] = percentile(lat, 0.50) / 1e3
    res.layers["density.triple_p99_us"] = percentile(lat, 0.99) / 1e3
    res.summary["triple_samples"] = len(lat)


def _triple_probe(pairs, res: Pass) -> None:
    """Both closed forms and zero_density on every class of the pairs,
    repeated to TRIPLE_PROBE_SAMPLES triples."""
    from rootdensity import Progression, delta_closed, delta_closed_v2, zero_density

    triples = [(Progression(a, f), g) for g, f in pairs for a in residues(f)]
    repeat = math.ceil(TRIPLE_PROBE_SAMPLES / len(triples))
    lat, busy = [], [0, 0, 0]
    for _ in range(repeat):
        for prog, g in triples:
            t0 = time.perf_counter_ns()
            delta_closed(prog, g)
            t1 = time.perf_counter_ns()
            delta_closed_v2(prog, g)
            t2 = time.perf_counter_ns()
            zero_density(prog, g)
            t3 = time.perf_counter_ns()
            busy[0] += t1 - t0
            busy[1] += t2 - t1
            busy[2] += t3 - t2
            lat.append(t3 - t0)
    n = len(lat)
    res.layers["density.closed_us"] = busy[0] / n / 1e3
    res.layers["density.closed_v2_us"] = busy[1] / n / 1e3
    res.layers["classify.zero_density_us"] = busy[2] / n / 1e3
    _triple_metrics(lat, res)


def _series_probe(g: int, f: int, N: int) -> dict:
    """The certify pass's series timings for one pair at N, tables first."""
    from rootdensity import Progression, series_truncated
    from rootdensity.sieves import mobius_table, phi_table

    info = {"tables": {}}
    _, info["tables"]["mobius"] = _timed(mobius_table, N)
    _, info["tables"]["phi"] = _timed(phi_table, N)
    classes = residues(f)
    _, first_ns = _timed(series_truncated, Progression(classes[0], f), g, N)
    rest = [(Progression(a, f), g, N) for a in classes[1:] or classes]
    info["first_ns"] = [first_ns]
    info["warm_calls"] = len(rest)
    info["warm_ns"] = _per_call_us(series_truncated, rest) * 1e3 * len(rest)
    return info


def _sieve_probe(x: int) -> tuple[float, float]:
    """Seconds for prime_sieve(isqrt(x)) and for segment_primes over every
    default-size segment of [2, x], each the median of three."""
    from rootdensity import ScanConfig
    from rootdensity.sieves import prime_sieve, segment_primes

    seg = ScanConfig().segment_size
    base, sweep = [], []
    for _ in range(3):
        bp, ns = _timed(prime_sieve, math.isqrt(x))
        base.append(ns)
        bp = bp.tolist()
        t0 = time.perf_counter_ns()
        for lo in range(2, x + 1, seg):
            segment_primes(lo, min(lo + seg, x + 1), bp)
        sweep.append(time.perf_counter_ns() - t0)
    return statistics.median(base) / 1e9, statistics.median(sweep) / 1e9


def _scan_walls(pairs, x: int, workers_list, res: Pass | None) -> dict:
    """Wall time (ns) of scanning every pair to x, per worker count; with
    res, the workers=1 counts go into res.counts."""
    from rootdensity import ScanConfig, scan

    walls = {}
    for workers in workers_list:
        walls[workers] = 0
        for g, f in pairs:
            with all_cpus(workers > 1):
                counts, ns = _timed(scan, g, f, x, ScanConfig(workers=workers))
            walls[workers] += ns
            if res is not None and workers == 1:
                c = res.counts
                c["scan.primes_total"] = c.get("scan.primes_total", 0) + next(
                    iter(counts.values())).primes_total
                c["scan.hits"] = c.get("scan.hits", 0) + sum(v.hits for v in counts.values())
    return walls


def layer_probes(workload: str, inputs: dict, scale: str, res: Pass, spans: Spans,
                 cli_walls: list[int]) -> None:
    """Fill res.layers with every per-layer metric for this workload.

    A layer the pass calls is timed in the pass; any other layer is timed
    by a probe on this workload's own bases and pairs, so every workload
    reports every metric."""
    from rootdensity import kronecker, li, make_base, wud_set
    from rootdensity.arith import factor
    from rootdensity.sieves import mobius_table, prime_sieve

    info = res.info
    if workload == "exact-grid":
        bases = inputs["bases"]
        cold_bases = inputs["structured"]
        pairs = [(cold_bases[0], 12)]
        x = PROBE_X[scale]
        res.layers["density.closed_us"] = spans.mean_us("density.delta_closed")
        res.layers["density.closed_v2_us"] = spans.mean_us("density.delta_closed_v2")
        res.layers["classify.zero_density_us"] = spans.mean_us("classify.zero_density")
        _triple_metrics(info["latencies"], res)
    else:
        pairs = inputs["pairs"]
        bases = cold_bases = list(dict.fromkeys(g for g, _ in pairs))
        x = inputs["x"]
        _triple_probe(pairs, res)
    res.layers["classify.wud_set_us"] = _per_call_us(
        wud_set, [(g, f) for g in bases for f in range(1, GRID_F_MAX + 1)])

    if workload == "certify":
        N, series = inputs["N"], info
    else:
        N = PROBE_N[scale]
        series = _series_probe(*pairs[0], N)
    res.layers["sieves.mobius_table_s"] = series["tables"]["mobius"] / 1e9
    res.layers["sieves.phi_table_s"] = series["tables"]["phi"] / 1e9
    res.layers["series.bucket_build_s"] = statistics.median(series["first_ns"]) / 1e9
    res.layers["series.terms_per_s"] = N / res.layers["series.bucket_build_s"]
    res.layers["series.assemble_us"] = series["warm_ns"] / series["warm_calls"] / 1e3
    res.counts["series.terms"] = int((mobius_table(N)[1:] != 0).sum())

    sieve_s, sweep_s = _sieve_probe(x)
    res.layers["sieves.prime_sieve_ms"] = sieve_s * 1e3
    res.layers["sieves.segment_primes_s"] = sweep_s
    li_s = _per_call_us(li, [(x,)], 20) / 1e6
    res.layers["scan.li_us"] = li_s * 1e6
    if workload in ("scan-sweep", "scan-sweep-w2"):
        # the pass timed one worker count; the probe times the other
        other = (2,) if 1 in info["walls"] else (1,)
        walls = {**info["walls"], **_scan_walls(pairs, x, other, None)}
    elif workload == "certify":
        walls = {1: info["scan_ns"], **_scan_walls(pairs, x, (2,), None)}
    else:
        walls = _scan_walls(pairs, x, (1, 2), res)
    primes = res.counts["scan.primes_total"]
    res.layers["scan.per_prime_us"] = walls[1] / 1e3 / primes
    non_sieve_ns = walls[1] - len(pairs) * (sieve_s + sweep_s + li_s) * 1e9
    res.layers["scan.non_sieve_per_prime_us"] = non_sieve_ns / 1e3 / primes
    res.layers["scan.pool_speedup"] = walls[1] / walls[2]

    res.layers["cli.main_ms"] = statistics.fmean(cli_walls) / 1e6

    # cache-cold costs last: they empty caches the measurements above used
    kron_pairs = [(g, int(p)) for g in bases[:8] for p in prime_sieve(x)[-2000:]]
    res.layers["arith.kronecker_us"] = _per_call_us(kronecker, kron_pairs)
    factor.cache_clear()
    res.layers["arith.factor.cold_us"] = _per_call_us(factor, [(abs(g),) for g in cold_bases])
    make_base.cache_clear()
    res.layers["density.make_base_us"] = _per_call_us(make_base, [(g,) for g in bases])


# ---------------------------------------------------------------- child


def load_goldens(plant: bool, workload: str, inputs: dict) -> dict:
    goldens = json.loads(GOLDENS.read_text())
    if plant:
        # corrupt one golden entry this pass checks, to prove checks bite
        if workload == "exact-grid":
            goldens["grid"][str(inputs["bases"][0])] = "planted"
        else:
            g, f = inputs["pairs"][0]
            rec = goldens["scan"][scan_key(g, f, inputs["x"])]
            rec["classes"][next(iter(rec["classes"]))][1] += 1
    return goldens


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child
    (a scan pool worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def child_main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="One pass of a rootdensity benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--package", choices=tuple(PACKAGES), default="current")
    ap.add_argument("--plant-mismatch", action="store_true")
    args = ap.parse_args(argv)

    # the current and the reference child take turns on one CPU, so both
    # see the same neighbours; the load on a machine's cores varies
    # independently from core to core
    os.sched_setaffinity(0, CPUS[:1])
    src = PACKAGES[args.package].resolve()
    sys.path.insert(0, str(src))
    import rootdensity

    if not Path(rootdensity.__file__).resolve().is_relative_to(src):
        print(f"rootdensity imported from {rootdensity.__file__}, not from {src}", file=sys.stderr)
        return 2
    inputs = make_inputs(args.workload, args.seed, args.scale)
    goldens = load_goldens(args.plant_mismatch, args.workload, inputs)
    spans = Spans(bool(args.trace))
    res = Pass()
    blocks = BLOCKS[args.workload](inputs, goldens, spans, res)
    print(f"READY {len(blocks)}", flush=True)

    for line in sys.stdin:
        if line.strip() == "end":
            break
        label, block = blocks[int(line)]
        check, ns = _timed(block)
        res.work_ns += ns
        print(f"done {ns}", flush=True)
        items = res.items
        if check is not None:
            check()
        print(f"checked {res.items - items} {label}", flush=True)

    from rootdensity.arith import factor

    rss = peak_rss_mb()
    cache = factor.cache_info()
    res.counts["arith.factor.hits"] = cache.hits
    res.counts["arith.factor.misses"] = cache.misses
    cli_walls = cli_checks(goldens, res)
    if args.trace:
        layer_probes(args.workload, inputs, args.scale, res, spans, cli_walls)
    print(json.dumps({
        "items": res.items,
        "work_s": res.work_ns / 1e9,
        "attempted": res.attempted,
        "failed": res.failed,
        "failures": res.failures,
        "rss_mb": rss,
        "counts": res.counts,
        "summary": res.summary,
        "layers": res.layers,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(child_main())
