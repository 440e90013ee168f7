"""The benchmark's metric catalogue.

BENCHMARK.json repeats the names, units and directions listed here (and
`smoke.py` checks that the two agree).  `moves` records, for each
per-layer metric, which end-to-end metric it should move and on which
workload; the names in brackets are the workload's own raw rates, which
untraced runs print.
"""

from __future__ import annotations

WORKLOADS = ("exact-grid", "scan-sweep", "scan-sweep-w2", "certify")

# Each workload reports every end-to-end metric.  speed_vs_ref is the
# time the frozen reference package (perfbench/reference, the package at
# commit ddc625f) takes for the workload's blocks over the time the
# current package takes, the two interleaved block by block: 2.0 means
# twice the seed's throughput.  Raw throughput drifts with the load on
# the machine; the ratio does not.
#
# setup_s is on the same footing: the current package's start-up time
# over the reference's, the two started in turns, times REF_SETUP_S, the
# reference's own start-up time for the workload: the median of
# ref_setup_raw_s over the ten seeds of perfbench/baseline.json (a 2-vCPU
# KVM guest, Intel Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).  So
# setup_s reads in seconds, and halving the import time halves it.
REF_SETUP_S = {"exact-grid": 0.646, "scan-sweep": 0.629, "scan-sweep-w2": 0.621, "certify": 0.605}
# Bounds, from the spread (interquartile range over median) of each
# metric in two ten-seed sets per workload: speed_vs_ref spread up to
# 0.025, bound 0.08; peak_rss_mb up to 0.0036, bound 0.02; setup_s up to
# 0.023, and it takes the largest bound.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.02},
    {"name": "speed_vs_ref", "unit": "x", "better": "higher", "bound": 0.08},
]

# Printed by untraced runs under each workload's own names (not gated).
SUMMARY_UNITS = {
    "failed_share": "share",
    "setup_raw_s": "s",
    "ref_setup_raw_s": "s",
    "triples_per_s": "1/s",
    "primes_per_s": "1/s",
    "primes_per_s_w2": "1/s",
    "certified_per_s": "1/s",
}

GRID = "speed_vs_ref on exact-grid [triples_per_s]"
SWEEP = "speed_vs_ref on scan-sweep [primes_per_s]"
SWEEP_W2 = "speed_vs_ref on scan-sweep-w2 [primes_per_s_w2]"
CERTIFY = "speed_vs_ref on certify [certified_per_s]"
SETUP = "setup_s on every workload"


def _m(name: str, unit: str, better: str, *moves: str) -> dict:
    return {"name": name, "unit": unit, "better": better, "moves": list(moves)}


PER_LAYER = [
    _m("import.scipy_s", "s", "lower", SETUP),
    _m("import.numpy_s", "s", "lower", SETUP),
    _m("import.rootdensity_self_s", "s", "lower", SETUP),
    _m("arith.factor.hits", "count", "higher", GRID),
    _m("arith.factor.misses", "count", "lower", GRID),
    _m("arith.factor.cold_us", "us", "lower", GRID),
    _m("arith.kronecker_us", "us", "lower", SWEEP, GRID),
    _m("density.make_base_us", "us", "lower", GRID),
    _m("density.closed_us", "us", "lower", GRID),
    _m("density.closed_v2_us", "us", "lower", GRID),
    _m("density.triple_p50_us", "us", "lower", GRID),
    _m("density.triple_p99_us", "us", "lower", GRID),
    _m("classify.zero_density_us", "us", "lower", GRID),
    _m("classify.wud_set_us", "us", "lower", GRID),
    _m("series.bucket_build_s", "s", "lower", CERTIFY),
    _m("series.terms_per_s", "1/s", "higher", CERTIFY),
    _m("series.assemble_us", "us", "lower", CERTIFY),
    _m("series.terms", "count", "higher", CERTIFY),
    _m("sieves.mobius_table_s", "s", "lower", CERTIFY),
    _m("sieves.phi_table_s", "s", "lower", CERTIFY),
    _m("sieves.prime_sieve_ms", "ms", "lower", SWEEP),
    _m("sieves.segment_primes_s", "s", "lower", SWEEP),
    _m("scan.per_prime_us", "us", "lower", SWEEP),
    _m("scan.non_sieve_per_prime_us", "us", "lower", SWEEP, CERTIFY),
    _m("scan.li_us", "us", "lower", SETUP),
    _m("scan.pool_speedup", "ratio", "higher", SWEEP_W2),
    _m("scan.primes_total", "count", "higher", SWEEP),
    _m("scan.hits", "count", "higher", SWEEP),
    _m("cli.main_ms", "ms", "lower", "none: the CLI is covered by byte-for-byte goldens"),
    _m("trace.overhead_share", "share", "lower", "none: traced against untraced pass time"),
]

# Exact counts: identical between passes and runs with the same seed.
COUNTS = [m["name"] for m in PER_LAYER if m["unit"] == "count"]
