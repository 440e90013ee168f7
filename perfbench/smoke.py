"""Tiny-size smoke run of every benchmark workload.

Run from the repository root (about a minute):

    python3 perfbench/smoke.py

Checks that BENCHMARK.json lists the metrics of metrics.py; that each
workload, at tiny scale, reports every metric with no failure; that two
traced runs with the same seed give identical exact counts, and that
the two scan workloads (workers=1 and workers=2) count the same; that a
planted golden mismatch shows up in the failed count; and that run.py
exits non-zero, printing no result, where there is no package source.
Exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from metrics import COUNTS, END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
BARE = Path(".bench_smoke")  # holds only BENCHMARK.json and perfbench/


def run(*extra: str, cwd: Path = Path(".")) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(*extra: str) -> dict:
    proc = run(*extra)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(extra)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        raise SystemExit(1)


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    strip = lambda ms: [{k: m[k] for k in ("name", "unit", "better", "bound") if k in m} for m in ms]
    expect(spec["end_to_end"] == strip(END_TO_END), "BENCHMARK.json end_to_end matches metrics.py")
    expect(spec["per_layer"] == strip(PER_LAYER), "BENCHMARK.json per_layer matches metrics.py")

    scan_counts = {}
    for w in WORKLOADS:
        base = ("--workload", w, "--seed", "7", "--scale", "tiny")
        plain = result(*base, "--trace", "0")
        expect(plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1,
               f"{w}: no failure at tiny scale ({plain['attempted']} attempted)")
        expect(set(plain["metrics"]) == {m["name"] for m in END_TO_END},
               f"{w}: untraced run reports every end-to-end metric")
        traced = [result(*base, "--trace", "1") for _ in range(2)]
        expect(all(t["failed"] == 0 for t in traced), f"{w}: no failure in traced runs")
        expect(set(traced[0]["metrics"]) == {m["name"] for m in PER_LAYER},
               f"{w}: traced run reports every per-layer metric")
        counts = [{k: t["metrics"][k]["value"] for k in COUNTS} for t in traced]
        expect(counts[0] == counts[1], f"{w}: exact counts repeat with the same seed {counts[0]}")
        if w.startswith("scan-sweep"):
            scan_counts[w] = {k: counts[0][k] for k in ("scan.primes_total", "scan.hits")}
        planted = result(*base, "--trace", "0", "--plant-mismatch")
        expect(planted["failed"] > 0 and not planted["correct"],
               f"{w}: planted golden mismatch counted, failed_share "
               f"{planted['failed'] / planted['attempted']:.3g}")

    expect(scan_counts["scan-sweep"] == scan_counts["scan-sweep-w2"],
           f"scan counts agree between workers=1 and workers=2 {scan_counts['scan-sweep']}")

    shutil.rmtree(BARE, ignore_errors=True)
    try:
        shutil.copytree(HERE, BARE / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", BARE)
        proc = run("--workload", "certify", "--seed", "1", "--trace", "0", cwd=BARE)
        expect(proc.returncode != 0 and "correct" not in proc.stdout,
               f"exits {proc.returncode} with no result where there is no package source")
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
