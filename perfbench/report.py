"""Print every benchmark metric by name and unit, for every workload.

Run from the repository root:

    python3 perfbench/report.py --seeds 10 --write perfbench/baseline.json

For each workload it makes one untraced run per seed 1..--seeds, then
one traced run with seed 1, each a separate `python3 perfbench/run.py`
call of run_seconds from BENCHMARK.json. It prints the median of each
end-to-end metric over the seeds with its spread (interquartile range
over median, as statistics.quantiles(values, n=4) gives the quartiles)
against the metric's bound, the workload's raw rates under their own
names, then every per-layer metric with the end-to-end metric and
workload it should move. --write saves all of it, with the environment,
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, SUMMARY_UNITS, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].removeprefix("env "))
    summary = next((json.loads(ln.removeprefix("summary ")) for ln in lines
                    if ln.startswith("summary ")), {})
    return json.loads(lines[-1]), env, summary


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=1, help="untraced runs per workload")
    ap.add_argument("--write", type=Path, help="save the results as JSON")
    args = ap.parse_args()
    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]

    out: dict = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in WORKLOADS:
        started = time.monotonic()
        runs, summaries = [], []
        for seed in range(1, args.seeds + 1):
            result, env, summary = bench(workload, seed, seconds, 0)
            runs.append(result)
            summaries.append(summary)
            print(f"{workload} seed {seed}: " + json.dumps(
                {k: v["value"] for k, v in result["metrics"].items()}), flush=True)
        traced, env, _ = bench(workload, 1, seconds, 1)
        out["env"] = env
        entry = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "end_to_end": {},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "wall_s": round(time.monotonic() - started, 1),
        }
        entry["failed_share"] = entry["failed"] / entry["attempted"]
        print(f"\n== {workload}: correct={entry['correct']} failed_share={entry['failed_share']:.3g} "
              f"({entry['failed']}/{entry['attempted']})")
        for m in END_TO_END:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            row = {"median": statistics.median(values), "values": values}
            if len(values) >= 2:
                row["spread"] = spread(values)
            entry["end_to_end"][m["name"]] = row
            shown = f"spread {row['spread']:.4f} (bound {m['bound']})" if "spread" in row else ""
            print(f"  {m['name']:30s} {row['median']:>14.6g} {m['unit']:6s} {shown}")
        entry["summary"] = {}
        for key in SUMMARY_UNITS:
            values = [s[key] for s in summaries if key in s]
            if values:
                entry["summary"][key] = statistics.median(values)
                print(f"  {key:30s} {entry['summary'][key]:>14.6g} {SUMMARY_UNITS[key]:6s} "
                      "raw, median over seeds")
        for m in PER_LAYER:
            print(f"  {m['name']:30s} {entry['per_layer'][m['name']]:>14.6g} {m['unit']:6s} "
                  f"moves {'; '.join(m['moves'])}")
        out["workloads"][workload] = entry
    out["moves"] = {m["name"]: m["moves"] for m in PER_LAYER}
    if args.write:
        args.write.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
