"""Benchmark of the rootdensity package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-grid --seed 1 --seconds 30 --trace 0

Each pass of a workload runs in a fresh interpreter (`workloads.py`), so
caches start cold as they do for a command-line user.  Passes repeat
while another one is expected to finish within --seconds; there is
always at least one.  Every pass checks its outputs against goldens
recorded at the reference commit; a mismatch counts as a failed
operation.

--trace 0 reports the end-to-end metrics, each the median over passes:
setup time, peak RSS, and speed_vs_ref, the workload's speed relative to
the frozen reference package in perfbench/reference, which runs the same
blocks in turns with the current package (take_turns).  Start-up is
timed the same way, against the reference's, and setup_s is that ratio
times the reference's start-up time REF_SETUP_S for the workload.  --trace 1
alternates untraced and traced passes of the current package alone and
reports the per-layer metrics: medians over the traced passes, import
times from `python -X importtime`, and the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.  The program exits 2 without a result when the checkout has no
package source to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import COUNTS, END_TO_END, PER_LAYER, REF_SETUP_S, SUMMARY_UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "workloads.py"
RUN_LIMIT_S = 170  # every run must end within 180 s
SLICE_S = 0.02  # turn length when the current and reference packages alternate
# Pool blocks take longer turns: stopping a scan's workers every 20 ms
# stalls the job hand-offs between them and the parent; in runs of 18
# blocks that raised the block-to-block spread of speed_vs_ref from
# 2.7 % (100 ms turns) to 7 %.
POOL_SLICE_S = 0.1
IMPORT_SAMPLES = 3
SETUP_SAMPLES = 2  # extra start-up pairs per untraced run, on top of one per pass


class RunError(Exception):
    """The run cannot produce a result (as opposed to a failed check)."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One pass in a fresh interpreter (workloads.py), driven block by
    block.  It runs in a process group of its own, so that it can be
    paused together with the pool workers it forks, and it starts paused:
    start() lets it run to READY."""

    def __init__(self, root: Path, args, trace: int, package: str, deadline: float):
        self.cmd = [sys.executable, str(CHILD), "--workload", args.workload,
                    "--seed", str(args.seed), "--trace", str(trace), "--scale", args.scale,
                    "--package", package]
        if args.plant_mismatch:
            self.cmd.append("--plant-mismatch")
        self.package = package
        self.deadline = deadline
        self.buf = b""
        self.blocks = 0
        self.work_ns = 0
        self.rates: dict[str, list[int]] = {}  # label -> [items, ns]
        t0 = time.perf_counter_ns()
        self.proc = subprocess.Popen(self.cmd, cwd=root, env=child_env(root),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     start_new_session=True)
        self.signal(signal.SIGSTOP)
        self.setup_ns = time.perf_counter_ns() - t0

    def name(self) -> str:
        return " ".join(self.cmd[2:])

    def readline(self, timeout: float | None = None) -> str | None:
        """The next line of output, or None if none came within timeout."""
        end = self.deadline if timeout is None else min(self.deadline, time.monotonic() + timeout)
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            wait = end - time.monotonic()
            if wait <= 0 or not select.select([fd], [], [], wait)[0]:
                if time.monotonic() >= self.deadline:
                    raise RunError(f"{self.name()} ran past the run's time limit")
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise RunError(f"{self.name()} exited early")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def send(self, line: str) -> None:
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()

    def signal(self, sig: int) -> None:
        os.killpg(self.proc.pid, sig)

    def checked(self, ns: int) -> None:
        """Read the block's `checked <items> <label>` line."""
        _, items, label = self.readline().split()
        slot = self.rates.setdefault(label, [0, 0])
        slot[0] += int(items)
        slot[1] += ns

    def finish(self) -> dict:
        self.send("end")
        while (line := self.readline()) is not None and not line.startswith("{"):
            pass
        self.proc.wait()
        if self.proc.returncode != 0 or line is None:
            raise RunError(f"{self.name()} exited with {self.proc.returncode}")
        out = json.loads(line)
        out["setup_s"] = self.setup_ns / 1e9
        return out

    def close(self) -> None:
        if self.proc.poll() is None:
            self.signal(signal.SIGKILL)
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def take_turns(children: list[Child], first: int = 0,
               slice_s: float = SLICE_S) -> dict[Child, tuple[str, int]]:
    """Let the paused children run in turns of slice_s, one process group
    at a time, until each has written a line; return each child's line
    and the time it was allowed to run.  Children that take turns see the
    same machine speed, however fast that changes.  A lone child runs
    without turns.  All are paused again on return."""
    order = children[first:] + children[:first]
    turn = slice_s if len(children) > 1 else None
    ran = dict.fromkeys(children, 0)
    got: dict[Child, tuple[str, int]] = {}
    while len(got) < len(children):
        for child in order:
            if child in got:
                continue
            child.signal(signal.SIGCONT)
            t0 = time.perf_counter_ns()
            line = child.readline(turn)
            ran[child] += time.perf_counter_ns() - t0
            child.signal(signal.SIGSTOP)
            if line is not None:
                got[child] = (line, ran[child])
    return got


def start(children: list[Child]) -> None:
    """Run freshly launched children to READY; setup_ns is each one's
    time from launch until it had imported the package and made its
    inputs."""
    for child, (line, ns) in take_turns(children).items():
        ready = line.split()
        if len(ready) != 2 or ready[0] != "READY":
            raise RunError(f"{child.name()} did not start")
        child.setup_ns += ns
        child.blocks = int(ready[1])


def run_block(children: list[Child], i: int, slice_s: float) -> None:
    """Run block i in every child, in turns (take_turns), the child that
    goes first alternating from block to block; then let them check it."""
    for child in children:
        child.send(str(i))
    done = take_turns(children, i % len(children), slice_s)
    for child in children:
        child.signal(signal.SIGCONT)
    for child, (_, ns) in done.items():
        child.work_ns += ns
        child.checked(ns)


def run_pass(root: Path, args, trace: int, deadline: float, reference: bool) -> dict:
    """One pass of the workload.  With reference, a second child runs the
    frozen reference package, taking turns with the current one from
    start-up on; speed_vs_ref is the reference's block time over the
    current package's and setup_ratio the current package's start-up
    time over the reference's."""
    children: list[Child] = []
    try:
        children.append(Child(root, args, trace, "current", deadline))
        if reference:
            children.append(Child(root, args, 0, "reference", deadline))
        start(children)
        slice_s = POOL_SLICE_S if args.workload == "scan-sweep-w2" else SLICE_S
        for i in range(children[0].blocks):
            for child in children:
                child.signal(signal.SIGSTOP)
            run_block(children, i, slice_s)
        cur = children[0]
        out = cur.finish()
        out["work_s"] = cur.work_ns / 1e9
        # raw rates under the workload's own names, from the time the
        # block ran (with reference, its turns only)
        out["summary"].update({label: items / (ns / 1e9) for label, (items, ns) in cur.rates.items()
                               if label != "-" and ns})
        if reference:
            ref = children[1]
            ref_out = ref.finish()
            if ref_out["failed"] and not args.plant_mismatch:
                raise RunError("the reference package failed its own checks: "
                               + "; ".join(ref_out["failures"][:3]))
            out["speed_vs_ref"] = ref.work_ns / cur.work_ns
            out["setup_ratio"] = cur.setup_ns / ref.setup_ns
            out["ref_setup_s"] = ref.setup_ns / 1e9
    finally:
        for child in children:
            child.close()
    out["trace"] = trace
    return out


def setup_ratio(root: Path, args, deadline: float, current_first: bool) -> float:
    """Start the current and the reference package in turns, up to READY
    only; the current package's start-up time over the reference's."""
    packages = ("current", "reference") if current_first else ("reference", "current")
    children: list[Child] = []
    try:
        for package in packages:
            children.append(Child(root, args, 0, package, deadline))
        start(children)
        times = {child.package: child.setup_ns for child in children}
    finally:
        for child in children:
            child.close()
    return times["current"] / times["reference"]


def import_times(root: Path) -> dict:
    """Self time of each top-level package imported by `import rootdensity`,
    from `python -X importtime`, median of IMPORT_SAMPLES runs."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rootdensity"],
                              cwd=root, env=child_env(root), capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise RunError(f"import rootdensity failed: {proc.stderr.strip()[-500:]}")
        self_us: dict[str, int] = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            head, _, name = line.split("|")
            try:
                us = int(head.split(":")[1])
            except ValueError:  # the column header
                continue
            top = name.strip().split(".")[0]
            self_us[top] = self_us.get(top, 0) + us
        samples.append(self_us)
    return {
        f"import.{key}": statistics.median(s.get(top, 0) for s in samples) / 1e6
        for key, top in (("scipy_s", "scipy"), ("numpy_s", "numpy"),
                         ("rootdensity_self_s", "rootdensity"))
    }


def environment(root: Path) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def check_counts(passes: list[dict]) -> list[str]:
    """Exact counts must repeat identically in every pass of the run."""
    problems = []
    for name in COUNTS:
        seen = {p["counts"][name] for p in passes if name in p["counts"]}
        if len(seen) > 1:
            problems.append(f"count {name} differs between passes: {sorted(seen)}")
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="rootdensity benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the smoke run")
    ap.add_argument("--plant-mismatch", action="store_true",
                    help="corrupt one golden entry, to show that checks bite")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rootdensity" / "__init__.py").is_file():
        print(f"error: no package source at {root / 'src' / 'rootdensity'}; "
              "run from the root of a rootdensity checkout", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    try:
        env = environment(root)
        print("env " + json.dumps(env))
        setups = [setup_ratio(root, args, deadline, k % 2 == 0)
                  for k in range(0 if args.trace else SETUP_SAMPLES)]
        passes: list[dict] = []
        loop_start = time.monotonic()
        while True:
            for trace in ((0, 1) if args.trace else (0,)):
                p = run_pass(root, args, trace, deadline, reference=not args.trace)
                passes.append(p)
                print(f"pass trace={trace} setup_s={p['setup_s']:.4f} work_s={p['work_s']:.4f} "
                      f"speed_vs_ref={p.get('speed_vs_ref', float('nan')):.4f} "
                      f"items={p['items']} attempted={p['attempted']} failed={p['failed']} "
                      f"rss_mb={p['rss_mb']:.1f} " + json.dumps(p["summary"]))
                for why in p["failures"]:
                    print(f"  FAIL {why}")
            now = time.monotonic()
            rounds = len(passes) // (2 if args.trace else 1)
            if now - start + (now - loop_start) / rounds > args.seconds:
                break
        imports = import_times(root) if args.trace else {}
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = check_counts(passes)
    for why in problems:
        print(f"  FAIL {why}")
    attempted = sum(p["attempted"] for p in passes) + len(passes) - 1
    failed = sum(p["failed"] for p in passes) + len(problems)
    plain = [p for p in passes if p["trace"] == 0]

    if args.trace:
        traced = [p for p in passes if p["trace"] == 1]
        values = dict(imports)
        for m in PER_LAYER:
            name = m["name"]
            if name in COUNTS:
                values[name] = traced[0]["counts"][name]
            elif name == "trace.overhead_share":
                values[name] = (statistics.median(p["work_s"] for p in traced)
                                / statistics.median(p["work_s"] for p in plain) - 1.0)
            elif not name.startswith("import."):
                values[name] = statistics.median(p["layers"][name] for p in traced)
        catalogue = PER_LAYER
    else:
        values = {
            "setup_s": REF_SETUP_S[args.workload] * statistics.median(setups + [p["setup_ratio"] for p in passes]),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
            "speed_vs_ref": statistics.median(p["speed_vs_ref"] for p in passes),
        }
        catalogue = END_TO_END

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes, "
          f"failed_share {failed / attempted:.6g} ({failed}/{attempted})")
    for m in catalogue:
        print(f"  {m['name']:32s} {values[m['name']]:>16.6g} {m['unit']}")
    if not args.trace:
        # the workload's own names for its raw rates and latencies
        summary = {"failed_share": failed / attempted,
                   "setup_raw_s": statistics.median(p["setup_s"] for p in plain),
                   "ref_setup_raw_s": statistics.median(p["ref_setup_s"] for p in plain)}
        for key in ("setup_raw_s", "ref_setup_raw_s"):
            print(f"  {key:32s} {summary[key]:>16.6g} s  (median over passes)")
        for key in sorted({k for p in plain for k in p["summary"]}):
            summary[key] = statistics.median(p["summary"][key] for p in plain if key in p["summary"])
            print(f"  {key:32s} {summary[key]:>16.6g} {SUMMARY_UNITS[key]}  (median over passes)")
        print("summary " + json.dumps(summary))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in catalogue},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
