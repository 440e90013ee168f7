"""Record the outputs every benchmark pass is checked against.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/record_goldens.py

It writes perfbench/goldens.json: a digest of the exact closed-form
coefficients and zero-density causes of every base any exact-grid seed
can draw, the stdout digest of each fixed CLI call, the exact scan
counts of every scan input any seed can draw (at full and tiny scale),
and a digest of the coefficients of every certify pair.  Scans run with
workers=1.  Takes about two minutes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import workloads as w

sys.path.insert(0, str(Path.cwd() / "src"))

from rootdensity import (  # noqa: E402
    Progression,
    ScanConfig,
    delta_closed,
    delta_closed_v2,
    scan,
    zero_density,
)


def grid_digest(g: int) -> str:
    digest = hashlib.sha256()
    for f in range(1, w.GRID_F_MAX + 1):
        for a in w.residues(f):
            prog = Progression(a, f)
            c = delta_closed(prog, g).coefficient
            assert c == delta_closed_v2(prog, g).coefficient, (g, f, a)
            digest.update(w.grid_line(f, a, c, zero_density(prog, g).cases).encode())
    return digest.hexdigest()


def main() -> int:
    grid_bases = [g for g in range(-w.GRID_SPAN, w.GRID_SPAN + 1) if w.admissible(g)]
    grid_bases += [g for pool in w.STRUCTURED.values() for g in pool]
    goldens: dict = {"grid": {str(g): grid_digest(g) for g in grid_bases}}

    goldens["cli"] = []
    for argv in w.CLI_CALLS:
        code, out = w.run_cli(argv)
        assert code == 0, argv
        goldens["cli"].append({"argv": argv, "sha256": w.cli_digest(out), "bytes": len(out.encode())})

    scan_inputs = {(g, f, x) for pool in w.SCAN_STRATA.values() for g, f in pool
                   for x in w.SCAN_X.values()}
    scan_inputs |= {(g, f, x) for g, f in w.CERTIFY_POOL for x in w.CERTIFY_X.values()}
    goldens["scan"] = {}
    for g, f, x in sorted(scan_inputs):
        counts = scan(g, f, x, ScanConfig(workers=1))
        goldens["scan"][w.scan_key(g, f, x)] = w.scan_record(counts)
        print(f"scan g={g} f={f} x={x}", file=sys.stderr)

    goldens["coefficients"] = {}
    for g, f in w.CERTIFY_POOL:
        digest = hashlib.sha256()
        for a in w.residues(f):
            digest.update(f"{a},{delta_closed(Progression(a, f), g).coefficient}\n".encode())
        goldens["coefficients"][f"{g},{f}"] = digest.hexdigest()

    w.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {w.GOLDENS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
