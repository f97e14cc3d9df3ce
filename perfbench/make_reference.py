"""Regenerate reference.json from the jtsim sources of this checkout.

    python3 perfbench/make_reference.py

Runs the canonical-seed pass of ``figures``, ``ladder`` and ``xcheck`` and
stores exit codes, every sweep row (values only for rows not flagged
degenerate), the verification points and drift, the convergence ladder and
the two cross-check energies.  Regenerate only when a change is meant to
alter these values, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads as wl


def main() -> int:
    sys.path.insert(0, run.SRC)
    import jtsim.cli

    outdir = os.path.join(run.OUT, f"ref-{os.getpid()}")
    os.makedirs(outdir)
    try:
        figures = {}
        for label, argv in wl.commands("figures", wl.CANONICAL_SEED, outdir):
            rc, _ = run.call_main(jtsim.cli.main, argv)
            got = wl.read_sweep(os.path.join(outdir, label + ".csv"))
            rows = [
                {"t": r["t"], "degenerate": True} if r["degenerate"] else r
                for r in got["rows"]
            ]
            verification = dict(got["verification"])
            del verification["within_tol"]
            figures[label] = {"exit": rc, "rows": rows, "verification": verification}
        (_, argv), = wl.commands("ladder", wl.CANONICAL_SEED, outdir)
        rc, stdout = run.call_main(jtsim.cli.main, argv)
        if rc != 0:
            raise SystemExit(f"converge exited {rc}")
        ladder = {"rows": wl.parse_converge(stdout)}
        (_, argv), = wl.commands("xcheck", wl.CANONICAL_SEED, outdir)
        rc, stdout = run.call_main(jtsim.cli.main, argv)
        if rc != 0:
            raise SystemExit(f"xcheck exited {rc}")
        xcheck = wl.parse_xcheck(stdout)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    reference = {"figures": figures, "ladder": ladder, "xcheck": xcheck}
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
