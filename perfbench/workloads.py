"""The three benchmark workloads: their CLI commands and their output checks.

One operation is one evaluated point: a sweep grid row, a verification
point, a convergence cutoff, or one basis of the cross-check.  An operation
fails when its command exits with an unexpected code, when its row is an
error row or is missing, or when a value is off the stored reference.

Seed 0 (``CANONICAL_SEED``) runs the paper's grids and points, whose values
are stored in ``reference.json``.  Other seeds move the ``ladder`` and
``xcheck`` parameter point within delta in [-0.2, 0.2] and k1, k2 in
[0.6, 0.8]; those points are checked by physical invariants instead.  The
figure grids are the same for every seed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re

CANONICAL_SEED = 0
ABS_TOL = 1e-8
# converge prints values with 9 decimals; the invariants allow for rounding.
PRINT_TOL = 2e-9
XCHECK_ENERGY_TOL = 1e-4

FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")
NEGATIVITIES = ("en_s_b1b2", "en_s_b1", "en_s_b2", "en_b1_b2")
ROW_VALUES = NEGATIVITIES + ("energy", "gap")

LADDER_CUTOFFS = (10, 20, 30)
XCHECK_N = 24
K_ULTRA = "0.7071068"

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# One N = 10 point: the command setup_s times, and every workload's warm-up.
WARMUP_ARGV = ["point", "--N", "10", "--delta", "0.1", "--k1", "0.0707107", "--k2", "0.0707107"]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def point_args(workload: str, seed: int) -> list[str]:
    """Parameter flags of the ladder/xcheck point for ``seed``."""
    if seed == CANONICAL_SEED:
        delta = "0" if workload == "ladder" else "0.05"
        return ["--delta", delta, "--k1", K_ULTRA, "--k2", K_ULTRA]
    rng = random.Random(seed)
    delta, k1, k2 = rng.uniform(-0.2, 0.2), rng.uniform(0.6, 0.8), rng.uniform(0.6, 0.8)
    return ["--delta", f"{delta:.7f}", "--k1", f"{k1:.7f}", "--k2", f"{k2:.7f}"]


def commands(workload: str, seed: int, outdir: str) -> list[tuple[str, list[str]]]:
    """(label, argv for jtsim.cli.main) of one pass of ``workload``."""
    if workload == "figures":
        return [(f, ["sweep", f, "-o", os.path.join(outdir, f + ".csv")]) for f in FIGURES]
    if workload == "ladder":
        cutoffs = ",".join(str(n) for n in LADDER_CUTOFFS)
        return [("converge", ["converge", *point_args(workload, seed), "--cutoffs", cutoffs])]
    if workload == "xcheck":
        return [("xcheck", ["xcheck", *point_args(workload, seed), "--N", str(XCHECK_N)])]
    raise KeyError(workload)


# Median seconds of one pass of the seed code on a 2-vCPU Xeon host.  A run
# makes --seconds / PASS_S passes, rounded, at least one.  So the number of
# passes, and with it the work a run measures, does not follow host speed.
PASS_S = {"figures": 20.0, "ladder": 18.0, "xcheck": 5.0}
WORKLOADS = tuple(PASS_S)


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S[workload]))


# ---------------------------------------------------------------------------
# Parsing the program's outputs
# ---------------------------------------------------------------------------


def read_sweep(csv_path: str) -> dict:
    """Rows of a sweep CSV and the verification block of its manifest."""
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = [
            {"t": float(r["t"]), "degenerate": r["degenerate"] == "true",
             **{k: float(r[k]) for k in ROW_VALUES}}
            for r in csv.DictReader(fh)
        ]
    with open(csv_path + ".manifest.json", encoding="utf-8") as fh:
        verification = json.load(fh).get("verification") or {}
    return {
        "rows": rows,
        "verification": {
            "points": verification.get("points", []),
            "max_abs_negativity_diff": verification.get("max_abs_negativity_diff"),
            "within_tol": verification.get("within_tol"),
        },
    }


_LADDER_ROW = re.compile(r"^(\d+)\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s*$")


def parse_converge(stdout: str) -> list[dict]:
    rows = []
    for line in stdout.splitlines():
        m = _LADDER_ROW.match(line)
        if m:
            values = [float(x) for x in m.groups()[1:]]
            rows.append({"N": int(m.group(1)), "energy": values[0],
                         **dict(zip(NEGATIVITIES, values[1:]))})
    return rows


def parse_xcheck(stdout: str) -> dict:
    found = {}
    for key, label in (("energy_lab", "ground energy (lab)"),
                       ("energy_transformed", "ground energy (transformed)")):
        m = re.search(re.escape(label) + r"\s*=\s*(\S+)", stdout)
        if m:
            found[key] = float(m.group(1))
    return found


def _close(a: float, b: float, tol: float = ABS_TOL) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


# ---------------------------------------------------------------------------
# Checks: each returns (attempted, failed, notes)
# ---------------------------------------------------------------------------


def check_sweep(name: str, rc, csv_path: str, ref: dict) -> tuple[int, int, dict]:
    """Rows and verification points of one figure sweep against the reference."""
    ref_rows = ref["rows"]
    ref_ver = ref["verification"]
    attempted = len(ref_rows) + len(ref_ver["points"])
    if rc != ref["exit"] or not os.path.exists(csv_path):
        return attempted, attempted, {"sweep": name, "exit": rc, "error": "unexpected exit code"}
    got = read_sweep(csv_path)
    failed = 0
    if len(got["rows"]) != len(ref_rows):
        failed += len(ref_rows)
    else:
        for row, want in zip(got["rows"], ref_rows):
            ok = row["t"] == want["t"] and row["degenerate"] == want["degenerate"]
            if want["degenerate"]:
                # Values depend on which degenerate vector the solver picks;
                # an error row would show nan here.
                ok = ok and math.isfinite(row["energy"])
            else:
                ok = ok and all(_close(row[k], want[k]) for k in ROW_VALUES)
            failed += not ok
    ver = got["verification"]
    drift = ver["max_abs_negativity_diff"]
    if ver["points"] != ref_ver["points"] or drift is None or not _close(
        drift, ref_ver["max_abs_negativity_diff"]
    ):
        failed += len(ref_ver["points"])
    notes = {"sweep": name, "exit": rc, "verify_drift": drift, "within_tol": ver["within_tol"]}
    return attempted, failed, notes


def check_ladder(rc, stdout: str, ref: dict | None) -> tuple[int, int, dict]:
    attempted = len(LADDER_CUTOFFS)
    if rc != 0:
        return attempted, attempted, {"exit": rc, "error": "unexpected exit code"}
    rows = {r["N"]: r for r in parse_converge(stdout)}
    ref_rows = {r["N"]: r for r in ref["rows"]} if ref else {}
    failed = 0
    for n in LADDER_CUTOFFS:
        row = rows.get(n)
        ok = row is not None and all(row[k] >= 0.0 for k in NEGATIVITIES) and (
            row["en_s_b1b2"] + PRINT_TOL >= max(row["en_s_b1"], row["en_s_b2"])
        )
        if ok and ref:
            want = ref_rows.get(n)
            ok = want is not None and all(
                _close(row[k], want[k]) for k in ("energy",) + NEGATIVITIES
            )
        failed += not ok
    return attempted, failed, {"exit": rc}


def check_xcheck(rc, stdout: str, ref: dict | None) -> tuple[int, int, dict]:
    attempted = 2
    got = parse_xcheck(stdout)
    if rc != 0 or len(got) != 2:
        return attempted, attempted, {"exit": rc, "error": "unexpected exit code or output"}
    divergence = abs(got["energy_lab"] - got["energy_transformed"])
    if not divergence < XCHECK_ENERGY_TOL:
        return attempted, attempted, {"exit": rc, "energy_divergence": divergence}
    failed = 0
    if ref:
        failed = sum(not _close(got[k], ref[k]) for k in ("energy_lab", "energy_transformed"))
    return attempted, failed, {"exit": rc, "energy_divergence": divergence}


def check_pass(
    workload: str, seed: int, results: list[tuple[str, int | None, str]], outdir: str,
    reference: dict,
) -> tuple[int, int, list[dict]]:
    """Check one pass; ``results`` holds (label, exit code or None, stdout) per command."""
    canonical = seed == CANONICAL_SEED
    attempted = failed = 0
    notes = []
    for label, rc, stdout in results:
        if workload == "figures":
            a, f, n = check_sweep(label, rc, os.path.join(outdir, label + ".csv"),
                                  reference["figures"][label])
        elif workload == "ladder":
            a, f, n = check_ladder(rc, stdout, reference["ladder"] if canonical else None)
        else:
            a, f, n = check_xcheck(rc, stdout, reference["xcheck"] if canonical else None)
        attempted += a
        failed += f
        notes.append(n)
    return attempted, failed, notes

