"""Command-line front end.

Usage examples:

  jtsim point --omega1 1.05 --omega2 0.95 --k1 0.0707107 --k2 0.0707107 --J 0 --N 10
  jtsim point --delta 0.1 --k1 0.0707107 --k2 0.0707107
  jtsim sweep fig1 -o fig1.csv
  jtsim sweep custom --var delta --tmin 0 --tmax 1 --step 0.1 --k1 0.5 --k2 0.5
  jtsim converge --delta 0 --k1 0.7071068 --k2 0.7071068
  jtsim xcheck --delta 0.05 --k1 0.0707107 --k2 0.0707107 --N 16

Exit codes: 0 success, 2 usage or parameter error, 3 sweep completed with
flagged rows, 4 threshold failure (converge/xcheck).  A sweep whose
higher-cutoff verification drifts past its tolerance says so in its summary
line but keeps its exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from dataclasses import asdict
from functools import partial

from ._version import __version__
from .groundstate import BASES
from .model import SystemParams
from .sweeps import (
    CSV_COLUMNS,
    VERIFY_TOL,
    SweepSpec,
    _atomic_write,
    _control_values,
    _controlled_params,
    compare_bases,
    convergence_study,
    csv_row,
    figure_sweep,
    run_point,
    run_sweep,
    successive_differences,
    write_csv,
    write_manifest,
)

OUTPUT_DIR_ENV = "JTSIM_OUTDIR"


# Model flags: dest -> (default, help).  Each parses to None when not given,
# so a preset sweep, which fixes the model itself, can refuse any given one.
MODEL_FLAGS = {
    "omega1": (1.0, "mode-1 frequency (units of the qubit frequency)"),
    "omega2": (1.0, "mode-2 frequency"),
    "k1": (0.0, "mode-1 coupling scale (g_1 = omega_1*k_1)"),
    "k2": (0.0, "mode-2 coupling scale"),
    "J": (0.0, "inter-mode hopping rate"),
    "delta": (None, "set omega_{1,2} = 1 +- delta/2 (overrides --omega1/--omega2)"),
    "kappa": (None, "set k_{2,1} = (1 +- kappa)/2 (overrides --k1/--k2)"),
}


def _add_param_flags(ap: argparse.ArgumentParser, cutoff: bool = True) -> None:
    for dest, (_, text) in MODEL_FLAGS.items():
        ap.add_argument(f"--{dest}", type=float, help=text)
    if cutoff:
        ap.add_argument("--N", type=int, default=10, help="Fock cutoff per mode")


def _positive_float(text: str) -> float:
    """argparse type for a pass threshold: a comparison with nan would always pass."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number > 0, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for a worker count: below 1 the sweep would run serially unasked."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _cutoff_list(text: str) -> list[int]:
    """argparse type for --cutoffs; convergence_study checks their size and order."""
    try:
        cutoffs = [int(c) for c in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers, got {text!r}"
        ) from None
    if len(cutoffs) < 2:  # one cutoff leaves no successive difference to check
        raise argparse.ArgumentTypeError(f"must list at least two cutoffs, got {text!r}")
    return cutoffs


def _params_from_args(args) -> SystemParams:
    flag = {dest: default if getattr(args, dest) is None else getattr(args, dest)
            for dest, (default, _) in MODEL_FLAGS.items()}
    # --delta/--kappa override the argument values before validation, so an
    # overridden --omega1 or --k1 is never checked.
    values = {"omega_1": flag["omega1"], "omega_2": flag["omega2"],
              "k_1": flag["k1"], "k_2": flag["k2"]}
    for var in ("delta", "kappa"):
        if flag[var] is not None:
            values.update(_control_values(var, flag[var]))
    return SystemParams(**values, J=flag["J"], N=args.N)


def _default_out(filename: str) -> str:
    return os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), filename)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)


def cmd_point(args) -> int:
    p = _params_from_args(args)
    row = run_point(p, basis=args.basis)
    if args.format == "csv":
        _emit(",".join(CSV_COLUMNS) + "\n" + csv_row(row, p.N) + "\n", args.output)
    elif args.format == "json":
        payload = {
            "params": asdict(p),
            **asdict(row.report),
            "energy": row.energy,
            "gap": row.gap,
            "r1": row.r1,
            "r2": row.r2,
            "r3": row.r3,
            "valid": row.valid,
            "degenerate": row.degenerate,
        }
        # RFC 8259 has no nan or inf: an undefined ratio is written as null.
        payload = {key: None if isinstance(value, float) and not math.isfinite(value) else value
                   for key, value in payload.items()}
        _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", args.output)
    else:
        valid_label = {True: "yes", False: "no", None: "n/a"}[row.valid]
        lines = [
            f"omega_1={p.omega_1:g} omega_2={p.omega_2:g} k_1={p.k_1:g} "
            f"k_2={p.k_2:g} J={p.J:g} N={p.N}",
            f"E_N(S|B1B2) = {row.report.en_s_b1b2:.9f}",
            f"E_N(S|B1)   = {row.report.en_s_b1:.9f}",
            f"E_N(S|B2)   = {row.report.en_s_b2:.9f}",
            f"E_N(B1|B2)  = {row.report.en_b1_b2:.9f}",
            f"energy = {row.energy:.9f}   gap = {row.gap:.3e}",
            f"validity: r1 = {row.r1:.4g}  r2 = {row.r2:.4g}  r3 = {row.r3:.4g}"
            f"  valid = {valid_label}",
        ]
        if row.degenerate:
            lines.append("caveat: degenerate ground state, values depend on solver pick")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _refuse_given(args, dests, reason: str) -> bool:
    """Print one error line naming each of ``dests`` given on the command line."""
    given = [f"--{dest}" for dest in dests if getattr(args, dest) is not None]
    if given:
        print(f"error: {reason}: {', '.join(given)}", file=sys.stderr)
    return bool(given)


def cmd_sweep(args) -> int:
    if args.name != "custom":
        spec = figure_sweep(args.name, N=args.N, basis=args.basis,
                            t_min=args.tmin, t_max=args.tmax, step=args.step)
        reason = f"{args.name} fixes the model parameters; custom sweeps only"
        if _refuse_given(args, (*MODEL_FLAGS, "var"), reason):
            return 2
    else:
        if args.var is None or args.tmin is None or args.tmax is None or args.step is None:
            print("error: custom sweep needs --var, --tmin, --tmax and --step", file=sys.stderr)
            return 2
        # Flags for what the control variable sets at every t (omega_1 is --omega1).
        overwritten = {args.var, *(name.replace("_", "") for name in _control_values(args.var, 0))}
        reason = f"--var {args.var} sets these parameters itself"
        if _refuse_given(args, [dest for dest in MODEL_FLAGS if dest in overwritten], reason):
            return 2
        rule = partial(_controlled_params, args.var, _params_from_args(args))
        spec = SweepSpec("custom", rule, args.tmin, args.tmax, args.step, args.basis, args.N)
    result = run_sweep(spec, jobs=args.jobs, verify_subsample=not args.no_verify)
    out = args.output or _default_out(f"{spec.name}.csv")
    write_csv(result, out)
    write_manifest(result, out + ".manifest.json")
    manifest = result.manifest
    # Each reason reads "<kind>" or "<kind>: <detail>"; kinds sort as degenerate, failed.
    counts = Counter(entry["reason"].partition(": ")[0] for entry in manifest["flagged"])
    breakdown = ", ".join(f"{n} {kind}" for kind, n in sorted(counts.items()))
    notes = [f"{manifest['flagged_rows']} flagged" + (f": {breakdown}" if breakdown else "")]
    ver = manifest.get("verification")
    if ver and ver["within_tol"] is False:
        notes.append(
            f"verification failed: max |d E_N| {ver['max_abs_negativity_diff']:.3e} "
            f"at N={ver['cutoff_check']} >= {ver['tolerance']:g}"
        )
    notes.append(f"{manifest['runtime_s']:.2f} s")
    print(f"{spec.name}: {manifest['rows']} rows -> {out} ({', '.join(notes)})")
    failed = [entry for entry in manifest["flagged"] if entry["reason"].startswith("failed: ")]
    if failed:
        print(
            f"warning: {spec.name}: {len(failed)} of {manifest['rows']} rows failed, "
            f"first at t={failed[0]['t']:g}: {failed[0]['reason'].removeprefix('failed: ')}",
            file=sys.stderr,
        )
    return 3 if manifest["flagged_rows"] else 0


def cmd_converge(args) -> int:
    args.N = args.cutoffs[0]  # converge has no --N; convergence_study sets each cutoff
    p = _params_from_args(args)
    rows = convergence_study(p, args.cutoffs, basis=args.basis)
    diffs = successive_differences(rows)
    print("N      energy          E_N(S|B1B2)  E_N(S|B1)    E_N(S|B2)    E_N(B1|B2)")
    for r in rows:
        d = r.report
        print(
            f"{r.params.N:<6d} {r.energy:< 15.9f} {d.en_s_b1b2:<12.9f} "
            f"{d.en_s_b1:<12.9f} {d.en_s_b2:<12.9f} {d.en_b1_b2:<12.9f}"
        )
    for d in diffs:
        print(
            f"N {d['N_from']:>2d} -> {d['N_to']:<2d}  |d energy| = {d['d_energy']:.3e}"
            f"  max |d E_N| = {d['d_negativity_max']:.3e}"
        )
    if diffs[-1]["d_negativity_max"] >= args.tol:
        print(
            f"not converged: final max |d E_N| {diffs[-1]['d_negativity_max']:.3e}"
            f" >= {args.tol:g}",
            file=sys.stderr,
        )
        return 4
    return 0


def cmd_xcheck(args) -> int:
    p = _params_from_args(args)
    div = compare_bases(p)
    print(f"ground energy (lab)         = {div.energy_lab:.12g}")
    print(f"ground energy (transformed) = {div.energy_transformed:.12g}")
    print(f"energy divergence           = {div.energy_divergence:.3e}")
    print(f"report divergence (max E_N) = {div.report_divergence:.3e}")
    print(f"rotation norm loss          = {div.rotation_norm_loss:.3e}")
    if div.energy_divergence >= args.threshold:
        print(
            f"divergence {div.energy_divergence:.3e} >= threshold {args.threshold:g}",
            file=sys.stderr,
        )
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jtsim",
        description="Ground-state entanglement of the two-mode Jahn-Teller circuit model",
    )
    ap.add_argument("--version", action="version", version=f"jtsim {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate one parameter point")
    _add_param_flags(p_point)
    p_point.add_argument("--basis", choices=BASES, default="transformed")
    p_point.add_argument("--format", choices=("human", "csv", "json"), default="human")
    p_point.add_argument("-o", "--output", default=None, help="write instead of stdout")
    p_point.set_defaults(func=cmd_point)

    p_sweep = sub.add_parser("sweep", help="run a named or custom sweep to CSV")
    p_sweep.add_argument("name", help="fig1..fig6 or 'custom'")
    _add_param_flags(p_sweep)
    p_sweep.add_argument("--basis", choices=BASES, default="transformed")
    p_sweep.add_argument("--var", choices=("delta", "kappa", "J"), default=None,
                         help="control variable for custom sweeps")
    p_sweep.add_argument("--tmin", type=float, default=None)
    p_sweep.add_argument("--tmax", type=float, default=None)
    p_sweep.add_argument("--step", type=float, default=None)
    p_sweep.add_argument("--jobs", type=_positive_int, default=1,
                         help="parallel workers (capped at the CPU count)")
    p_sweep.add_argument("--no-verify", action="store_true",
                         help="skip the higher-cutoff verification subsample")
    p_sweep.add_argument("-o", "--output", default=None,
                         help=f"CSV path (default: ${OUTPUT_DIR_ENV}/<name>.csv)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_conv = sub.add_parser("converge", help="Fock-cutoff convergence study")
    _add_param_flags(p_conv, cutoff=False)  # --cutoffs sets N
    p_conv.add_argument("--basis", choices=BASES, default="transformed")
    p_conv.add_argument("--cutoffs", type=_cutoff_list, default="6,8,10,12,14,16",
                        help="two or more comma-separated ascending cutoffs")
    p_conv.add_argument("--tol", type=_positive_float, default=VERIFY_TOL,
                        help="pass threshold on the final successive difference")
    p_conv.set_defaults(func=cmd_converge)

    p_x = sub.add_parser("xcheck", help="lab vs transformed basis cross-check")
    _add_param_flags(p_x)
    p_x.add_argument("--threshold", type=_positive_float, default=1e-4,
                     help="pass threshold on the energy divergence")
    p_x.set_defaults(func=cmd_xcheck)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
