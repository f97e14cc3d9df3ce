"""Command-line front end.

Usage examples are the README's "Command line" block, which CI runs.

Exit codes: 0 success, 2 usage or parameter error, 3 sweep completed with
flagged rows, 4 threshold failure (converge/xcheck) or a converge whose final
difference has a flagged rung.  A sweep whose higher-cutoff verification
drifts past its tolerance, or fails at a point, says so in its summary line
but keeps its exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, fields

from . import __version__
from .groundstate import BASES
from .model import SystemParams
from .sweeps import (
    VERIFY_TOL,
    XCHECK_TOL,
    SweepSpec,
    _atomic_write,
    _control_values,
    compare_bases,
    convergence_study,
    csv_text,
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
    "delta": (None, "set omega_{1,2} = 1 +- delta/2"),
    "kappa": (None, "set k_{2,1} = (1 +- kappa)/2"),
}


def _add_param_flags(ap: argparse.ArgumentParser, cutoff: bool = True) -> None:
    for dest, (_, text) in MODEL_FLAGS.items():
        ap.add_argument(f"--{dest}", type=float, help=text)
    if cutoff:
        ap.add_argument("--N", type=int, default=10, help="Fock cutoff per mode")


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


def _set_by(var: str) -> list[str]:
    """Flags of the parameters that control variable ``var`` sets (omega_1 is --omega1)."""
    return [name.replace("_", "") for name in _control_values(var, 0)]


def _refuse_given(args, dests, reason: str) -> None:
    """Refuse, in one error naming each, the flags of ``dests`` given on the command line."""
    given = [f"--{dest}" for dest in dests if getattr(args, dest) is not None]
    if given:
        raise ValueError(f"{reason}: {', '.join(given)}")


def _params_from_args(args) -> SystemParams:
    flag = {dest: default if getattr(args, dest) is None else getattr(args, dest)
            for dest, (default, _) in MODEL_FLAGS.items()}
    values = {name: flag[name.replace("_", "")]
              for name in ("omega_1", "omega_2", "k_1", "k_2", "J")}
    for var in ("delta", "kappa"):
        if flag[var] is not None:
            _refuse_given(args, _set_by(var), f"--{var} sets these parameters itself")
            values.update(_control_values(var, flag[var]))
    return SystemParams(**values, N=args.N)


def _default_out(filename: str) -> str:
    return os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), filename)


@contextmanager
def _writing(path: str):
    """Turn an OSError from writing ``path`` (a parent that is a file, say) into a usage error."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with _writing(path):
            _atomic_write(path, text)


def cmd_point(args) -> int:
    p = _params_from_args(args)
    row = run_point(p, basis=args.basis)
    if args.format == "csv":
        _emit(csv_text([row], p.N), args.output)
    elif args.format == "json":
        # The row's outputs; a point has no t, and raises where a sweep row keeps an error.
        payload = {"params": asdict(p), **asdict(row.report),
                   **{f.name: getattr(row, f.name) for f in fields(row)
                      if f.name not in ("t", "params", "report", "error", "solved")},
                   "reason": row.reason}
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
            f"solver = {row.solver}   residual = {row.residual:.1e}",
            f"validity: r1 = {row.r1:.4g}  r2 = {row.r2:.4g}  r3 = {row.r3:.4g}"
            f"  valid = {valid_label}",
        ]
        if row.caveat:
            lines.append(f"caveat: {row.caveat}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_sweep(args) -> int:
    if args.name != "custom":
        spec = figure_sweep(args.name, N=args.N, basis=args.basis,
                            t_min=args.tmin, t_max=args.tmax, step=args.step)
        _refuse_given(args, (*MODEL_FLAGS, "var"),
                      f"{args.name} fixes the model parameters; custom sweeps only")
    else:
        if args.var is None or args.tmin is None or args.tmax is None or args.step is None:
            raise ValueError("custom sweep needs --var, --tmin, --tmax and --step")
        # What the control variable sets at every t; refused before _params_from_args' check.
        overwritten = (args.var, *_set_by(args.var))
        _refuse_given(args, [dest for dest in MODEL_FLAGS if dest in overwritten],
                      f"--var {args.var} sets these parameters itself")
        spec = SweepSpec("custom", args.var, _params_from_args(args),
                         args.tmin, args.tmax, args.step, args.basis)
    out = args.output or _default_out(f"{spec.name}.csv")
    with _writing(out):  # an unwritable path is refused before the sweep runs
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    result = run_sweep(spec, verify_subsample=not args.no_verify)
    with _writing(out):
        write_csv(result, out)
        write_manifest(result, out + ".manifest.json")
    manifest = result.manifest
    # Each reason reads "<kind>" or "<kind>: <detail>"; kinds sort as degenerate, failed, imprecise.
    counts = Counter(entry["reason"].partition(": ")[0] for entry in manifest["flagged"])
    breakdown = ", ".join(f"{n} {kind}" for kind, n in sorted(counts.items()))
    notes = [f"{manifest['flagged_rows']} flagged" + (f": {breakdown}" if breakdown else "")]
    ver = manifest.get("verification")
    if ver and ver["within_tol"] is False:  # a failed point, a drift past tolerance, or both
        n, drift, clauses = ver["cutoff_check"], ver["max_abs_negativity_diff"], []
        if ver["failed"]:
            clauses.append(f"{len(ver['failed'])} of {len(ver['points'])} points failed at N={n}")
        if drift is not None and not drift < ver["tolerance"]:
            clauses.append(f"max |d E_N| {drift:.3e} at N={n} >= {ver['tolerance']:g}")
        notes.append("verification failed: " + ", ".join(clauses))
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
    for r in rows:  # on stderr, as the ladder table on stdout is parsed
        if r.caveat:
            print(f"caveat: N={r.params.N}: {r.caveat}", file=sys.stderr)
    # A flagged rung's numbers are not the point's, so a small difference proves nothing.
    flagged = next((r for r in rows[-2:] if r.flagged), None)
    if flagged is not None:
        print(f"not converged: N={flagged.params.N} is {flagged.reason}", file=sys.stderr)
        return 4
    if diffs[-1]["d_negativity_max"] >= VERIFY_TOL:
        print(
            f"not converged: final max |d E_N| {diffs[-1]['d_negativity_max']:.3e}"
            f" >= {VERIFY_TOL:g}",
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
    if div.energy_divergence >= XCHECK_TOL:
        print(
            f"divergence {div.energy_divergence:.3e} >= threshold {XCHECK_TOL:g}",
            file=sys.stderr,
        )
        return 4
    return 0


@functools.cache  # built once; a patched run_sweep etc. still applies, looked up at call time
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
    p_conv.set_defaults(func=cmd_converge)

    p_x = sub.add_parser("xcheck", help="lab vs transformed basis cross-check")
    _add_param_flags(p_x)
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
