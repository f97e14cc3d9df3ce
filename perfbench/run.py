"""Benchmark of the jtsim command line, run from the root of a source checkout.

    python3 perfbench/run.py --workload figures --seed 0 --seconds 32 --trace 0

Workloads (see workloads.py): ``figures``, ``ladder``, ``xcheck``.  Every
pass goes through ``jtsim.cli.main`` in this process; the package is
imported from ``src/`` of the checkout.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median over
fresh interpreters that import jtsim and run one N = 10 point), then, after
an in-process warm-up, a fixed number of passes (``--seconds`` over the
workload's nominal pass time, see ``workloads.passes``), reporting the median
``wall_s`` and ``cpu_s`` (user + sys, pool children included) of a pass and
the process's ``peak_rss_mb``.

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass (layers.py) and the tracing overhead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report, and
the full record (environment, samples, spans) goes to perfbench/out/.  The
benchmark sets no ``*_NUM_THREADS`` variable: BLAS runs at its default.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402
from layers import CLI_SPAN, Tracer, nearest_rank  # noqa: E402

SETUP_REPS = 11
SETUP_TIMEOUT_S = 60
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from jtsim.cli import main; "
    "sys.exit(main(sys.argv[2:]))"
)


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units this script must report."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def summarize(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered) if ordered else None,
           "pct": None, "pct_value": None}
    for pct in range(99, 49, -1):
        value = nearest_rank(ordered, pct)
        if sum(v > value for v in ordered) >= 10:
            out["pct"], out["pct_value"] = pct, value
            break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {"name": deps[k].get("name"), "version": deps[k].get("version")}
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        blas = {"blas": "unknown"}
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def measure_setup() -> tuple[list[float], bool]:
    """Wall time of fresh interpreters that import jtsim and run one N = 10 point."""
    times, ok = [], True
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, *wl.WARMUP_ARGV],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=SETUP_TIMEOUT_S, check=False,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            ok = False
            sys.stderr.write(proc.stderr.decode(errors="replace"))
    return times, ok


def call_main(main, argv: list[str]) -> tuple[int | None, str]:
    """Run the CLI in-process; an exception counts as exit code None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception:  # noqa: BLE001 - a crash fails the pass's operations
        rc = None
        err.write(traceback.format_exc())
    if rc is None:
        sys.stderr.write(f"jtsim {' '.join(argv)} raised:\n{err.getvalue()}")
    return rc, out.getvalue()


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def cpu_now() -> float:
    """User + sys seconds of this process and its waited-for children."""
    return _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)


class Runner:
    """Runs passes of one workload and accumulates their checks."""

    def __init__(self, workload: str, seed: int, outdir: str, main):
        self.workload, self.seed, self.outdir, self.main = workload, seed, outdir, main
        self.reference = wl.load_reference()
        self.cmds = wl.commands(workload, seed, outdir)
        self.attempted = self.failed = 0
        self.notes: list[list[dict]] = []

    def warm_up(self) -> None:
        call_main(self.main, wl.WARMUP_ARGV)

    def timed_pass(self) -> tuple[float, float]:
        """(wall, cpu) seconds of one pass; the outputs are checked afterwards."""
        cpu0, t0 = cpu_now(), time.perf_counter()
        results = [(label, *call_main(self.main, argv)) for label, argv in self.cmds]
        wall, cpu = time.perf_counter() - t0, cpu_now() - cpu0
        a, f, notes = wl.check_pass(self.workload, self.seed, results, self.outdir, self.reference)
        self.attempted += a
        self.failed += f
        self.notes.append(notes)
        return wall, cpu


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup, setup_ok = measure_setup()
    runner.warm_up()
    walls, cpus = [], []
    for _ in range(wl.passes(runner.workload, seconds)):
        wall, cpu = runner.timed_pass()
        walls.append(wall)
        cpus.append(cpu)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"setup_s": setup, "wall_s": walls, "cpu_s": cpus}
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    record = {"samples": samples, "summary": {k: summarize(v) for k, v in samples.items()},
              "setup_ok": setup_ok}
    return metrics, record


def run_traced(runner: Runner) -> tuple[dict, dict]:
    runner.warm_up()
    untraced_wall, _ = runner.timed_pass()
    tracer = Tracer()
    tracer.install()
    plain_main = runner.main
    runner.main = tracer.wrap(CLI_SPAN, plain_main)
    children0 = _cpu(resource.RUSAGE_CHILDREN)
    try:
        traced_wall, _ = runner.timed_pass()
    finally:
        runner.main = plain_main
        tracer.uninstall()
    metrics = tracer.layer_metrics(_cpu(resource.RUSAGE_CHILDREN) - children0)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    record = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "run_point_ms": summarize(tracer.durations_ms("sweeps.run_point")),
        "spans": tracer.spans,
    }
    return metrics, record


def report_lines(workload: str, metrics: dict, units: dict, record: dict, runner: Runner) -> list[str]:
    lines = [f"workload {workload}: {runner.attempted} operations, {runner.failed} failed "
             f"(failed_frac {runner.failed / max(runner.attempted, 1):.6g})"]
    summaries = record.get("summary", {})
    for name, value in metrics.items():
        line = f"  {name} = {value:.6g} {units[name]}"
        if name in summaries:
            s = summaries[name]
            line += f"  (median of n={s['n']}; " + (
                f"p{s['pct']} = {s['pct_value']:.6g})" if s["pct"]
                else "no percentile has >= 10 samples beyond it)")
        lines.append(line)
    for note in runner.notes[-1] if runner.notes else []:
        if "verify_drift" in note:
            lines.append(f"  {note['sweep']}: exit {note['exit']}, verify drift "
                         f"{note['verify_drift']}, within_tol {note['within_tol']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.CANONICAL_SEED)
    spec = load_spec()
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    if not os.path.isfile(os.path.join(SRC, "jtsim", "cli.py")):
        print(f"error: no jtsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import jtsim.cli

    if not os.path.abspath(jtsim.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported jtsim from {jtsim.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    outdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(outdir)
    env = environment()
    runner = Runner(args.workload, args.seed, outdir, jtsim.cli.main)
    try:
        if args.trace:
            metrics, record = run_traced(runner)
            correct = True
        else:
            metrics, record = run_untraced(runner, args.seconds)
            correct = record["setup_ok"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    correct = correct and runner.failed == 0 and runner.attempted > 0
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "params": wl.point_args(args.workload, args.seed)
            if args.workload in ("ladder", "xcheck") else None,
            "environment": env, "metrics": metrics, "attempted": runner.attempted,
            "failed": runner.failed, "checks": runner.notes, **record}
    record_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(full, fh)

    print("environment " + json.dumps(env, sort_keys=True))
    for line in report_lines(args.workload, metrics, units, record, runner):
        print(line)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
