"""Layer tracing from outside the package.

The jtsim modules import each other's functions by name (for example
``from .groundstate import ground_state`` in ``jtsim.sweeps``), so a wrapper
only sees a call if it replaces the name in the module where the lookup
happens.  ``LAYER_PATCHES`` lists those lookup sites.  Spans are kept in
memory as ``(name, start, end, parent)`` tuples and turned into per-layer
metrics when the traced pass ends.

Process-pool workers forked during a traced pass inherit the wrappers, but
the wrappers pass straight through there: spans are recorded only in the
process that created the tracer.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from collections import defaultdict

# (module, attribute, span name, hook): every place a layer's public function
# is looked up by another layer.  ``hook`` names the Tracer method that
# records counts from the call's arguments and result, or is None.
LAYER_PATCHES = (
    ("jtsim.model", "embed", "hilbert.embed", None),
    ("jtsim.groundstate", "parity_operator", "hilbert.parity", None),
    ("jtsim.groundstate", "build_lab_hamiltonian", "model.build", "_on_build"),
    ("jtsim.groundstate", "build_transformed_hamiltonian", "model.build", "_on_build"),
    ("jtsim.sweeps", "mode_rotation_unitary", "model.rotation", None),
    ("jtsim.groundstate", "eig_hermitian", "groundstate.eig", "_on_eig"),
    ("jtsim.groundstate", "ground_state", "groundstate.ground_state", "_on_solve"),
    ("jtsim.sweeps", "ground_state", "groundstate.ground_state", "_on_solve"),
    ("jtsim.entanglement", "ground_state", "groundstate.ground_state", "_on_solve"),
    ("jtsim.cli", "convergence_study", "groundstate.convergence_study", None),
    ("jtsim.sweeps", "report_from_state", "entanglement.report", "_on_report"),
    ("jtsim.entanglement", "report_from_state", "entanglement.report", "_on_report"),
    ("jtsim.entanglement", "density_from_state", "entanglement.density", None),
    ("jtsim.entanglement", "partial_trace", "entanglement.partial_trace", None),
    ("jtsim.entanglement", "log_negativity", "entanglement.negativity", None),
    ("jtsim.sweeps", "run_point", "sweeps.run_point", None),
    ("jtsim.sweeps", "_verify_subsample", "sweeps.verify", None),
    ("jtsim.cli", "run_sweep", "sweeps.run_sweep", "_on_sweep"),
    ("jtsim.cli", "compare_bases", "sweeps.compare_bases", None),
    ("jtsim.cli", "write_csv", "sweeps.write", "_on_write_csv"),
    ("jtsim.cli", "write_manifest", "sweeps.write", None),
)

CLI_SPAN = "cli.main"


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for an empty list)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Tracer:
    """In-memory span recorder plus the counts computed at layer boundaries."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self._open: list[int] = []
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []
        self.h_bytes_max = 0
        self.eig_dims: list[int] = []
        self.solve_keys: list[tuple] = []
        self.rho_bytes_max = 0
        self.rows_flagged = 0
        self.csv_bytes = 0
        self.drift: dict[str, float | None] = {}

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, kwargs, result)`` records counts."""

        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append((name, time.perf_counter(), math.nan, parent))
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                _, start, _, _ = self.spans[index]
                self.spans[index] = (name, start, time.perf_counter(), parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span, hook in LAYER_PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            after = getattr(self, hook) if hook else None
            setattr(module, attr, self.wrap(span, original, after))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- counts computed from the arguments and results ------------------

    def _on_build(self, args, kwargs, h):
        self.h_bytes_max = max(self.h_bytes_max, h.entries.nbytes)

    def _on_eig(self, args, kwargs, result):
        self.eig_dims.append(int(result[0].shape[0]))

    def _on_solve(self, args, kwargs, result):
        basis = args[1] if len(args) > 1 else kwargs.get("basis", "transformed")
        self.solve_keys.append((args[0], basis))

    def _on_report(self, args, kwargs, result):
        psi = args[0] if args else kwargs["psi"]
        amps = psi.amplitudes
        self.rho_bytes_max = max(self.rho_bytes_max, amps.size**2 * amps.itemsize)

    def _on_sweep(self, args, kwargs, result):
        self.rows_flagged += result.manifest["flagged_rows"]
        verification = result.manifest.get("verification") or {}
        self.drift[result.spec.name] = verification.get("max_abs_negativity_diff")

    def _on_write_csv(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.csv_bytes += os.path.getsize(path)

    # -- reduction -------------------------------------------------------

    def durations_ms(self, name: str) -> list[float]:
        """Ascending durations of the spans called ``name``, in milliseconds."""
        return sorted((end - start) * 1e3 for n, start, end, _ in self.spans if n == name)

    def layer_metrics(self, children_cpu_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far.

        ``<layer>.<fn>_s`` is the summed span time of that function, nested
        calls included; ``*self_s`` subtracts the time covered by child spans.
        """
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        covered: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - covered[index]
            calls[name] += 1
        point_ms = self.durations_ms("sweeps.run_point")
        solves = len(self.solve_keys)
        distinct = len(set(self.solve_keys))
        drifts = [d for d in self.drift.values() if d is not None]
        return {
            "hilbert.embed_s": total["hilbert.embed"],
            "hilbert.embed_calls": calls["hilbert.embed"],
            "hilbert.parity_s": total["hilbert.parity"],
            "hilbert.parity_calls": calls["hilbert.parity"],
            "model.build_s": total["model.build"],
            "model.build_calls": calls["model.build"],
            "model.h_bytes": self.h_bytes_max,
            "model.rotation_s": total["model.rotation"],
            "groundstate.eig_s": total["groundstate.eig"],
            "groundstate.eig_calls": calls["groundstate.eig"],
            "groundstate.eig_dim_max": max(self.eig_dims, default=0),
            "groundstate.eigpairs_used_ratio": (
                2 * len(self.eig_dims) / sum(self.eig_dims) if self.eig_dims else 0.0
            ),
            "groundstate.solves_per_point": solves / distinct if distinct else 0.0,
            "groundstate.self_s": own["groundstate.ground_state"],
            "entanglement.report_s": total["entanglement.report"],
            "entanglement.report_calls": calls["entanglement.report"],
            "entanglement.density_s": total["entanglement.density"],
            "entanglement.partial_trace_s": total["entanglement.partial_trace"],
            "entanglement.negativity_s": total["entanglement.negativity"],
            "entanglement.rho_bytes": self.rho_bytes_max,
            "sweeps.run_point_calls": calls["sweeps.run_point"],
            "sweeps.run_point_p50_ms": nearest_rank(point_ms, 50),
            "sweeps.run_point_p95_ms": nearest_rank(point_ms, 95),
            "sweeps.verify_s": total["sweeps.verify"],
            "sweeps.verify_drift_max": max(drifts, default=0.0),
            "sweeps.run_sweep_self_s": own["sweeps.run_sweep"],
            "sweeps.children_cpu_s": children_cpu_s,
            "sweeps.write_s": total["sweeps.write"],
            "sweeps.csv_bytes": self.csv_bytes,
            "sweeps.rows_flagged": self.rows_flagged,
            "sweeps.compare_bases_self_s": own["sweeps.compare_bases"],
            "cli.self_s": own[CLI_SPAN],
        }
