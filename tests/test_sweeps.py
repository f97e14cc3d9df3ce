import math
import tracemalloc
from dataclasses import asdict, astuple, fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import jtsim.groundstate
import jtsim.sweeps
from jtsim.cli import _params_from_args, build_parser
from jtsim.groundstate import ground_state
from jtsim.model import SystemParams, mode_rotation_unitary
from jtsim.sweeps import (
    CSV_COLUMNS,
    PRESETS,
    SweepRow,
    SweepSpec,
    compare_bases,
    convergence_study,
    figure_sweep,
    grid_points,
    run_point,
    run_sweep,
    write_csv,
    write_manifest,
)
from oracles import property_settings


def small_fig1(**kw):
    return figure_sweep("fig1", N=kw.pop("N", 6), **kw)


K_STRONG = 0.1 / math.sqrt(2.0)
K_ULTRA = 1.0 / math.sqrt(2.0)
FIG1_BASE = PRESETS["fig1"].base

# The README table of built-in sweeps, written out: t -> parameters.
DOCUMENTED_PRESETS = {
    "fig1": lambda t: SystemParams(1 + t / 2, 1 - t / 2, K_STRONG, K_STRONG, J=0.0),
    "fig2": lambda t: SystemParams(1 + t / 2, 1 - t / 2, K_ULTRA, K_ULTRA, J=0.0),
    "fig3": lambda t: SystemParams(0.1, 0.05, (1 - t) / 2, (1 + t) / 2, J=0.0),
    "fig4": lambda t: SystemParams(1.0, 0.5, (1 - t) / 2, (1 + t) / 2, J=0.0),
    "fig5": lambda t: SystemParams(1 + t / 2, 1 - t / 2, t, t, J=0.0),
    "fig6": lambda t: SystemParams(0.2, 0.1, K_ULTRA, K_ULTRA, J=t),
}


class TestPresets:
    @pytest.mark.parametrize("name", sorted(DOCUMENTED_PRESETS))
    def test_rule_matches_documented_formula(self, name):
        spec = figure_sweep(name)
        for t in grid_points(spec):
            assert spec.params_at(t) == DOCUMENTED_PRESETS[name](t), t

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
    def test_cli_flags_match_preset(self, name):
        var, fixed = {
            "fig1": ("--delta", ["--k1", str(K_STRONG), "--k2", str(K_STRONG)]),
            "fig2": ("--delta", ["--k1", str(K_ULTRA), "--k2", str(K_ULTRA)]),
            "fig3": ("--kappa", ["--omega1", "0.1", "--omega2", "0.05"]),
            "fig4": ("--kappa", ["--omega1", "1.0", "--omega2", "0.5"]),
        }[name]
        spec = figure_sweep(name)
        ts = grid_points(spec)
        for t in (ts[0], ts[len(ts) // 2], ts[-1]):
            args = build_parser().parse_args(["point", var, repr(t), *fixed])
            assert _params_from_args(args, args.N) == spec.params_at(t), t


class TestGrid:
    def test_fig1_default_grid(self):
        spec = figure_sweep("fig1")
        pts = grid_points(spec)
        assert len(pts) == 81
        assert pts[0] == -2.0 and pts[-1] == 2.0
        assert pts[40] == 0.0

    def test_all_presets_under_200_points(self):
        for name in PRESETS:
            assert len(grid_points(figure_sweep(name))) < 200

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="t_min"):
            SweepSpec("bad", "delta", FIG1_BASE, 1.0, 0.0, 0.1)
        with pytest.raises(ValueError, match="step"):
            SweepSpec("bad", "delta", FIG1_BASE, 0.0, 1.0, -0.1)
        with pytest.raises(ValueError, match="grid"):
            SweepSpec("bad", "delta", FIG1_BASE, 0.0, 1e6, 0.1)
        with pytest.raises(ValueError, match="cutoff must be >= 2"):
            SweepSpec("bad", "delta", replace(FIG1_BASE, N=1), 0.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="unknown basis 'rotated'"):
            SweepSpec("bad", "delta", FIG1_BASE, 0.0, 1.0, 0.1, basis="rotated")
        with pytest.raises(ValueError, match="unknown control variable 'omega'"):
            SweepSpec("bad", "omega", FIG1_BASE, 0.0, 1.0, 0.1)

    @pytest.mark.parametrize(
        "t_min, t_max, step",
        [(-2.0, 2.0, math.inf), (-2.0, 2.0, math.nan), (math.nan, 2.0, 0.05),
         (-math.inf, 2.0, 0.05), (-2.0, math.inf, 0.05)],
    )
    def test_non_finite_grid_refused(self, t_min, t_max, step):
        # a step of inf used to give one row at t = t_min + 0 * inf = nan
        with pytest.raises(ValueError, match="t_min, t_max and step must be finite"):
            SweepSpec("bad", "delta", FIG1_BASE, t_min, t_max, step)

    def test_grid_cap_counts_points_like_grid_points(self):
        assert len(grid_points(SweepSpec("edge", "delta", FIG1_BASE, 0.0, 9999.0, 1.0))) == 10_000
        for t_max, step in ((10_000.0, 1.0), (1.0, 1e-4)):  # 10 001 points each
            with pytest.raises(ValueError, match="grid exceeds 10000 points"):
                SweepSpec("over", "delta", FIG1_BASE, 0.0, t_max, step)
        with pytest.raises(ValueError, match="grid exceeds"):  # the span overflows a float
            SweepSpec("over", "delta", FIG1_BASE, -1e308, 1e308, 1.0)

    def test_presets_are_specs_and_overrides_are_validated(self):
        assert all(isinstance(spec, SweepSpec) and spec.name == name
                   for name, spec in PRESETS.items())
        spec = figure_sweep("fig6", N=4, basis="lab", step=0.05)
        assert (spec.t_min, spec.t_max, spec.step, spec.basis) == (0.0, 0.1, 0.05, "lab")
        assert (spec.var, spec.base) == (PRESETS["fig6"].var, replace(PRESETS["fig6"].base, N=4))
        with pytest.raises(ValueError, match="t_min"):
            figure_sweep("fig1", t_min=3.0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown sweep 'nosuch'"):
            figure_sweep("nosuch")

    def test_step_finer_than_grid_rounding_refused(self):
        # t is rounded to 12 decimals: a 1e-13 step gave six rows at t = 0 and five at 1e-12,
        # which print alike too
        with pytest.raises(ValueError, match="step 1e-13 repeats t printed to 12 significant"):
            SweepSpec("fine", "J", FIG1_BASE, 0.0, 1e-12, 1e-13)
        spec = SweepSpec("edge", "J", FIG1_BASE, 0.0, 1e-11, 1e-12)
        assert grid_points(spec) == [round(i * 1e-12, 12) for i in range(11)]


class TestCutoff:
    """A sweep's one cutoff is its base's N."""

    def test_spec_has_no_cutoff_field_of_its_own(self):
        assert "N" not in {f.name for f in fields(SweepSpec)}

    def test_custom_base_cutoff_runs_end_to_end(self, tmp_path):
        base = SystemParams(1.0, 1.0, 0.5, 0.5, N=6)
        spec = SweepSpec("custom", "J", base, 0.0, 0.1, 0.05)
        assert [spec.params_at(t).N for t in grid_points(spec)] == [6, 6, 6]
        result = run_sweep(spec)
        assert {row.params.N for row in result.rows} == {6}
        assert result.manifest["cutoff"] == 6
        assert result.manifest["verification"]["cutoff_check"] == 10
        out = tmp_path / "custom.csv"
        write_csv(result, str(out))
        lines = out.read_text().splitlines()
        assert [dict(zip(CSV_COLUMNS, line.split(",")))["N"] for line in lines[1:]] == ["6"] * 3

    def test_figure_sweep_sets_the_preset_base_cutoff(self):
        assert figure_sweep("fig1").base.N == 10
        assert figure_sweep("fig1", N=14).base.N == 14
        assert figure_sweep("fig1", N=14).base == replace(PRESETS["fig1"].base, N=14)

    def test_ladder_refuses_a_bad_rung_before_it_solves(self, monkeypatch):
        solved = []
        monkeypatch.setattr("jtsim.sweeps.run_point", lambda p, basis: solved.append(p.N))
        for cutoffs in ((1, 4), (4, 4.5)):
            with pytest.raises(ValueError, match="cutoff must be >= 2"):
                convergence_study(FIG1_BASE, cutoffs)
        assert solved == []


class TestControlRecord:
    def test_fig1_records_its_var_and_fixed_parameters(self):
        result = run_sweep(small_fig1(t_min=0.0, t_max=0.05, step=0.05), verify_subsample=False)
        assert result.manifest["control"] == {
            "var": "delta", "fixed": {"k_1": K_STRONG, "k_2": K_STRONG, "J": 0.0}}

    def test_fig5_fixes_only_the_hopping(self):
        spec = figure_sweep("fig5", N=4, t_min=0.5, t_max=0.55, step=0.05)
        result = run_sweep(spec, verify_subsample=False)
        assert result.manifest["control"] == {"var": "delta_k", "fixed": {"J": 0.0}}


class TestRunPoint:
    def test_decoupled_point_is_all_zero(self):
        row = run_point(SystemParams(omega_1=1, omega_2=0.5, k_1=0, k_2=0, N=6))
        assert all(v == 0.0 for v in astuple(row.report))
        assert not row.flagged

    def test_asymmetric_point_validity(self):
        # kappa = 2/3 of the low-frequency asymmetry sweep
        p = SystemParams(omega_1=0.1, omega_2=0.05, k_1=1 / 6, k_2=5 / 6, N=10)
        row = run_point(p)
        assert row.valid
        assert row.r1 <= 0.5 and row.r2 <= 0.5

    def test_report_stable_under_cutoff_bump(self):
        p = SystemParams(omega_1=0.1, omega_2=0.05, k_1=1 / 6, k_2=5 / 6, N=10)
        lo = run_point(p)
        hi = run_point(SystemParams(omega_1=0.1, omega_2=0.05, k_1=1 / 6, k_2=5 / 6, N=14))
        for f, v in asdict(lo.report).items():
            assert abs(v - getattr(hi.report, f)) < 5e-3


def mode_swapped(p: SystemParams) -> SystemParams:
    return replace(p, omega_1=p.omega_2, omega_2=p.omega_1, k_1=p.k_2, k_2=p.k_1)


# Points with a ground state (J^2 < omega_1 omega_2, no zero-frequency mode) on the dense path.
swap_points = st.builds(
    SystemParams,
    omega_1=st.floats(0.2, 2.0),
    omega_2=st.floats(0.2, 2.0),
    k_1=st.one_of(st.just(0.0), st.floats(0.01, 1.2)),
    k_2=st.one_of(st.just(0.0), st.floats(0.01, 1.2)),
    J=st.floats(-0.5, 0.5),
    N=st.sampled_from([6, 8, 10, 12]),
).filter(lambda p: p.J**2 < p.omega_1 * p.omega_2)


class TestModeSwap:
    """Swapping (omega_1, k_1) and (omega_2, k_2) relabels the lab modes.

    The privileged mode (k_1 a_1 + k_2 a_2)/k_p is unchanged and the other mode changes
    sign, a local unitary on B2: the transformed report is unchanged, and in the lab
    basis S|B1 and S|B2 swap while S|B1B2 and B1|B2 are unchanged.
    """

    @staticmethod
    def swap_rows(p: SystemParams) -> list[SweepRow]:
        """The rows of ``p`` and of its swap, in the transformed basis and then the lab."""
        return [run_point(q, basis=basis)
                for basis in ("transformed", "lab") for q in (p, mode_swapped(p))]

    @staticmethod
    def assert_swap_symmetric(rows: list[SweepRow]) -> None:
        t, t_swap, lab, lab_swap = (row.report for row in rows)
        assert max(abs(a - b) for a, b in zip(astuple(t), astuple(t_swap))) < 1e-12
        assert max(abs(a - b) for a, b in zip(
            astuple(lab),
            (lab_swap.en_s_b1b2, lab_swap.en_s_b2, lab_swap.en_s_b1, lab_swap.en_b1_b2),
        )) < 1e-12

    @settings(property_settings, max_examples=40)
    @given(swap_points)
    def test_swap_leaves_clean_reports_invariant(self, p):
        rows = self.swap_rows(p)
        assume(not any(row.flagged for row in rows))
        self.assert_swap_symmetric(rows)

    def test_swap_on_the_block_path(self):
        rows = self.swap_rows(
            SystemParams(omega_1=1.2, omega_2=0.8, k_1=0.9, k_2=0.4, J=0.1, N=20))
        assert [(row.solver, row.flagged) for row in rows] == [("block", False)] * 4
        self.assert_swap_symmetric(rows)

    def test_fig1_and_fig2_rows_at_plus_and_minus_t_agree(self):
        # fig1 and fig2 set k_1 = k_2, J = 0 and omega_{1,2} = 1 +- t/2, so t -> -t is the swap;
        # t = +-2 has a zero-frequency mode
        for name in ("fig1", "fig2"):
            rows = run_sweep(figure_sweep(name, N=10), verify_subsample=False).rows
            by_t = {round(row.t, 9): row for row in rows}
            pairs = [(by_t[t], by_t[-t]) for t in by_t if 0 < t < 2]
            assert len(pairs) == 39
            for row, mirror in pairs:
                assert not (row.flagged or mirror.flagged), row.t
                assert max(abs(a - b) for a, b in zip(
                    astuple(row.report), astuple(mirror.report))) < 1e-12, (name, row.t)


class TestRunSweep:
    def test_zero_detuning_row_decouples_b2(self):
        spec = figure_sweep("fig1", t_min=-0.05, t_max=0.05, step=0.05)
        result = run_sweep(spec, verify_subsample=False)
        mid = [r for r in result.rows if r.t == 0.0][0]
        assert mid.report.en_s_b2 < 1e-6
        assert mid.report.en_b1_b2 < 1e-6

    def test_rows_sorted_and_counted(self):
        spec = small_fig1(t_min=0.0, t_max=0.5, step=0.1)
        result = run_sweep(spec, verify_subsample=False)
        ts = [r.t for r in result.rows]
        assert ts == sorted(ts)
        assert len(ts) == 6

    def test_failed_point_is_flagged_not_fatal(self):
        # past kappa = 1, k_1 = (1 - kappa)/2 is negative and refused
        base = SystemParams(omega_1=1, omega_2=1, k_1=0.1, k_2=0.1, N=4)
        spec = SweepSpec("custom", "kappa", base, 0.9, 1.2, 0.1)
        result = run_sweep(spec, verify_subsample=False)
        errors = [r for r in result.rows if r.error]
        assert len(result.rows) == 4
        assert len(errors) == 2
        assert all(r.flagged for r in errors)
        assert result.manifest["flagged_rows"] == 2
        for r in errors:
            assert r.params is None and r.report is None and r.valid is None
            assert all(math.isnan(v) for v in (r.energy, r.gap, r.r1, r.r2, r.r3))
            assert not r.degenerate

    def test_row_reason_is_the_flag(self):
        assert SweepRow(0.5, error="ValueError: boom").reason == "failed: ValueError: boom"
        assert SweepRow(0.5, degenerate=True).reason == "degenerate"
        clean = run_point(SystemParams(omega_1=1, omega_2=0.5, k_1=0.1, k_2=0.1, N=4))
        assert clean.reason is None and not clean.flagged

    def test_degenerate_endpoint_flagged(self):
        spec = small_fig1(t_min=1.95, t_max=2.0, step=0.05)
        result = run_sweep(spec, verify_subsample=False)
        end = result.rows[-1]
        assert end.t == 2.0
        assert end.degenerate and end.flagged

    def test_unresolvable_gap_is_flagged_imprecise(self):
        # eps * ||H|| is near 3e292 at omega_1 = 1.6e307: a gap below 1e-10 cannot be resolved
        base = SystemParams(omega_1=1.6e307, omega_2=1.0, k_1=0.0, k_2=0.0, N=10)
        result = run_sweep(SweepSpec("custom", "J", base, 0.0, 0.1, 0.05), verify_subsample=False)
        assert [r.reason for r in result.rows] == [None, "imprecise", "imprecise"]
        assert [r.degenerate for r in result.rows] == [False, True, True]  # the gap reads 0
        assert result.manifest["flagged"] == [{"t": 0.05, "reason": "imprecise"},
                                              {"t": 0.1, "reason": "imprecise"}]
        assert SweepRow(0.5, degenerate=True, imprecise=True).reason == "imprecise"

    def test_verification_subsample_recorded(self):
        spec = small_fig1(t_min=0.0, t_max=0.2, step=0.1)
        result = run_sweep(spec, verify_subsample=True)
        ver = result.manifest["verification"]
        assert ver["cutoff_check"] == spec.base.N + 4
        assert ver["within_tol"] is True

    def test_flagged_verification_recompute_is_set_aside(self):
        # fig5's t = 2 row is clean at N = 12, but its N = 16 recompute reads degenerate:
        # it is listed as failed and its solver-pick values stay out of the drift.
        result = run_sweep(figure_sweep("fig5", N=12, t_min=1.5))
        assert not any(row.flagged for row in result.rows)
        ver = result.manifest["verification"]
        assert ver["failed"] == [{"t": 2.0, "reason": "degenerate"}]
        rows = {row.t: row for row in result.rows}
        clean = [t for t in ver["points"] if t != 2.0]
        assert len(clean) == 9
        # each recompute starts from its row's pair, as the verification's does
        recomputed = {t: run_point(replace(rows[t].params, N=16),
                                   start=rows[t].solved.ritz_vectors) for t in clean}
        drifts = [max(abs(a - b) for a, b in zip(astuple(rows[t].report),
                                                 astuple(recomputed[t].report))) for t in clean]
        assert ver["max_abs_negativity_diff"] == max(drifts)
        assert ver["within_tol"] is False

    def test_each_verification_recompute_starts_from_its_row(self, monkeypatch):
        calls = record_ground_states(monkeypatch)
        result = run_sweep(figure_sweep("fig3", t_min=0.0, t_max=0.5))
        rows = {row.t: row for row in result.rows}
        points = result.manifest["verification"]["points"]
        recomputes = [(start, gs) for _, start, gs in calls if gs.state.factor_dims[1] == 14]
        assert len(recomputes) == len(points) == 10
        assert all(start is None for _, start, gs in calls[:len(result.rows)])
        for t, (start, gs) in zip(points, recomputes):
            assert gs.solver == "block"
            assert start is rows[t].solved.ritz_vectors
            assert start.shape == (2, 10 * 10)

    def test_sweep_result_keeps_no_dense_block(self):
        # Each row keeps its ground state, which keeps H's bands, four levels and its ground
        # vector for its dense pair; H's views are built on each read and never kept.  A
        # (2, N^2, N^2) stack kept per row would hold 160 kB, 13 MB over fig1.  What is kept
        # is O(N^2) floats a row, under 20 kB.
        tracemalloc.start()
        try:
            result = run_sweep(figure_sweep("fig1"))
            kept = tracemalloc.take_snapshot().traces
        finally:
            tracemalloc.stop()
        assert len(result.rows) == 81 and result.rows[0].solved is not None
        dense_block = 2 * 100 * 100 * 8
        assert max(trace.size for trace in kept) < dense_block
        assert sum(trace.size for trace in kept) < 81 * 20_000


class TestSolverPaths:
    def test_manifest_counts_rows_and_verification_points(self):
        result = run_sweep(small_fig1(t_min=0.0, t_max=0.2, step=0.1))
        assert all(row.solver == "dense" for row in result.rows)
        # three rows at N = 6 and three verification points at N = 10
        assert result.manifest["solver_paths"] == {"dense": 6, "block": 0, "block-fallback": 0}

    def test_block_path_and_its_fallback_are_counted(self):
        result = run_sweep(small_fig1(N=20, t_min=1.95, t_max=2.0, step=0.05))
        # t = 2 is degenerate (zero-frequency mode), so it is flagged and not re-run at N = 24
        assert [row.solver for row in result.rows] == ["block", "block-fallback"]
        assert result.manifest["solver_paths"] == {"dense": 0, "block": 2, "block-fallback": 1}

    @pytest.mark.parametrize("name", [f"fig{i}" for i in range(1, 7)])
    def test_default_verification_on_block_path_matches_dense(self, name, monkeypatch):
        # The default sweeps verify at N + 4 = 14, on the block path; the dense path
        # there must pick the same points and reach the same verdict.
        result = run_sweep(figure_sweep(name))
        with monkeypatch.context() as m:
            m.setattr(jtsim.groundstate, "BLOCK_MIN_N", math.inf)
            dense = run_sweep(figure_sweep(name))
        ver, expected = result.manifest["verification"], dense.manifest["verification"]
        assert (ver["points"], ver["within_tol"]) == (expected["points"], expected["within_tol"])
        drift, expected_drift = ver["max_abs_negativity_diff"], expected["max_abs_negativity_diff"]
        assert abs(drift - expected_drift) < 1e-10
        if name == "fig6":
            paths = {"dense": 41, "block": 10, "block-fallback": 0}
            assert result.manifest["solver_paths"] == paths

    def test_failed_rows_are_not_counted(self):
        spec = SweepSpec("custom", "delta", replace(FIG1_BASE, N=4), 2.05, 2.1, 0.05)
        result = run_sweep(spec)
        assert all(row.solver is None for row in result.rows)
        assert sum(result.manifest["solver_paths"].values()) == 0


class TestDeterminism:
    def test_csv_identical_across_runs(self, tmp_path):
        spec = small_fig1(t_min=-0.2, t_max=0.2, step=0.1)
        payloads = []
        for i in range(3):
            result = run_sweep(spec, verify_subsample=False)
            out = tmp_path / f"run{i}.csv"
            write_csv(result, str(out))
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1] == payloads[2]

    def test_block_path_csv_identical_across_runs(self, tmp_path):
        spec = small_fig1(N=20, t_min=0.0, t_max=0.05, step=0.05)
        payloads = []
        for i in range(3):
            result = run_sweep(spec, verify_subsample=False)
            assert all(row.solver == "block" for row in result.rows)
            out = tmp_path / f"run{i}.csv"
            write_csv(result, str(out))
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1] == payloads[2]

    def test_csv_cells_follow_the_column_order(self, monkeypatch):
        # Each cell is read by its column's name, so reversing the columns reverses every line.
        rows = [run_point(replace(FIG1_BASE, N=6), t=0.0), SweepRow(0.5, error="ValueError: x")]
        by_name = [dict(zip(CSV_COLUMNS, line.split(",")))
                   for line in jtsim.sweeps.csv_text(rows, 6).splitlines()[1:]]
        reversed_columns = CSV_COLUMNS[::-1]
        monkeypatch.setattr(jtsim.sweeps, "CSV_COLUMNS", reversed_columns)
        header, *lines = jtsim.sweeps.csv_text(rows, 6).splitlines()
        assert header == ",".join(reversed_columns)
        assert [dict(zip(reversed_columns, line.split(","))) for line in lines] == by_name
        failed = dict(zip(reversed_columns, lines[1].split(",")))
        assert (failed.pop("t"), failed.pop("N"), failed.pop("degenerate")) == ("0.5", "6", "true")
        assert set(failed.values()) == {"nan"}

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        # the atomic write's temp file sits next to the target and is removed when the
        # rename fails, here onto a directory
        result = run_sweep(small_fig1(t_min=0.0, t_max=0.05, step=0.05), verify_subsample=False)
        (tmp_path / "existing").mkdir()
        with pytest.raises(IsADirectoryError):
            write_csv(result, str(tmp_path / "existing"))
        assert [path.name for path in tmp_path.iterdir()] == ["existing"]
        assert list((tmp_path / "existing").iterdir()) == []

    def test_csv_format_contract(self, tmp_path):
        spec = small_fig1(t_min=0.0, t_max=0.1, step=0.05)
        result = run_sweep(spec, verify_subsample=False)
        out = tmp_path / "fig1.csv"
        write_csv(result, str(out))
        write_manifest(result, str(out) + ".manifest.json")
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(result.rows)
        first = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert first["degenerate"] in ("true", "false")
        assert float(first["omega_1"]) == 1.0
        # 12 significant digits
        assert first["en_s_b1b2"] == f"{result.rows[0].report.en_s_b1b2:.12g}"
        import json

        manifest = json.loads((tmp_path / "fig1.csv.manifest.json").read_text())
        assert manifest["rows"] == len(result.rows)
        assert manifest["cutoff"] == spec.base.N


def record_ground_states(monkeypatch) -> list:
    """(basis, start, result) of each ground_state call jtsim.sweeps makes."""
    calls = []

    def recording(p, basis="transformed", start=None):
        gs = ground_state(p, basis, start)
        calls.append((basis, start, gs))
        return gs

    monkeypatch.setattr(jtsim.sweeps, "ground_state", recording)
    return calls


class TestCompareBases:
    @pytest.mark.parametrize("n", [20, 24])
    @pytest.mark.parametrize("delta, k_1, k_2", [
        (0.05, 0.7071068, 0.7071068),  # the xcheck benchmark point at seed 0
        (-0.1048141, 0.7088458, 0.6739910),  # and at seed 3
    ])
    def test_transformed_solve_starts_from_the_lab_solve(self, monkeypatch, n, delta, k_1, k_2):
        p = SystemParams(1 + delta / 2, 1 - delta / 2, k_1, k_2, N=n)
        calls = record_ground_states(monkeypatch)
        compare_bases(p)
        (lab_basis, _, lab), (basis, start, warm) = calls
        assert (lab_basis, lab.solver, basis) == ("lab", "block", "transformed")
        assert start.shape == lab.ritz_vectors.shape == (2, n * n)
        # each sector's lab ground vector, rotated on its own
        rotation = mode_rotation_unitary(p)
        rotated = np.array([rotation.apply(row) for row in lab.ritz_vectors])
        assert np.max(np.abs(start - rotated)) < 1e-14
        cold = ground_state(p, "transformed")
        scale = max(1.0, abs(cold.energy))
        assert warm.solver == cold.solver
        assert abs(warm.energy - cold.energy) < 1e-12 * scale
        assert abs(warm.gap - cold.gap) < 1e-12 * scale

    def test_dense_transformed_solve_is_handed_nothing(self, monkeypatch):
        n = 12
        p = SystemParams(1.025, 0.975, 0.7071068, 0.7071068, N=n)
        calls = record_ground_states(monkeypatch)
        compare_bases(p)
        (lab_basis, _, lab), (basis, start, tr) = calls
        assert (lab_basis, lab.solver, basis, tr.solver) == ("lab", "dense", "transformed", "dense")
        # the lab pair, which a dense solve would ignore, is neither computed nor rotated
        assert start is None and "ritz_vectors" not in vars(lab)
        assert lab.ritz_vectors.shape == (2, n * n)
        cold = ground_state(p, "transformed")
        assert (tr.energy, tr.gap, tr.residual) == (cold.energy, cold.gap, cold.residual)
        assert np.array_equal(tr.state.amplitudes, cold.state.amplitudes)

    def test_no_start_from_a_fallback_lab_solve(self, monkeypatch):
        p = SystemParams(2.0, 0.0, 0.7071068, 0.7071068, N=20)  # delta = 2
        calls = record_ground_states(monkeypatch)
        compare_bases(p)
        assert [(basis, start, gs.solver) for basis, start, gs in calls] == [
            ("lab", None, "block-fallback"), ("transformed", None, "block-fallback")]

    def test_identity_rotation_no_divergence(self):
        p = SystemParams(omega_1=0.9, omega_2=0.4, k_1=0.3, k_2=0.0, J=0.0, N=8)
        div = compare_bases(p)
        assert div.energy_divergence < 1e-12
        assert div.report_divergence < 1e-10

    def test_fully_decoupled_short_circuit(self, monkeypatch):
        # k1 = k2 = 0: the lab solve is the only one, and both energies are its energy
        p = SystemParams(omega_1=0.9, omega_2=0.4, k_1=0.0, k_2=0.0, N=6)
        calls = record_ground_states(monkeypatch)
        div = compare_bases(p)
        [(basis, start, gs)] = calls
        assert (basis, start) == ("lab", None)
        assert astuple(div) == (gs.energy, gs.energy, 0.0, 0.0, 0.0)

    def test_weak_coupling_energy_divergence_small(self):
        p = SystemParams(
            omega_1=1.025, omega_2=0.975, k_1=0.1 / math.sqrt(2), k_2=0.1 / math.sqrt(2), N=16
        )
        div = compare_bases(p)
        assert div.energy_divergence < 1e-6
        assert div.report_divergence < 1e-6

    def test_truncation_divergence_shrinks_with_cutoff(self):
        k = 1 / math.sqrt(2)
        divs = []
        for n in (10, 16):
            p = SystemParams(omega_1=1.5, omega_2=0.5, k_1=k, k_2=k, N=n)
            divs.append(compare_bases(p).energy_divergence)
        assert divs[1] < divs[0]

    def test_rotation_forms_no_dense_matrix(self, monkeypatch):
        # the xcheck point at N = 40: an N^2 x N^2 rotation matrix alone would take 20.48 MB
        p = SystemParams(omega_1=1.025, omega_2=0.975, k_1=K_ULTRA, k_2=K_ULTRA, N=40)
        calls = record_ground_states(monkeypatch)
        tracemalloc.start()
        try:
            div = compare_bases(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [gs.solver for _, _, gs in calls] == ["block", "block"]
        assert div.energy_divergence < 1e-12
        assert peak < 5e6
