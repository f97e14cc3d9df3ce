import math
import os
import warnings
from dataclasses import asdict, astuple

import numpy as np
import pytest

from jtsim.cli import _params_from_args, build_parser
from jtsim.model import SystemParams
from jtsim.sweeps import (
    CSV_COLUMNS,
    PRESETS,
    SweepSpec,
    compare_bases,
    figure_sweep,
    grid_points,
    run_point,
    run_sweep,
    write_csv,
    write_manifest,
)


def small_fig1(**kw):
    return figure_sweep("fig1", N=kw.pop("N", 6), **kw)


K_STRONG = 0.1 / math.sqrt(2.0)
K_ULTRA = 1.0 / math.sqrt(2.0)

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
        ts = grid_points(spec)
        for t in (ts[0], ts[len(ts) // 2], ts[-1]):
            assert spec.parameter_rule(t) == DOCUMENTED_PRESETS[name](t), t

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
            assert _params_from_args(args) == spec.parameter_rule(t), t


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
            SweepSpec("bad", PRESETS["fig1"][0], 1.0, 0.0, 0.1)
        with pytest.raises(ValueError, match="step"):
            SweepSpec("bad", PRESETS["fig1"][0], 0.0, 1.0, -0.1)
        with pytest.raises(ValueError, match="grid"):
            SweepSpec("bad", PRESETS["fig1"][0], 0.0, 1e6, 0.1)
        with pytest.raises(ValueError, match="cutoff must be >= 2"):
            SweepSpec("bad", PRESETS["fig1"][0], 0.0, 1.0, 0.1, N=1)
        with pytest.raises(ValueError, match="unknown basis 'rotated'"):
            SweepSpec("bad", PRESETS["fig1"][0], 0.0, 1.0, 0.1, basis="rotated")

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            figure_sweep("nosuch")


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


class TestRunSweep:
    def test_symmetric_fig1_rows(self):
        # Delta -> -Delta relabels the modes: reports at +-1.9 must agree
        from dataclasses import replace

        rule = PRESETS["fig1"][0]
        plus = run_point(replace(rule(1.9), N=10))
        minus = run_point(replace(rule(-1.9), N=10))
        for f, v in asdict(plus.report).items():
            assert abs(v - getattr(minus.report, f)) < 1e-8

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
        def bad_rule(t):
            if t > 0.15:
                raise ValueError("boom")
            return SystemParams(omega_1=1, omega_2=1, k_1=0.1, k_2=0.1)

        spec = SweepSpec("custom", bad_rule, 0.0, 0.3, 0.1, N=4)
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

    def test_degenerate_endpoint_flagged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            spec = small_fig1(t_min=1.95, t_max=2.0, step=0.05)
            result = run_sweep(spec, verify_subsample=False)
        end = result.rows[-1]
        assert end.t == 2.0
        assert end.degenerate and end.flagged

    def test_verification_subsample_recorded(self):
        spec = small_fig1(t_min=0.0, t_max=0.2, step=0.1)
        result = run_sweep(spec, verify_subsample=True)
        ver = result.manifest["verification"]
        assert ver["cutoff_check"] == spec.N + 4
        assert ver["within_tol"] is True


class TestDeterminism:
    def test_csv_identical_across_runs_and_jobs(self, tmp_path):
        spec = small_fig1(t_min=-0.2, t_max=0.2, step=0.1)
        payloads = []
        for i, jobs in enumerate((1, 1, 2)):
            result = run_sweep(spec, jobs=jobs, verify_subsample=False)
            out = tmp_path / f"run{i}.csv"
            write_csv(result, str(out))
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1] == payloads[2]

    @pytest.mark.parametrize("cpus, expected", [(None, []), (1, []), (2, [2]), (64, [3])])
    def test_jobs_capped_by_grid_and_cpus(self, monkeypatch, cpus, expected):
        # A fake pool records the worker count and maps serially: no process starts.
        import concurrent.futures

        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        spec = small_fig1(t_min=0.0, t_max=0.1, step=0.05)
        result = run_sweep(spec, jobs=10**6, verify_subsample=False)
        assert [r.t for r in result.rows] == [0.0, 0.05, 0.1]
        assert requested == expected

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
        assert manifest["cutoff"] == spec.N


class TestCompareBases:
    def test_identity_rotation_no_divergence(self):
        p = SystemParams(omega_1=0.9, omega_2=0.4, k_1=0.3, k_2=0.0, J=0.0, N=8)
        div = compare_bases(p)
        assert div.energy_divergence < 1e-12
        assert div.report_divergence < 1e-10

    def test_fully_decoupled_short_circuit(self):
        p = SystemParams(omega_1=0.9, omega_2=0.4, k_1=0.0, k_2=0.0, N=6)
        div = compare_bases(p)
        assert div.energy_divergence == 0.0

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
