import json
import math
import os
import re
import subprocess
import sys

import pytest

import jtsim
from jtsim.cli import build_parser, main
from jtsim.sweeps import CSV_COLUMNS


def test_point_decoupled_reports_zeros(capsys):
    assert main(["point", "--k1", "0", "--k2", "0"]) == 0
    out = capsys.readouterr().out
    assert "E_N(S|B1B2) = 0.000000000" in out
    assert "validity:" in out


def test_point_matches_strong_coupling_detuning_row(capsys):
    code = main(
        [
            "point",
            "--omega1", "1.05", "--omega2", "0.95",
            "--k1", "0.0707107", "--k2", "0.0707107",
            "--J", "0", "--N", "10",
            "--format", "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    for key in ("en_s_b1b2", "en_s_b1", "en_s_b2", "en_b1_b2"):
        assert payload[key] >= 0.0
    assert payload["en_s_b1b2"] > 1e-3  # coupled point, nonzero entanglement
    assert payload["valid"] is True


def test_point_json_is_strict(capsys):
    # at k_1 = k_2 = 0 the validity ratios are undefined; RFC 8259 has no NaN literal
    assert main(["point", "--format", "json"]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert payload["r1"] is payload["r2"] is payload["r3"] is payload["valid"] is None


@pytest.mark.parametrize(
    "argv, reason",
    [
        ([], None),
        # Delta = 2 puts mode 2 at zero frequency: the gap is 3.3e-12 at N = 8
        (["--delta", "2", "--k1", "0.7071068", "--k2", "0.7071068", "--N", "8"], "degenerate"),
        # the gap reads 0, but eps * ||H|| is near 3e292
        (["--omega1", "1.6e307", "--omega2", "1", "--k1", "0", "--k2", "0", "--J", "0.05",
          "--N", "6"], "imprecise"),
    ],
    ids=["clean", "degenerate", "imprecise"],
)
def test_point_json_names_the_reason(capsys, argv, reason):
    assert main(["point", *argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reason"] == reason
    assert payload["degenerate"] is (reason is not None)


def test_point_names_its_solver_path(capsys):
    # the joint run refuses this point's cross-block doublet and the dense path reports it
    argv = ["point", "--N", "20", "--delta", "1.8", "--k1", "4", "--k2", "4"]
    assert main(argv) == 0
    line = re.search(r"^solver = (\S+)   residual = (\S+)$", capsys.readouterr().out, re.M)
    assert line and line[1] == "block-fallback" and 0 < float(line[2]) < 1e-12  # 1.5e-14 here
    assert main([*argv, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "params", "en_s_b1b2", "en_s_b1", "en_s_b2", "en_b1_b2", "energy", "gap",
        "r1", "r2", "r3", "valid", "degenerate", "residual", "solver", "imprecise", "reason",
    ]
    assert payload["solver"] == "block-fallback" and payload["imprecise"] is False
    assert 0 < payload["residual"] < 1e-12


def test_point_rejects_small_cutoff(capsys):
    assert main(["point", "--N", "1"]) == 2
    assert "cutoff must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--k1", "1e300"],
        ["point", "--basis", "lab", "--k1", "1e200", "--omega1", "1e200"],
        # finite g_1 = 1e300, but omega_p = omega_1 k_1^2 / k_p^2 overflows
        ["point", "--omega1", "1e200", "--k1", "1e100"],
        # k_1^2 underflows to 0, which the rotation would read as k_1 = k_2 = 0
        ["point", "--k1", "1e-200"],
        ["point", "--basis", "lab", "--k1", "1e-200"],
        # finite coefficients whose Hamiltonian entries overflow: the builder refuses them
        ["point", "--omega1", "1e308"],
        ["point", "--J", "1e308"],
        ["point", "--basis", "lab", "--omega1", "1e308", "--k1", "1"],
        ["point", "--N", "20", "--omega1", "1e308"],
        # a non-finite hopping
        ["point", "--J", "nan"],
        ["point", "--J=-inf"],
    ],
)
def test_point_overflowing_couplings_are_usage_errors(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(jtsim.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "jtsim.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


def test_point_lab_basis_needs_no_rotation(capsys):
    # the overflow above is in the rotated coefficients only, so the lab point
    # solves but its validity ratios, read from those coefficients, are undefined
    assert main(["point", "--basis", "lab", "--omega1", "1e200", "--k1", "1e100"]) == 0
    out = capsys.readouterr().out
    assert "r1 = nan" in out
    assert "valid = n/a" in out


def test_point_delta_convenience_matches_explicit(capsys):
    main(["point", "--delta", "0.1", "--k1", "0.1", "--k2", "0.1", "--format", "json"])
    via_delta = json.loads(capsys.readouterr().out)
    main(
        ["point", "--omega1", "1.05", "--omega2", "0.95", "--k1", "0.1", "--k2", "0.1",
         "--format", "json"]
    )
    explicit = json.loads(capsys.readouterr().out)
    assert via_delta["en_s_b1b2"] == explicit["en_s_b1b2"]


def test_point_imports_no_scipy():
    # numpy is the only numerical dependency; importing scipy.linalg alone costs
    # about as much as the whole start-up of a one-point run, and 28 MB of RSS
    runs = [
        ["point", "--N", "10"],
        ["converge", "--k1", "0.5", "--k2", "0.5", "--cutoffs", "10,20"],
        ["xcheck", "--delta", "0.05", "--k1", "0.5", "--k2", "0.5", "--N", "12"],
    ]
    code = (
        f"import sys; from jtsim.cli import main; rc = max(main(a) for a in {runs!r}); "
        "sys.exit(rc or ('scipy was imported' if 'scipy' in sys.modules else 0))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(jtsim.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_sweep_unknown_preset(capsys):
    assert main(["sweep", "nosuch"]) == 2
    assert "unknown sweep" in capsys.readouterr().err


def test_sweep_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    code = main(
        ["sweep", "fig1", "--tmin", "0", "--tmax", "0.1", "--step", "0.05",
         "--N", "6", "--no-verify", "-o", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    manifest = json.loads((tmp_path / "fig1.csv.manifest.json").read_text())
    assert manifest["sweep"] == "fig1"


def test_sweep_flagged_rows_exit_code(tmp_path):
    # Delta = 2 endpoint carries the degeneracy caveat -> exit 3
    out = tmp_path / "tail.csv"
    code = main(
        ["sweep", "fig1", "--tmin", "1.95", "--tmax", "2.0", "--step", "0.05",
         "--N", "6", "--no-verify", "-o", str(out)]
    )
    assert code == 3
    assert out.exists()


def test_sweep_failed_rows_warn(tmp_path, capsys):
    # t = 2.1 gives omega_2 < 0: the row fails, and the warning carries its message
    out = tmp_path / "custom.csv"
    code = main(
        ["sweep", "custom", "--var", "delta", "--tmin", "1.9", "--tmax", "2.1",
         "--step", "0.1", "--k1", "0.1", "--k2", "0.1", "--N", "4", "-o", str(out)]
    )
    assert code == 3
    assert out.read_text().splitlines()[3].startswith("2.1,nan,")
    warnings = [line for line in capsys.readouterr().err.splitlines() if "failed" in line]
    assert warnings == [
        "warning: custom: 1 of 3 rows failed, first at t=2.1: "
        "ValueError: omega_2 must be finite and >= 0, got -0.050000000000000044"
    ]


def test_sweep_manifest_gives_flag_reasons(tmp_path):
    # t = 2.0 puts mode 2 at zero frequency (degenerate); t = 2.1 fails on omega_2 < 0
    out = tmp_path / "custom.csv"
    main(
        ["sweep", "custom", "--var", "delta", "--tmin", "1.9", "--tmax", "2.1",
         "--step", "0.1", "--k1", "0.1", "--k2", "0.1", "--N", "4", "-o", str(out)]
    )
    manifest = json.loads((tmp_path / "custom.csv.manifest.json").read_text())
    flagged = manifest["flagged"]
    assert len(flagged) == manifest["flagged_rows"] == 2
    assert flagged == [
        {"t": 2.0, "reason": "degenerate"},
        {"t": 2.1, "reason": "failed: ValueError: omega_2 must be finite and >= 0, "
                             "got -0.050000000000000044"},
    ]


def test_sweep_summary_breaks_down_flagged_rows(tmp_path, capsys):
    # t = 2.0 is degenerate and t = 2.1 fails, as above
    out = tmp_path / "custom.csv"
    main(
        ["sweep", "custom", "--var", "delta", "--tmin", "1.9", "--tmax", "2.1",
         "--step", "0.1", "--k1", "0.1", "--k2", "0.1", "--N", "4", "-o", str(out)]
    )
    assert f"custom: 3 rows -> {out} (2 flagged: 1 degenerate, 1 failed, " in capsys.readouterr().out
    manifest = json.loads((tmp_path / "custom.csv.manifest.json").read_text())
    # over the one clean row, t = 1.9
    assert 0.0 <= manifest["max_residual"] < 1e-12

    main(["sweep", "fig1", "--tmin", "0", "--tmax", "0.05", "--step", "0.05", "--N", "4",
          "--no-verify", "-o", str(tmp_path / "fig1.csv")])
    assert f"fig1: 2 rows -> {tmp_path / 'fig1.csv'} (0 flagged, " in capsys.readouterr().out


def test_sweep_verification_drift_warns(tmp_path, capsys):
    # fig5 near Delta = 2 is far from converged at N = 6: drift above VERIFY_TOL.
    # The summary line names the failed verification; the exit code stays 0.
    out = tmp_path / "fig5.csv"
    code = main(
        ["sweep", "fig5", "--tmin", "1.9", "--tmax", "1.95", "--step", "0.05",
         "--N", "6", "-o", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr()
    manifest = json.loads((tmp_path / "fig5.csv.manifest.json").read_text())
    assert manifest["verification"]["within_tol"] is False
    lines = captured.out.splitlines()
    assert len(lines) == 1
    drift = manifest["verification"]["max_abs_negativity_diff"]
    assert lines[0].startswith(
        f"fig5: 2 rows -> {out} (0 flagged, verification failed: max |d E_N| {drift:.3e} "
        "at N=10 >= 0.005, "
    )
    assert "warning" not in captured.err


def test_sweep_verification_within_tol_is_silent(tmp_path, capsys):
    code = main(
        ["sweep", "fig1", "--tmin", "0", "--tmax", "0.1", "--step", "0.05",
         "--N", "6", "-o", str(tmp_path / "fig1.csv")]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "fig1.csv.manifest.json").read_text())
    assert manifest["verification"]["within_tol"] is True
    captured = capsys.readouterr()
    assert "warning" not in captured.err
    notes = captured.out.rpartition(" (")[2]  # the path before it holds the test's name
    assert notes.startswith("0 flagged, ") and "verification" not in notes


def test_sweep_with_no_clean_row_records_full_verification_block(tmp_path, capsys):
    # omega_2 < 0 at every t: each row fails, so no point is verified
    out = tmp_path / "custom.csv"
    code = main(
        ["sweep", "custom", "--var", "delta", "--tmin", "2.1", "--tmax", "2.2",
         "--step", "0.1", "--k1", "0.1", "--k2", "0.1", "--N", "4", "-o", str(out)]
    )
    assert code == 3
    manifest = json.loads((tmp_path / "custom.csv.manifest.json").read_text())
    assert manifest["verification"] == {
        "points": [],
        "cutoff_check": 8,
        "tolerance": 0.005,
        "max_abs_negativity_diff": None,
        "within_tol": None,
        "failed": [],
    }
    assert f"custom: 2 rows -> {out} (2 flagged: 2 failed, " in capsys.readouterr().out


def test_sweep_verification_point_that_raises_is_recorded_not_fatal(tmp_path, monkeypatch, capsys):
    # every N = 8 recompute raises; the N = 4 rows are clean, so the exit code stays 0
    run_point = jtsim.sweeps.run_point

    def failing_at_8(p, *args, **kwargs):
        if p.N == 8:
            raise ValueError("no solve at N=8")
        return run_point(p, *args, **kwargs)

    monkeypatch.setattr(jtsim.sweeps, "run_point", failing_at_8)
    out = tmp_path / "fig6.csv"
    assert main(["sweep", "fig6", "--N", "4", "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 42
    ver = json.loads((tmp_path / "fig6.csv.manifest.json").read_text())["verification"]
    assert len(ver["failed"]) == len(ver["points"]) == 10
    assert [entry["t"] for entry in ver["failed"]] == ver["points"]
    assert ver["failed"][0]["reason"].startswith("failed: ValueError")
    assert ver["max_abs_negativity_diff"] is None and ver["within_tol"] is False
    assert (f"fig6: 41 rows -> {out} (0 flagged, verification failed: 10 of 10 points "
            "failed at N=8, ") in capsys.readouterr().out


def test_sweep_summary_names_a_failed_point_and_the_drift(tmp_path, capsys):
    # fig5 at N = 12: the t = 2 recompute at N = 16 reads degenerate, and the drift
    # over the other nine points passes the tolerance; one note names both.
    out = tmp_path / "fig5.csv"
    assert main(["sweep", "fig5", "--N", "12", "--tmin", "1.5", "-o", str(out)]) == 0
    ver = json.loads((tmp_path / "fig5.csv.manifest.json").read_text())["verification"]
    assert capsys.readouterr().out.startswith(
        f"fig5: 11 rows -> {out} (0 flagged, verification failed: 1 of 10 points failed "
        f"at N=16, max |d E_N| {ver['max_abs_negativity_diff']:.3e} at N=16 >= 0.005, ")


def test_sweep_custom_rule(tmp_path):
    out = tmp_path / "custom.csv"
    code = main(
        ["sweep", "custom", "--var", "J", "--tmin", "0", "--tmax", "0.02",
         "--step", "0.01", "--k1", "0.3", "--k2", "0.3", "--omega1", "0.2",
         "--omega2", "0.1", "--N", "6", "--no-verify", "-o", str(out)]
    )
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 3
    assert [r.split(",")[5] for r in rows] == ["0", "0.01", "0.02"]  # J column


def test_custom_sweep_manifest_records_control(tmp_path):
    out = tmp_path / "custom.csv"
    code = main(
        ["sweep", "custom", "--var", "J", "--tmin", "0", "--tmax", "0.02",
         "--step", "0.01", "--k1", "0.3", "--k2", "0.4", "--delta", "0.1",
         "--N", "4", "--no-verify", "-o", str(out)]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "custom.csv.manifest.json").read_text())
    assert manifest["control"] == {
        "var": "J", "fixed": {"omega_1": 1.05, "omega_2": 0.95, "k_1": 0.3, "k_2": 0.4}}


def test_sweep_custom_has_no_delta_k_var(tmp_path, capsys):
    # fig5's combined scan is a preset only; --var keeps its three choices
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "custom", "--var", "delta_k", "--tmin", "0", "--tmax", "1",
              "--step", "0.5", "-o", str(tmp_path / "c.csv")])
    assert exc.value.code == 2
    assert "invalid choice: 'delta_k'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_step_finer_than_grid_rounding_is_usage_error(tmp_path, capsys):
    # t is rounded to 12 decimals: this grid wrote "11 rows" holding only two values of t
    code = main(["sweep", "custom", "--var", "J", "--tmin", "0", "--tmax", "1e-12",
                 "--step", "1e-13", "--k1", "0.5", "--k2", "0.5", "--N", "4", "--no-verify",
                 "-o", str(tmp_path / "c.csv")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: step 1e-13 repeats grid points rounded to 12 decimals"]
    assert list(tmp_path.iterdir()) == []


def test_t_printed_alike_is_usage_error(tmp_path, capsys):
    # distinct grid points that the CSV prints alike: this grid wrote 10 rows all at t = 1000
    code = main(["sweep", "custom", "--var", "J", "--tmin", "1000", "--tmax", "1000.000000001",
                 "--step", "1e-10", "--k1", "0.5", "--k2", "0.5", "--N", "4", "--no-verify",
                 "-o", str(tmp_path / "c.csv")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: step 1e-10 repeats t printed to 12 significant digits"]
    assert list(tmp_path.iterdir()) == []


def test_sweep_small_cutoff_is_usage_error(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert main(["sweep", "fig1", "--N", "1", "-o", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: cutoff must be >= 2"]
    assert list(tmp_path.iterdir()) == []


def test_sweep_custom_requires_grid(capsys):
    assert main(["sweep", "custom", "--var", "J"]) == 2
    assert "custom sweep needs" in capsys.readouterr().err


def test_sweep_default_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("JTSIM_OUTDIR", str(tmp_path))
    code = main(
        ["sweep", "fig1", "--tmin", "0", "--tmax", "0.05", "--step", "0.05",
         "--N", "6", "--no-verify"]
    )
    assert code == 0
    assert (tmp_path / "fig1.csv").exists()


def test_converge_decoupled(capsys):
    code = main(["converge", "--k1", "0", "--k2", "0", "--cutoffs", "4,6,8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max |d E_N| = 0.000e+00" in out


def test_converge_threshold_failure(capsys):
    # at cutoffs 4 and 6 the ultrastrong point's E_N moves 1.357e-2, past VERIFY_TOL
    code = main(
        ["converge", "--delta", "0", "--k1", "0.7071068", "--k2", "0.7071068",
         "--cutoffs", "4,6"]
    )
    assert code == 4
    assert capsys.readouterr().err == "not converged: final max |d E_N| 1.357e-02 >= 0.005\n"


def test_converge_names_each_degenerate_rung(capsys):
    # Delta = 2 puts mode 2 at zero frequency: the gap is 3.6e-7 at N = 6, 3.3e-12 at
    # N = 8 and 2.7e-15 at N = 10, so the last two rungs are degenerate.
    code = main(["converge", "--delta", "2", "--k1", "0.7071068", "--k2", "0.7071068",
                 "--cutoffs", "6,8,10"])
    captured = capsys.readouterr()
    assert code == 4
    assert [line for line in captured.err.splitlines() if line.startswith("caveat:")] == [
        f"caveat: N={n}: degenerate ground state, values depend on solver pick" for n in (8, 10)]
    # the table on stdout is unchanged: header, three rungs, two differences
    assert len(captured.out.splitlines()) == 6 and "caveat" not in captured.out


def test_imprecise_rows_are_named(capsys, tmp_path):
    # At omega_1 = 1.6e307 the J > 0 gaps read 0 but eps * ||H|| is near 3e292.
    huge = ["--omega1", "1.6e307", "--omega2", "1", "--k1", "0", "--k2", "0"]
    caveat = "gap below the solver's precision (eps*||H||), values are not resolved"
    assert main(["point", *huge, "--J", "0.05"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"caveat: {caveat}"
    assert main(["converge", *huge, "--J", "0.05", "--cutoffs", "6,8"]) == 4
    assert capsys.readouterr().err.splitlines() == [
        *(f"caveat: N={n}: {caveat}" for n in (6, 8)), "not converged: N=6 is imprecise"]
    out = str(tmp_path / "imprecise.csv")
    code = main(["sweep", "custom", "--var", "J", "--tmin", "0", "--tmax", "0.1", "--step", "0.05",
                 *huge, "--N", "10", "--no-verify", "-o", out])
    assert code == 3
    assert "(2 flagged: 2 imprecise, " in capsys.readouterr().out
    with open(out) as fh:
        assert [line.rsplit(",", 1)[1] for line in fh.read().splitlines()[1:]] == [
            "false", "true", "true"]


@pytest.mark.parametrize(
    "argv, text",
    [
        (["converge", "--cutoffs", "10,20,"],
         "argument --cutoffs: must be comma-separated integers, got '10,20,'"),
        (["converge", "--cutoffs", "10,x"],
         "argument --cutoffs: must be comma-separated integers, got '10,x'"),
        (["converge", "--cutoffs", ""],
         "argument --cutoffs: must be comma-separated integers, got ''"),
        (["converge", "--cutoffs", "10.5"],
         "argument --cutoffs: must be comma-separated integers, got '10.5'"),
        # one cutoff has no successive difference, so nothing would be checked
        (["converge", "--cutoffs", "4"],
         "argument --cutoffs: must list at least two cutoffs, got '4'"),
    ],
)
def test_unparsable_flag_values_read_as_usage_errors(argv, text, tmp_path, monkeypatch, capsys):
    # the error names the rule the value broke, not the private type function
    monkeypatch.setenv("JTSIM_OUTDIR", str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(text)
    assert "_positive" not in err and "invalid" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value, shown",
    [("--step", "inf", "-2.0, 2.0, inf"), ("--step", "nan", "-2.0, 2.0, nan"),
     ("--tmin", "nan", "nan, 2.0, 0.05")],
)
def test_non_finite_grid_is_usage_error(flag, value, shown, tmp_path, capsys):
    # --step inf used to write one failed row at t = nan and exit 3
    code = main(["sweep", "fig1", "--N", "4", flag, value, "-o", str(tmp_path / "f.csv")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: t_min, t_max and step must be finite, got {shown}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value",
    [("--omega1", "0.5"), ("--omega2", "0.5"), ("--k1", "0"), ("--k2", "0.5"), ("--J", "0"),
     ("--delta", "0.1"), ("--kappa", "0.1"), ("--var", "J")],
)
def test_preset_sweep_refuses_model_flags(flag, value, tmp_path, capsys):
    # a preset fixes the model; a given flag, even at its default value, would be ignored
    code = main(["sweep", "fig1", "--N", "4", "--no-verify", flag, value,
                 "-o", str(tmp_path / "f.csv")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: fig1 fixes the model parameters; custom sweeps only: {flag}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "var, flags, refused",
    [
        ("J", ["--J", "0.7"], "--J"),
        ("delta", ["--omega1", "0.5"], "--omega1"),
        ("delta", ["--omega2", "0.5", "--delta", "0.1", "--J", "0.1"], "--omega2, --delta"),
        ("kappa", ["--k1", "0.5", "--k2", "0.5"], "--k1, --k2"),
        ("kappa", ["--kappa", "0.2", "--omega1", "0.5"], "--kappa"),
    ],
)
def test_custom_sweep_refuses_flags_its_var_overwrites(var, flags, refused, tmp_path, capsys):
    # the control variable sets these parameters at every t, so a given value would be lost
    code = main(["sweep", "custom", "--var", var, "--tmin", "0", "--tmax", "0.1",
                 "--step", "0.05", "--N", "4", *flags, "-o", str(tmp_path / "c.csv")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --var {var} sets these parameters itself: {refused}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["point"], ["converge", "--cutoffs", "4,6"], ["xcheck", "--N", "4"],
    ["sweep", "custom", "--var", "J", "--tmin", "0", "--tmax", "0.1", "--step", "0.05",
     "--N", "4"],
], ids=["point", "converge", "xcheck", "sweep"])
@pytest.mark.parametrize("flags, refused", [
    (["--delta", "0.1", "--omega1", "5"], "error: --delta sets these parameters itself: --omega1"),
    (["--omega2", "5", "--delta", "0.1", "--omega1", "5"],
     "error: --delta sets these parameters itself: --omega1, --omega2"),
    (["--kappa", "0.2", "--k2", "0.3"], "error: --kappa sets these parameters itself: --k2"),
], ids=["delta-omega1", "delta-both", "kappa-k2"])
def test_control_flags_refuse_the_flags_they_set(
    command, flags, refused, tmp_path, monkeypatch, capsys
):
    # --delta sets omega_1 and omega_2, --kappa sets k_1 and k_2: a given value would be lost
    monkeypatch.setenv("JTSIM_OUTDIR", str(tmp_path))
    assert main([*command, *flags]) == 2
    assert capsys.readouterr().err.splitlines() == [refused]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, name", [
    (["point"], "p.txt"),
    (["sweep", "fig6", "--N", "4", "--no-verify"], "f.csv"),
], ids=["point", "sweep"])
def test_unwritable_output_is_usage_error(command, name, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / name
    assert main([*command, "-o", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")
    assert list(tmp_path.iterdir()) == [blocker]


def test_sweep_refuses_unwritable_output_before_solving(tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("run_sweep called")

    monkeypatch.setattr(jtsim.cli, "run_sweep", no_solve)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "f.csv"
    assert main(["sweep", "fig6", "--N", "4", "-o", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")


def test_preset_sweep_names_every_refused_flag(tmp_path, capsys):
    code = main(["sweep", "fig6", "--k1", "0.5", "--J", "0.3", "-o", str(tmp_path / "f.csv")])
    assert code == 2
    assert capsys.readouterr().err.endswith("custom sweeps only: --k1, --J\n")
    assert list(tmp_path.iterdir()) == []


def test_converge_has_no_cutoff_flag(capsys):
    # --cutoffs sets every cutoff, so a --N would be read and ignored
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--N", "40", "--cutoffs", "4,6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --N 40" in capsys.readouterr().err


def test_sweep_has_no_jobs_flag(tmp_path, monkeypatch, capsys):
    # a sweep runs its grid in one process
    monkeypatch.setenv("JTSIM_OUTDIR", str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "fig1", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["converge", "--tol", "1e-3"], ["xcheck", "--threshold", "1"]])
def test_converge_and_xcheck_have_no_threshold_flags(argv, capsys):
    # each verdict reads its package tolerance, VERIFY_TOL or XCHECK_TOL
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]} {argv[2]}" in capsys.readouterr().err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("argv, name", [
    (["point"], "run_point"),
    (["sweep", "fig6", "--N", "4"], "run_sweep"),
    (["converge", "--cutoffs", "4,6"], "convergence_study"),
    (["xcheck"], "compare_bases"),
])
def test_cached_parser_calls_patched_solvers(argv, name, tmp_path, monkeypatch, capsys):
    # each command looks its solver up at call time, so the cached parser still reaches a patch
    def patched(*args, **kwargs):
        raise ValueError(f"patched {name}")

    parser = build_parser()
    monkeypatch.setenv("JTSIM_OUTDIR", str(tmp_path))
    monkeypatch.setattr(jtsim.cli, name, patched)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: patched {name}\n"
    assert build_parser() is parser


@pytest.mark.parametrize("above", [False, True])
@pytest.mark.parametrize("command", ["converge", "xcheck"])
def test_verdict_fails_from_the_package_tolerance_up(command, above, monkeypatch, capsys):
    # a value equal to VERIFY_TOL or XCHECK_TOL fails; the next float above it passes
    ultra = dict(omega_1=1.0, omega_2=1.0, k_1=0.7071068, k_2=0.7071068, J=0.0)
    if command == "converge":
        rows = jtsim.sweeps.convergence_study(jtsim.SystemParams(**ultra, N=4), [4, 6])
        value = jtsim.sweeps.successive_differences(rows)[-1]["d_negativity_max"]
        argv, tol = ["--omega1", "1", "--omega2", "1", "--cutoffs", "4,6"], "VERIFY_TOL"
    else:
        detuned = {**ultra, "omega_1": 1.5, "omega_2": 0.5}
        value = jtsim.sweeps.compare_bases(jtsim.SystemParams(**detuned, N=6)).energy_divergence
        argv, tol = ["--omega1", "1.5", "--omega2", "0.5", "--N", "6"], "XCHECK_TOL"
    monkeypatch.setattr(jtsim.cli, tol, math.nextafter(value, math.inf) if above else value)
    code = main([command, *argv, "--k1", "0.7071068", "--k2", "0.7071068"])
    assert code == (0 if above else 4)
    assert (capsys.readouterr().err == "") == above


def test_xcheck_identity_rotation(capsys):
    code = main(["xcheck", "--omega1", "0.9", "--omega2", "0.4", "--k1", "0.3",
                 "--k2", "0", "--N", "8"])
    assert code == 0
    assert "energy divergence" in capsys.readouterr().out


def test_xcheck_threshold_failure(capsys):
    # ultrastrong, detuned, tiny cutoff: the truncation mismatch 8.213e-4 is past XCHECK_TOL
    code = main(
        ["xcheck", "--delta", "1.0", "--k1", "0.7071068", "--k2", "0.7071068", "--N", "6"]
    )
    assert code == 4
    assert capsys.readouterr().err == "divergence 8.213e-04 >= threshold 0.0001\n"


def test_point_writes_output_file(tmp_path):
    out = tmp_path / "point.csv"
    code = main(["point", "--k1", "0.1", "--k2", "0.1", "--format", "csv",
                 "-o", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2


def test_output_that_is_a_directory_leaves_no_temp_file(tmp_path, capsys):
    # the atomic write's temp file sits next to the target and is removed when the rename fails
    out = tmp_path / "existing"
    out.mkdir()
    assert main(["point", "--N", "4", "--format", "csv", "-o", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")
    assert "Is a directory" in err[0]
    assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "jtsim" in capsys.readouterr().out
