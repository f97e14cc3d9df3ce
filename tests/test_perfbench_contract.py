"""The benchmark's layer tracer (perfbench/layers.py) still fits the package.

The tracer patches functions by name at their lookup sites and reads the
builders' and the solver's results, so renaming a looked-up name or
changing what ``entries`` holds breaks ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from jtsim.cli import main

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_layer_patch_resolves():
    layers = load_layers()
    for module_name, attr, _span, _hook in layers.LAYER_PATCHES:
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), f"{module_name}.{attr}"
        # no run path calls embed, parity_operator or the dense toolkit, so a
        # stub bound to one of those names would pass every other gate
        assert callable(getattr(module, attr)), f"{module_name}.{attr} is not callable"


def traced_metrics(argv, exit_code=0):
    """Layer metrics of one ``jtsim`` run under the benchmark's tracer."""
    tracer = load_layers().Tracer()
    tracer.install()
    try:
        assert main(argv) == exit_code
    finally:
        tracer.uninstall()
    return tracer.layer_metrics(0.0)


def test_traced_point_reports_block_sizes(capsys):
    metrics = traced_metrics(["point", "--N", "4"])
    capsys.readouterr()
    # two 16 x 16 parity blocks, never the 32 x 32 full matrix
    assert metrics["model.h_bytes"] == 2 * 4**4 * 8
    assert metrics["groundstate.eig_dim_max"] == 16


def test_traced_sweep_counts_csv_bytes_and_flagged_rows(tmp_path, capsys):
    out = tmp_path / "fig6.csv"
    metrics = traced_metrics(["sweep", "fig6", "--N", "4", "-o", str(out)])
    capsys.readouterr()
    manifest = json.loads((tmp_path / "fig6.csv.manifest.json").read_text())
    assert metrics["sweeps.csv_bytes"] == out.stat().st_size
    assert metrics["sweeps.rows_flagged"] == manifest["flagged_rows"]


def test_traced_xcheck_times_the_mode_rotation(capsys):
    # at N = 4 truncation puts the energy divergence past the threshold: exit 4
    metrics = traced_metrics(["xcheck", "--N", "4", "--k1", "0.5", "--k2", "0.5"], exit_code=4)
    capsys.readouterr()
    assert metrics["model.rotation_s"] > 0
