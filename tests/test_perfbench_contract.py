"""The benchmark's layer tracer (perfbench/layers.py) still fits the package.

The tracer patches functions by name at their lookup sites and reads the
builders' and the solver's results, so renaming a looked-up name or
changing what ``entries`` holds breaks ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
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
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"


def test_traced_point_reports_block_sizes(capsys):
    layers = load_layers()
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert main(["point", "--N", "4"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.layer_metrics(0.0)
    # two 16 x 16 parity blocks, never the 32 x 32 full matrix
    assert metrics["model.h_bytes"] == 2 * 4**4 * 8
    assert metrics["groundstate.eig_dim_max"] == 16
