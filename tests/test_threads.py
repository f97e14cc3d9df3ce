"""jtsim runs BLAS on one thread unless the user chose a thread count or loaded numpy first.

Each subprocess test runs a new interpreter, because BLAS reads its thread count once,
when numpy loads it.  The suite's own interpreter imports jtsim first (the root
``conftest.py``), so the library runs under the suite as it runs under the CLI.
"""

import json
import os
import subprocess
import sys

import jtsim

SRC = os.path.dirname(os.path.dirname(os.path.abspath(jtsim.__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# the thread variables, the package's record of them and the process's thread count
STATE = (
    "import json, os; print(json.dumps({"
    f"'env': {{v: os.environ.get(v) for v in {THREAD_VARS!r}}}, "
    "'blas_threads': jtsim.BLAS_THREADS, "
    "'threads': len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None}))"
)
POINT = "from jtsim.cli import main; main(['point', '--N', '10']); "


def fresh(code, **thread_vars):
    """The JSON that ``code`` prints last, in a new interpreter whose environment sets
    only ``thread_vars`` of the BLAS thread variables."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(PYTHONPATH=SRC, **thread_vars)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_suite_process_loaded_jtsim_before_numpy():
    # {} would mean numpy loaded first and BLAS kept its default thread count
    assert jtsim.BLAS_THREADS != {}


def test_unset_thread_count_is_pinned_to_one():
    state = fresh("import jtsim; " + POINT + STATE)
    assert state["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                            "OMP_NUM_THREADS": None}
    assert state["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1"}
    if state["threads"] is not None:  # Linux: no BLAS worker beside the main thread
        assert state["threads"] == 1


def test_user_thread_count_wins():
    state = fresh("import jtsim; " + POINT + STATE, OPENBLAS_NUM_THREADS="2")
    assert state["env"] == {"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": None,
                            "OMP_NUM_THREADS": None}
    assert state["blas_threads"] == {"OPENBLAS_NUM_THREADS": "2"}
    state = fresh("import jtsim; " + STATE, OMP_NUM_THREADS="2")
    assert state["env"] == {"OPENBLAS_NUM_THREADS": None, "GOTO_NUM_THREADS": None,
                            "OMP_NUM_THREADS": "2"}
    assert state["blas_threads"] == {"OMP_NUM_THREADS": "2"}


def test_numpy_imported_first_keeps_its_default():
    state = fresh("import numpy; import jtsim; " + STATE)
    assert state["env"] == dict.fromkeys(THREAD_VARS)
    assert state["blas_threads"] == {}


def test_manifest_records_blas_threads():
    sweep = (
        "from jtsim import SweepSpec, SystemParams, run_sweep; "
        "spec = SweepSpec('t', 'J', SystemParams(1.0, 1.0, 0.1, 0.1, N=6), 0.0, 0.05, 0.05); "
        "print(json.dumps(run_sweep(spec, verify_subsample=False).manifest['blas_threads']))"
    )
    assert fresh("import json, jtsim; " + sweep) == {"OPENBLAS_NUM_THREADS": "1"}
    assert fresh("import json, numpy, jtsim; " + sweep) == {}
