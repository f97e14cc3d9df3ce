"""The suite's one warning policy, set by filterwarnings in pyproject.toml."""
import re
from pathlib import Path

import numpy as np
import pytest

# warnings.simplefilter, warnings.filterwarnings or pytest.mark.filterwarnings with "ignore"
MUTE = re.compile(r"(simplefilter|filterwarnings)\(\s*[\"']ignore")


def test_no_test_module_mutes_warnings():
    mutes = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(Path(__file__).resolve().parent.glob("test_*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1) if MUTE.search(line)]
    assert mutes == []


def test_runtime_warning_fails_the_test():
    with pytest.raises(RuntimeWarning, match="overflow"):
        np.float64(1e308) * 10.0
