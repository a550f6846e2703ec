"""A run loads only the code it runs.

Importing the harness and the application catalog loads numpy, the
standard library and ``repro`` only: the cycle check uses the standard
library's ``graphlib``, not a graph library.  It also leaves the sweep's
process-pool machinery unloaded, because the ``repro.experiments`` package
does not re-export the sweep.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
before = set(sys.modules)
import repro.experiments.harness, repro.apps.catalog
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _modules_loaded_by_import():
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(result.stdout))


def test_harness_and_catalog_load_only_numpy_and_the_standard_library():
    loaded = _modules_loaded_by_import()
    sweep_pool = {"multiprocessing", "concurrent.futures", "repro.experiments.sweep"}
    assert not loaded & sweep_pool
    third_party = {
        name.split(".")[0]
        for name in loaded
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert third_party == {"numpy", "repro"}
