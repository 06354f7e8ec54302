"""The module surface other code depends on.

* Every function the end-to-end benchmark wraps
  (``benchmarks/e2e/layers.py::LAYERS``) must still resolve: renaming or
  deleting one silently drops a layer from the benchmark's timings.
* A sequential scan runs host code only, so it must not load any
  ``repro.accel`` module (the GPU/FPGA timing models).
"""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _benchmark_layers():
    spec = importlib.util.spec_from_file_location(
        "e2e_layers", ROOT / "benchmarks" / "e2e" / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "module,path", [(entry[0], entry[1]) for entry in _benchmark_layers()]
)
def test_benchmark_layer_resolves(module, path):
    target = importlib.import_module(module)
    for name in path.split("."):
        target = getattr(target, name)
    assert callable(target)


SEQUENTIAL_SCAN = """
import sys
from repro.core.scan import scan
from repro.datasets import sweep_signature_alignment

aln = sweep_signature_alignment(20, 200, seed=3)
scan(aln, grid_size=8, max_window=aln.length / 4)
print(",".join(sorted(m for m in sys.modules if m.startswith("repro.accel"))))
"""


def test_sequential_scan_loads_no_accel_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SEQUENTIAL_SCAN],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == ""
