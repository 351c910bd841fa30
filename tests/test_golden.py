"""Every preset, the command-line chain and the public entry points still give the outputs
recorded in tests/golden.json (see tests/golden.py).

The outputs are built in a fresh interpreter with one BLAS thread, set before numpy loads.
Ints, strings and selections must be equal and floats within 1e-12 relative.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_outputs_match_the_golden_file(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, os.path.join(ROOT, "tests", "golden.py")], env=env,
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
