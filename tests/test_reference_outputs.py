"""The benchmark's reference ops still give the outputs recorded in perfbench/reference.json.

Each workload's first ops run in a fresh interpreter with one BLAS thread, set
before numpy loads, and are compared at the benchmark's own tolerance.
Nothing is written under perfbench/.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("far-replicate", "band-calibrate", "cli-csv", "far-replicate-pool")

SCRIPT = """
import json, os, sys
from workloads import WORKLOADS, compare, reference_outputs
workload = WORKLOADS[sys.argv[1]]
os.environ["FTSP_THREADS"] = str(workload.threads)
workload.install()
with open(os.path.join(os.environ["PERFBENCH"], "reference.json")) as fh:
    want = json.load(fh)[workload.name]
got = json.loads(json.dumps(reference_outputs(workload, sys.argv[2])))
print(json.dumps(compare(got, want)))
"""


@pytest.mark.parametrize("name", WORKLOADS)
def test_reference_ops_match_the_recorded_outputs(tmp_path, name):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1", PERFBENCH=PERFBENCH,
               PYTHONPATH=os.pathsep.join([PERFBENCH, os.path.join(ROOT, "src")]))
    run = subprocess.run([sys.executable, "-c", SCRIPT, name, str(tmp_path)], env=env,
                         cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) is None
