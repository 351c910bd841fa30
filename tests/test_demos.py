import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvecast

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # from a scratch directory, against the package under test; TMPDIR keeps the
    # output directories some demos leave for the reader inside tmp_path
    package_root = Path(curvecast.__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath, TMPDIR=str(tmp_path)), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
