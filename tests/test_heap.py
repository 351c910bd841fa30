"""A run asks glibc once to keep its freed heap, and nothing else changes.

Each single-replication op frees a few MB of numpy temporaries.  Without a
top pad glibc hands the top of the heap back to the kernel, and the next op
faults the same pages in again.  ``experiments._keep_heap`` sets the pad
once per process, where a study or a CLI command starts, and does nothing
where glibc's ``mallopt`` is missing.
"""

import ctypes
import json
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest

from curvecast import run_forecast_experiment, save_curves_csv
from curvecast.cli import main
from curvecast.experiments import _keep_heap

SRC = Path(__file__).resolve().parents[1] / "src"
CONFIG = {
    "source": {"type": "kappa-far", "kappa": [0.8, 0.0], "sigma_scheme": "s1", "D": 3},
    "n": 60, "grid_T": 32, "train": 50, "horizon": 1, "fit_mode": "fixed", "seed": 5,
    "reps": 2, "methods": [{"name": "ffpe-var", "p_max": 2, "d_max": 3}],
}


@pytest.fixture
def fresh_heap_helper():
    """_keep_heap as if the process had not called it yet, and again afterwards."""
    _keep_heap.cache_clear()
    yield
    _keep_heap.cache_clear()


def usual_results(curves, capsys):
    """A study's records and `curvecast select`'s exit code and output."""
    records = run_forecast_experiment(CONFIG).replications
    code = main(["select", "--input", str(curves), "--pmax", "2", "--dmax", "3"])
    return records, code, capsys.readouterr().out


@pytest.fixture
def curves(tmp_path, make_far1):
    path = tmp_path / "curves.csv"
    save_curves_csv(make_far1(n=60, T=32, seed=4), path)
    return path


class NoMallopt:
    """A C library without mallopt, as on macOS or Windows."""


def refuse_to_load(name):
    raise OSError(f"cannot load {name!r}")


@pytest.mark.parametrize("library", [refuse_to_load, lambda name: NoMallopt()],
                         ids=["library cannot load", "no mallopt symbol"])
def test_without_mallopt_runs_give_their_usual_results(
        curves, capsys, monkeypatch, fresh_heap_helper, library):
    expected = usual_results(curves, capsys)
    _keep_heap.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", library)
    assert usual_results(curves, capsys) == expected
    assert expected[1] == 0 and "p=" in expected[2]


def test_one_mallopt_call_per_process(curves, capsys, monkeypatch, fresh_heap_helper):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    usual_results(curves, capsys)
    run_forecast_experiment(CONFIG)
    # M_TOP_PAD and M_MMAP_THRESHOLD are -2 and -3 in glibc's malloc.h
    assert calls == [(-2, 16 << 20), (-3, 32 << 20)]


# one op of each single-replication workload: criterion 04's shape (n=1000, T=256, D=21,
# p_max=3, d_max=10) and one bands-coverage replication
OPS = {
    "criterion-04": """run_forecast_experiment({
        "source": {"type": "kappa-far", "kappa": [0.4, 0.4], "sigma_scheme": "s1", "D": 21},
        "n": 1000, "grid_T": 256, "train": 0.9, "horizon": 1, "fit_mode": "fixed",
        "seed": 2**20 + i, "reps": 1, "methods": [{"name": "ffpe-var", "p_max": 3, "d_max": 10}],
    })""",
    "bands-coverage": """run_benchmark("bands-coverage", reps=1, seed=2**20 + i, n=400, alpha=0.8,
                                 p=1, d=3)""",
}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the settings are glibc's")
@pytest.mark.parametrize("op", sorted(OPS))
def test_an_op_after_warm_up_takes_few_minor_faults(op):
    script = textwrap.dedent("""
        import json, resource
        from curvecast import run_benchmark, run_forecast_experiment

        def op(i):
            OP

        for i in range(5):
            op(i)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for i in range(5, 25):
            op(i)
        print(json.dumps((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20))
    """).replace("OP", OPS[op])
    env = {key: value for key, value in os.environ.items() if key != "FTSP_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    # about 1356 (criterion 04) and 1177 (bands) per op without the settings, and 2309 per
    # bands op with the top pad alone
    assert json.loads(proc.stdout) <= 100
