"""Every method of a replication truncates one eigensystem of the training curves.

Each study below runs on small settings with the covariance kernel counted: a replication
makes one kernel, or two when a bosq method stacks p >= 2 blocks, which solve their own.
Each method's records must be bit-identical to those of the same study run with that
method alone, which solves at that method's own width.
"""

import json
import os

import pytest

from curvecast import fpca, ingest, load_numeric_csv, run_benchmark, run_forecast_experiment
from curvecast.experiments import _eval_method_fixed

STUDIES = {
    "psi1-ratio": ({"n": 60, "train": 50, "grid_T": 32}, 1),
    "far2-table-bosq_p=1": ({"n": 80, "D": 5, "grid_T": 40, "d_max": 4}, 1),
    "far2-table-bosq_p=2": ({"n": 80, "D": 5, "grid_T": 40, "d_max": 4, "bosq_p": 2}, 2),
    "covariate-gain": ({"n": 80, "train": 60, "grid_T": 32}, 1),
}


@pytest.fixture
def kernels(monkeypatch):
    """The number of covariance kernels made since the fixture was set up."""
    made, real = [], fpca.sample_covariance_kernel
    monkeypatch.setattr(fpca, "sample_covariance_kernel", lambda data: made.append(1) or real(data))
    return made


def fields(record, key):
    """The errors, selection and criterion of method key in one replication record, as JSON."""
    return json.dumps([record["errors"][key], record["selected"][key],
                       record.get("criterion", {}).get(key)])


@pytest.mark.parametrize("study", STUDIES)
def test_a_study_replication_makes_one_basis_for_every_method(kernels, study):
    settings, per_replication = STUDIES[study]
    report = run_benchmark(study.partition("-bosq")[0], reps=2, seed=3, **settings)
    assert len(kernels) == per_replication * len(report.replications)
    for method in report.config["methods"]:
        key = method.get("label", method["name"])
        alone = run_forecast_experiment({**report.config, "methods": [method]}).replications
        assert [fields(rec, key) for rec in alone] == [fields(rec, key) for rec in report.replications]


def test_the_pm10_analog_replication_makes_one_basis_for_both_methods(kernels, tmp_path):
    report = run_benchmark("pm10-analog", seed=3, n_days=60, eval_days=10, out_dir=str(tmp_path))
    assert len(kernels) == 1
    (record,) = report.replications
    data = ingest(os.path.join(tmp_path, "pm10_analog_raw.csv"), transform="sqrt",
                  weekday_adjust="weekday")
    rmat = load_numeric_csv(os.path.join(tmp_path, "pm10_analog_covariates.csv"))
    for name in ("ffpe-var", "covariate"):
        alone = _eval_method_fixed(data, rmat, data.n - 10, 1, {"name": name, "p_max": 2, "d_max": 4})
        assert json.dumps([alone["errors"], alone["selected"]]) == json.dumps(
            [record["errors"][name], record["selected"][name]])
