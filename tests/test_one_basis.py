"""Every method of a replication truncates one eigensystem of the training curves.

Each study below runs on small settings with the covariance kernel counted: a replication
makes one kernel, or two when a bosq method stacks p >= 2 blocks, which solve their own.
Each method's records must be bit-identical to those of the same study run with that
method alone, which solves at that method's own width.
"""

import json
import os

import pytest

from curvecast import Grid, fpca, ingest, load_numeric_csv, run_benchmark, run_forecast_experiment
from curvecast.experiments import _eval_method_fixed, _rep_rng, _resolve_train, _source_factory

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


# the studies with a selected method, on the small settings of tests/golden.py
SELECTING = {
    "psi1-ratio": {"reps": 2, "n": 60, "train": 50, "grid_T": 32},
    "psi2-ratio": {"reps": 2, "n": 60, "train": 50, "grid_T": 32},
    "far2-table": {"reps": 2, "n": 80, "D": 5, "grid_T": 40, "p_max": 2, "d_max": 4},
    "fma-farma": {"reps": 2, "n": 100, "D": 5, "grid_T": 40, "p_max": 2, "d_max": 4},
    "pm10-analog": {"n_days": 70, "eval_days": 10},
}


@pytest.mark.parametrize("study", SELECTING)
def test_every_study_records_each_selected_methods_criterion(tmp_path, study):
    # every study scores a replication through one loop; pm10-analog's records used to carry none
    analog = study == "pm10-analog"
    where = {"out_dir": str(tmp_path)} if analog else {}
    report = run_benchmark(study, seed=3, **SELECTING[study], **where)
    config = report.config
    if analog:
        data = ingest(config["curves_csv"], transform="sqrt", weekday_adjust="weekday")
        samples = [(data, load_numeric_csv(config["covariates_csv"]), data.n - config["eval_days"])]
        methods = [{"name": name, "p_max": config["p_max"], "d_max": config["d_max"]}
                   for name in ("ffpe-var", "covariate")]
    else:
        draw = _source_factory(config["source"], config["n"], Grid(config["grid_T"]))
        m, methods = _resolve_train(config["train"], config["n"]), config["methods"]
        samples = [(*next(iter(draw([_rep_rng(3, rec["idx"])]))), m) for rec in report.replications]
    for record, (data, rmat, m) in zip(report.replications, samples, strict=True):
        want = {meth.get("label", meth["name"]): _eval_method_fixed(data, rmat, m, 1, meth)["criterion"]
                for meth in methods if "p_max" in meth}
        assert want and record["criterion"] == want
