import inspect
import json
import os
import re
import tempfile

import numpy as np
import pytest

from curvecast import (
    FunctionalDataset,
    Grid,
    IngestError,
    InsufficientDataError,
    ProcessSpec,
    eigensystem,
    ingest,
    load_numeric_csv,
    make_pm10_analog,
    run_benchmark,
    run_forecast_experiment,
    save_curves_csv,
    scores,
    simulate,
)
from curvecast import experiments
from curvecast.experiments import (
    PRESETS,
    THREADS_ENV,
    RunReport,
    _eval_method_fixed,
    _rep_rng,
    _source_factory,
    _worker_count,
)
from curvecast.multivar import fit_var_ols, fit_varx_ols, predict_var

SPEC_PAYLOAD = {
    "kind": "far",
    "D": 2,
    "sigma": [1.0, 0.7],
    "ar": [[[0.5, 0.0], [0.0, 0.4]]],
    "ma": {},
    "burn_in": 100,
}


def tiny_config(**extra):
    config = {
        "source": {"type": "process", "spec": SPEC_PAYLOAD},
        "n": 40,
        "grid_T": 32,
        "train": 36,
        "horizon": 1,
        "fit_mode": "fixed",
        "seed": 11,
        "reps": 2,
        "methods": [{"name": "fixed-var", "p": 1, "d": 2}],
    }
    config.update(extra)
    return config


def test_report_json_round_trip(tmp_path):
    report = run_forecast_experiment(tiny_config())
    path = tmp_path / "report.json"
    report.save(path)
    back = RunReport.from_json(path.read_text())
    assert back.command == "run_forecast_experiment"
    assert back.config == report.config
    assert back.replications == report.replications
    assert back.aggregates == report.aggregates
    assert back.frequencies == report.frequencies


def test_same_seed_reproduces_exactly():
    a = run_forecast_experiment(tiny_config())
    b = run_forecast_experiment(tiny_config())
    assert a.replications == b.replications
    assert a.aggregates == b.aggregates
    c = run_forecast_experiment(tiny_config(seed=12))
    assert c.replications != a.replications


def test_thread_pool_matches_serial(monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    serial = run_forecast_experiment(tiny_config(reps=4))
    monkeypatch.setenv(THREADS_ENV, "4")
    threaded = run_forecast_experiment(tiny_config(reps=4))
    assert serial.replications == threaded.replications


def test_worker_count_parsing(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delenv(THREADS_ENV, raising=False)
    assert _worker_count() == 1
    monkeypatch.setenv(THREADS_ENV, "4")
    assert _worker_count() == 4
    monkeypatch.setenv(THREADS_ENV, "soon")
    assert _worker_count() == 1
    monkeypatch.setenv(THREADS_ENV, "0")
    assert _worker_count() == 1


@pytest.mark.parametrize(
    "cpus, raw, expected",
    [(2, "4", 2), (2, "2", 2), (8, "3", 3), (3, "64", 3), (None, "4", 1), (1, "2", 1),
     (4, "0", 1), (4, "", 1), (4, "many", 1)],
)
def test_worker_count_is_capped_at_the_cpu_count(monkeypatch, cpus, raw, expected):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setenv(THREADS_ENV, raw)
    assert _worker_count() == expected


def test_replication_seed_streams():
    report = run_forecast_experiment(tiny_config())
    assert [rec["seed"] for rec in report.replications] == [[11, 0], [11, 1]]
    assert _rep_rng(3, 1).normal() == np.random.default_rng([3, 1]).normal()


def test_aggregates_match_pooled_records():
    report = run_forecast_experiment(tiny_config(reps=3))
    pooled = [e for rec in report.replications for e in rec["errors"]["fixed-var"]]
    assert len(pooled) == 3 * (40 - 36)
    agg = report.aggregates["fixed-var"]
    assert agg["mse"] == pytest.approx(float(np.mean(pooled)), rel=1e-12)
    assert agg["medse"] == pytest.approx(float(np.median(pooled)), rel=1e-12)
    assert agg["sd"] == pytest.approx(float(np.std(pooled, ddof=1)), rel=1e-12)


def test_selection_frequencies_count_every_replication():
    config = tiny_config(methods=[{"name": "ffpe-var", "p_max": 2, "d_max": 2}], reps=3)
    report = run_forecast_experiment(config)
    counts = report.frequencies["ffpe-var"]
    assert sum(counts.values()) == 3
    assert all("," in key for key in counts)
    assert "mean_criterion" in report.aggregates["ffpe-var"]


def test_config_validation():
    bad = tiny_config()
    del bad["seed"]
    with pytest.raises(ValueError, match="seed"):
        run_forecast_experiment(bad)
    with pytest.raises(ValueError, match="fit_mode"):
        run_forecast_experiment(tiny_config(fit_mode="both"))
    with pytest.raises(ValueError, match="reps"):
        run_forecast_experiment(tiny_config(reps=0))
    with pytest.raises(ValueError, match="unique"):
        run_forecast_experiment(
            tiny_config(methods=[{"name": "fixed-var", "p": 1, "d": 1}] * 2)
        )
    with pytest.raises(ValueError, match="method"):
        run_forecast_experiment(tiny_config(methods=[{"name": "oracle"}]))
    with pytest.raises(ValueError, match="source"):
        run_forecast_experiment(tiny_config(source={"type": "quantum"}))
    with pytest.raises(ValueError, match="train"):
        run_forecast_experiment(tiny_config(train=1))


def test_method_labels_allow_repeats_of_one_name():
    config = tiny_config(
        methods=[
            {"name": "fixed-var", "p": 1, "d": 1, "label": "small"},
            {"name": "fixed-var", "p": 1, "d": 2, "label": "big"},
        ]
    )
    report = run_forecast_experiment(config)
    assert set(report.aggregates) == {"small", "big"}


def test_horizon_guards():
    with pytest.raises(ValueError, match="one step"):
        run_forecast_experiment(
            tiny_config(horizon=2, methods=[{"name": "bosq", "d": 2}])
        )
    config = tiny_config(horizon=2, methods=[{"name": "fixed-var", "p": 1, "d": 2}])
    report = run_forecast_experiment(config)
    assert len(report.replications[0]["errors"]["fixed-var"]) == 4


def test_expanding_mode_refits_each_step():
    config = tiny_config(
        fit_mode="expanding",
        methods=[
            {"name": "fixed-var", "p": 1, "d": 2},
            {"name": "scalar", "p": 1, "d": 2},
            {"name": "bosq", "d": 2},
        ],
        reps=1,
    )
    report = run_forecast_experiment(config)
    rec = report.replications[0]
    for key in ("fixed-var", "scalar", "bosq"):
        errs = rec["errors"][key]
        assert len(errs) == 4 and all(np.isfinite(errs))


def test_fixed_and_expanding_agree_on_single_step():
    # with train = n - 1 there is one evaluation point and the fixed-fit
    # model sees exactly the data an expanding refit would use
    fixed = run_forecast_experiment(tiny_config(train=39, reps=1))
    expanding = run_forecast_experiment(
        tiny_config(train=39, reps=1, fit_mode="expanding")
    )
    a = fixed.replications[0]["errors"]["fixed-var"]
    b = expanding.replications[0]["errors"]["fixed-var"]
    assert a == pytest.approx(b, rel=1e-10)


def test_file_source_reproduces_process_run(tmp_path):
    process = run_forecast_experiment(tiny_config(reps=1, seed=5))
    spec = ProcessSpec.from_json(json.dumps(SPEC_PAYLOAD))
    data = simulate(spec, 40, Grid(32), np.random.default_rng([5, 0]))
    path = tmp_path / "curves.csv"
    save_curves_csv(data, path)
    file_run = run_forecast_experiment(  # a file source needs no n
        tiny_config(source={"type": "file", "path": str(path)}, reps=1, seed=5, n=None)
    )
    assert file_run.replications[0]["errors"] == process.replications[0]["errors"]


def test_file_source_rejects_multiple_reps(tmp_path):
    data = simulate(
        ProcessSpec.from_json(json.dumps(SPEC_PAYLOAD)), 40, Grid(32),
        np.random.default_rng(0),
    )
    path = tmp_path / "curves.csv"
    save_curves_csv(data, path)
    with pytest.raises(ValueError, match="reps=1"):
        run_forecast_experiment(
            tiny_config(source={"type": "file", "path": str(path)}, reps=2)
        )


def test_pm10_analog_files(tmp_path):
    curves_path, cov_path = make_pm10_analog(tmp_path, n_days=42, seed=3)
    lines = open(curves_path).read().splitlines()
    assert len(lines) == 1 + 42
    assert lines[0].split(",")[0] == "weekday"
    assert lines[0].count(",") == 48
    labels = [line.split(",", 1)[0] for line in lines[1:8]]
    assert labels == ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"]
    data = ingest(curves_path, transform="sqrt", weekday_adjust="weekday")
    assert data.n == 42 and data.grid.T == 48
    assert np.all(np.isfinite(data.values))
    rmat = load_numeric_csv(cov_path)
    assert rmat.shape == (42, 2)


def test_pm10_analog_has_missing_cells(tmp_path):
    curves_path, _ = make_pm10_analog(tmp_path, n_days=60, seed=1, missing_rate=0.05)
    body = "".join(open(curves_path).read().splitlines()[1:])
    assert ",," in body


def test_benchmark_requires_known_preset_and_seed():
    with pytest.raises(ValueError, match="psi1-ratio"):
        run_benchmark("psi9-ratio", seed=0)
    with pytest.raises(ValueError, match="seed"):
        run_benchmark("psi1-ratio")


PRESET_REPS = {"psi1-ratio": 200, "psi2-ratio": 200, "order-selection": 100,
               "far2-table": 100, "fma-farma": 50, "equivalence-rate": 100,
               "bands-coverage": 100, "covariate-gain": 50, "pm10-analog": 1}


def test_preset_default_reps():
    assert {name: inspect.signature(build).parameters["reps"].default
            for name, build in PRESETS.items()} == PRESET_REPS


@pytest.fixture
def no_replications(monkeypatch):
    """Replications run through _run_replications; record any call and run nothing."""
    calls = []
    monkeypatch.setattr(experiments, "_run_replications", lambda reps, worker: calls.append(reps))
    return calls


@pytest.mark.parametrize("preset", sorted(PRESET_REPS))
def test_benchmark_rejects_unknown_keys_before_running(no_replications, preset):
    keys = sorted(inspect.signature(PRESETS[preset]).parameters.keys() - {"reps", "seed"})
    with pytest.raises(ValueError) as err:
        run_benchmark(preset, reps=1, seed=1, bogus=1, n_dayz=2)
    assert str(err.value) == (f"preset {preset!r} has no key 'bogus', 'n_dayz'; "
                              f"its keys are {keys}")
    assert no_replications == []


@pytest.mark.parametrize("preset, key, value, kind", [
    ("order-selection", "kappa", 0.5, "list"),
    ("bands-coverage", "alpha", "high", "number"),
    ("psi1-ratio", "n", True, "number"),
    ("equivalence-rate", "ns", "100", "list"),
    ("fma-farma", "kind", 1, "str"),
])
def test_benchmark_rejects_overrides_of_another_kind(no_replications, preset, key, value, kind):
    with pytest.raises(ValueError, match=f"key {key!r} takes a {kind} like its default"):
        run_benchmark(preset, reps=1, seed=1, **{key: value})
    assert no_replications == []


def test_method_dict_rejects_unknown_keys_before_running(no_replications):
    config = tiny_config(methods=[{"name": "covariate", "p": 1, "d": 2, "solvr": "blp"}])
    with pytest.raises(ValueError) as err:
        run_forecast_experiment(config)
    assert str(err.value) == ("method 'covariate' has no key 'solvr'; its keys are "
                              "name, label, p, d, p_max, d_max, pve, solver")
    assert no_replications == []


@pytest.mark.parametrize("source", [
    {"type": "process", "spec": SPEC_PAYLOAD},
    {"type": "kappa-far", "kappa": [0.5], "D": 3},
    {"type": "covariate-far1"},
])
def test_simulated_source_needs_n_before_running(no_replications, source):
    config = tiny_config(source=source)
    del config["n"]
    with pytest.raises(ValueError, match=f"a {source['type']!r} source needs n"):
        run_forecast_experiment(config)
    assert no_replications == []


@pytest.mark.parametrize("source, key", [
    ({"type": "kappa-far", "kappa": 0.5, "D": 3}, "kappa"),
    ({"type": "kappa-far", "D": 3}, "kappa"),
    ({"type": "kappa-far", "kappa": [], "D": 3}, "kappa"),
    ({"type": "farma", "theta_scales": 0.5, "D": 3}, "theta_scales"),
    ({"type": "farma", "theta_scales": [0.1, 0.2, 0.3], "D": 3}, "theta_scales"),
])
def test_source_list_values_are_checked_before_running(no_replications, source, key):
    with pytest.raises(ValueError, match=f"source key {key!r} must list"):
        run_forecast_experiment(tiny_config(source=source))
    assert no_replications == []


@pytest.mark.parametrize("source, key", [
    ({"type": "farma", "kappa": [0.1], "D": 3}, "kappa"),
    ({"type": "fma", "theta_scale": [0.8], "D": 3}, "theta_scale"),
    ({"type": "kappa-far", "kappa": [0.5], "D": [3]}, "D"),
    ({"type": "kappa-far", "kappa": [0.5], "D": 3, "burn_in": [3]}, "burn_in"),
])
def test_source_scalar_values_are_checked_before_running(no_replications, source, key):
    with pytest.raises(ValueError, match=f"source key {key!r} must be one finite"):
        run_forecast_experiment(tiny_config(source=source))
    assert no_replications == []


@pytest.mark.parametrize("kind", ["covariate-far1", "kappa-far"])
def test_negative_burn_in_is_rejected_before_running(no_replications, kind):
    # a negative burn-in used to cut a covariate-far1 sample short without an error
    with pytest.raises(ValueError, match="source key 'burn_in' must be >= 0, got -150"):
        run_forecast_experiment(tiny_config(source={"type": kind, "kappa": [0.5], "D": 3,
                                                    "burn_in": -150}))
    assert no_replications == []


def records_bytes(report):
    return json.dumps(report.replications, sort_keys=True).encode()


CHUNKED_RUNS = {
    "run_forecast_experiment": lambda: run_forecast_experiment(tiny_config(
        source={"type": "kappa-far", "kappa": [0.3, 0.2], "D": 4}, reps=17,
        methods=[{"name": "ffpe-var", "p_max": 2, "d_max": 3}])),
    "order-selection": lambda: run_benchmark("order-selection", reps=17, seed=3, n=60, D=5,
                                             grid_T=48, p_max=2, d_max=3),
    "bands-coverage": lambda: run_benchmark("bands-coverage", reps=17, seed=3, n=60,
                                            grid_T=32, L=30),
}


@pytest.mark.parametrize("run", sorted(CHUNKED_RUNS))
def test_records_do_not_depend_on_chunks_or_workers(monkeypatch, run):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    seen = set()
    for chunk in (1, 7, 16):
        monkeypatch.setattr(experiments, "CHUNK", chunk)
        for workers in ("1", "2"):
            monkeypatch.setenv(THREADS_ENV, workers)
            seen.add(records_bytes(CHUNKED_RUNS[run]()))
    assert len(seen) == 1


def test_a_chunk_steps_its_recursions_together(monkeypatch):
    widths = []
    stacked = experiments._coefficients
    monkeypatch.setattr(experiments, "_coefficients",
                        lambda specs, n, rngs: widths.append(len(specs)) or stacked(specs, n, rngs))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv(THREADS_ENV, "1")
    CHUNKED_RUNS["run_forecast_experiment"]()
    assert widths == [16, 1]
    widths.clear()
    monkeypatch.setenv(THREADS_ENV, "2")  # 17 replications on 2 workers: chunks of 9
    CHUNKED_RUNS["bands-coverage"]()
    assert sorted(widths) == [8, 9]


def test_benchmark_lists_the_preset_keys():
    with pytest.raises(ValueError, match=re.escape(
            "its keys are ['d_max', 'grid_T', 'n', 'p_max', 'scalar_d', 'scalar_p', 'train']")):
        run_benchmark("psi1-ratio", seed=1, foo=1)


@pytest.mark.parametrize("reps", [0, -2])
@pytest.mark.parametrize("preset", sorted(PRESET_REPS))
def test_benchmark_rejects_reps_below_one(no_replications, preset, reps):
    with pytest.raises(ValueError, match=f"reps must be >= 1, got {reps}"):
        run_benchmark(preset, reps=reps, seed=1)
    assert no_replications == []


def test_ratio_preset_small():
    report = run_benchmark(
        "psi1-ratio", reps=2, seed=4, n=40, train=36, grid_T=32, p_max=2, d_max=2
    )
    assert report.command == "benchmark:psi1-ratio"
    ratio = report.aggregates["ratio"]
    assert set(ratio) == {"median", "frac_below_one"}
    assert 0.0 <= ratio["frac_below_one"] <= 1.0


def test_order_selection_preset_small():
    report = run_benchmark(
        "order-selection", reps=2, seed=4, n=60, D=5, grid_T=48, p_max=2, d_max=3
    )
    assert report.command == "benchmark:order-selection"
    assert sum(report.frequencies["ffpe-var"].values()) == 2
    assert report.aggregates == {}


def test_far2_table_preset_small():
    report = run_benchmark(
        "far2-table", reps=1, seed=4, n=60, D=5, grid_T=48, p_max=2, d_max=3,
        kappa=(0.4, 0.4),
    )
    assert {"ffpe-var", "bosq"} <= set(report.aggregates)
    assert report.aggregates["bosq"]["mse"] > 0.0


def test_fma_farma_preset_small():
    report = run_benchmark(
        "fma-farma", reps=2, seed=4, n=60, D=5, grid_T=48, p_max=3, d_max=3
    )
    comp = report.aggregates["comparison"]
    assert set(comp) == {"frac_ffpe_wins", "mean_selected_p"}
    with pytest.raises(ValueError, match="kind"):
        run_benchmark("fma-farma", reps=1, seed=4, kind="arma")


def test_equivalence_rate_preset_small():
    report = run_benchmark("equivalence-rate", reps=2, seed=4, ns=(30, 60), grid_T=48)
    medians = report.aggregates["median_gap"]
    assert list(medians) == ["30", "60"]
    assert all(v > 0.0 for v in medians.values())
    assert len(report.replications) == 4


def test_bands_coverage_preset_small():
    # a numpy integer passes for the number n defaults to
    report = run_benchmark("bands-coverage", reps=2, seed=4, n=np.int64(80), grid_T=48, L=40)
    assert 0.0 <= report.aggregates["coverage"] <= 1.0
    assert 0.0 <= report.aggregates["min_in_sample_coverage"] <= 1.0


def test_covariate_gain_preset_small():
    report = run_benchmark("covariate-gain", reps=2, seed=4, n=60, train=50, grid_T=32)
    assert 0.0 <= report.aggregates["frac_improved"] <= 1.0


def test_pm10_preset_single_replication(tmp_path):
    report = run_benchmark(
        "pm10-analog", seed=4, n_days=42, eval_days=5, out_dir=str(tmp_path),
        p_max=1, d_max=2,
    )
    assert report.config["synthetic_analog"] is True
    assert os.path.isfile(report.config["curves_csv"])
    assert os.path.isfile(report.config["covariates_csv"])
    assert {"ffpe-var", "covariate"} <= set(report.aggregates)
    assert len(report.replications[0]["errors"]["covariate"]) == 5
    with pytest.raises(ValueError, match="single"):
        run_benchmark("pm10-analog", reps=2, seed=4)


def test_preset_reruns_are_identical():
    a = run_benchmark("order-selection", reps=2, seed=9, n=60, D=5, grid_T=48,
                      p_max=2, d_max=3)
    b = run_benchmark("order-selection", reps=2, seed=9, n=60, D=5, grid_T=48,
                      p_max=2, d_max=3)
    assert a.replications == b.replications


def test_load_numeric_csv_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(IngestError, match="no data rows"):
        load_numeric_csv(path)


def test_load_numeric_csv_rejects_nan_and_na_cells(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("x_1,x_2\n1.0,2.0\n3.0,nan\n")
    with pytest.raises(IngestError, match="row 2, column 2"):
        load_numeric_csv(path)
    # without a header an NA marker in the first row is data, not a header
    path.write_text("1.0,na\n3.0,4.0\n")
    with pytest.raises(IngestError, match="row 1, column 2"):
        load_numeric_csv(path)


def test_load_numeric_csv_rejects_blank_cells(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("x_1,x_2\n1.0,2.0\n,4.0\n")
    with pytest.raises(IngestError, match="row 2, column 1"):
        load_numeric_csv(path)


def test_pm10_preset_removes_its_temporary_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    report = run_benchmark("pm10-analog", seed=4, n_days=42, eval_days=5, p_max=1, d_max=2)
    assert len(report.replications[0]["errors"]["covariate"]) == 5
    assert list(tmp_path.iterdir()) == []
    assert report.config["curves_csv"] is None and report.config["covariates_csv"] is None


def covariate_far1(n):
    draw, _ = _source_factory({"type": "covariate-far1"}, n, Grid(32))
    return next(draw([np.random.default_rng(4)]))


def per_step_errors(data, rmat, m, h, name, p, d):
    """Out-of-sample errors from one predict_var call per origin, the batched path's oracle."""
    eig = eigensystem(FunctionalDataset(grid=data.grid, values=data.values[:m]), d)
    s_all = scores(data, eig).scores
    if name == "scalar":
        models = [fit_var_ols(s_all[:m, j : j + 1], p) for j in range(d)]
    elif name == "covariate":
        model = fit_varx_ols(s_all[:m], rmat[:m], p)
    else:
        model = fit_var_ols(s_all[:m], p)
    errors = []
    for t in range(m, data.n):
        hist = s_all[max(0, t - h - max(p, 1) + 1) : t - h + 1]
        if name == "scalar":
            pred = np.array(
                [predict_var(mod, hist[:, j : j + 1], h)[0] for j, mod in enumerate(models)]
            )
        elif name == "covariate":
            pred = predict_var(model, hist, 1, covariate=rmat[t - 1])
        else:
            pred = predict_var(model, hist, h)
        diff = data.values[t] - (eig.mean + pred @ eig.eigenfunctions)
        errors.append(float(diff @ diff) / data.T)
    return errors


@pytest.mark.parametrize(
    "name, h",
    [("fixed-var", 1), ("fixed-var", 2), ("scalar", 1), ("scalar", 2), ("covariate", 1)],
)
@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_batched_errors_match_per_step_predictions(name, h, p):
    data, rmat = covariate_far1(160)
    out = _eval_method_fixed(data, rmat, 120, h, {"name": name, "p": p, "d": 3})
    want = per_step_errors(data, rmat, 120, h, name, p, 3)
    np.testing.assert_allclose(out["errors"], want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("p", [1, 2])
def test_batched_benchmark_errors_match_per_step_predictions(p):
    data, _ = covariate_far1(160)
    T = data.T
    blocks = np.hstack([data.values[p - 1 - j : 120 - j] for j in range(p)])
    train = FunctionalDataset(grid=Grid(p * T), values=blocks)
    eig = eigensystem(train, 3)
    s_tr = scores(train, eig).scores
    op = (s_tr[1:].T @ s_tr[:-1] / (s_tr.shape[0] - 1)) / eig.eigenvalues[None, :]
    want = []
    for t in range(120, data.n):
        x = np.concatenate([data.values[t - 1 - j] for j in range(p)])
        pred = op @ ((x - eig.mean) @ eig.eigenfunctions.T / (p * T))
        diff = data.values[t] - (eig.mean + pred @ eig.eigenfunctions)[:T]
        want.append(float(diff @ diff) / T)
    out = _eval_method_fixed(data, None, 120, 1, {"name": "bosq", "p": p, "d": 3})
    np.testing.assert_allclose(out["errors"], want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("h, p, rows", [(5, 2, 1), (13, 1, 0)])
def test_batched_errors_keep_the_short_history_error(h, p, rows):
    # the first origin, h steps before curve 5, holds 5 - h + 1 rows of history; a
    # horizon beyond the training set must not wrap around to the last rows
    data, _ = covariate_far1(12)
    with pytest.raises(InsufficientDataError, match=f"p={p} history rows, got {rows}"):
        _eval_method_fixed(data, None, 5, h, {"name": "fixed-var", "p": p, "d": 1})
