import inspect
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from curvecast import (
    FunctionalDataset,
    Grid,
    IngestError,
    InsufficientDataError,
    ProcessSpec,
    ResolutionError,
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
from curvecast.simulate import random_operator, sigma_scheme

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
    for raw in ("", "0", "-3", "soon"):  # these used to mean 1 worker without a word
        monkeypatch.setenv(THREADS_ENV, raw)
        with pytest.raises(ValueError, match=re.escape(f"FTSP_THREADS must be an integer >= 1, "
                                                       f"got {raw!r}")):
            _worker_count()


@pytest.mark.parametrize(
    "cpus, raw, expected",
    [(2, "4", 2), (2, "2", 2), (8, "3", 3), (3, "64", 3), (None, "4", 1), (1, "2", 1),
     (4, "0", ValueError), (4, "", ValueError), (4, "many", ValueError)],
)
def test_worker_count_is_capped_at_the_cpu_count(monkeypatch, cpus, raw, expected):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setenv(THREADS_ENV, raw)
    if expected is ValueError:  # not a worker count: these used to fall back to 1 worker
        with pytest.raises(ValueError, match=THREADS_ENV):
            _worker_count()
        return
    assert _worker_count() == expected


def test_a_bad_worker_count_fails_before_any_replication(monkeypatch, no_replications):
    monkeypatch.setenv(THREADS_ENV, "soon")
    with pytest.raises(ValueError, match="FTSP_THREADS must be an integer >= 1, got 'soon'"):
        run_forecast_experiment(tiny_config())
    assert no_replications == []


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


@pytest.mark.parametrize("fit_mode", ["expanding", "both", None])
def test_fit_mode_takes_only_fixed(request, fit_mode):
    if fit_mode is None:  # None counts as absent, so the default 'fixed' runs
        assert records_bytes(run_forecast_experiment(tiny_config(fit_mode=None))) == records_bytes(
            run_forecast_experiment(tiny_config()))
        return
    no_replications = request.getfixturevalue("no_replications")
    message = f"config key 'fit_mode' must be one of 'fixed', got {fit_mode!r}"
    with pytest.raises(ValueError, match=message):
        run_forecast_experiment(tiny_config(fit_mode=fit_mode))
    assert no_replications == []


def test_file_source_reproduces_process_run(tmp_path):
    process = run_forecast_experiment(tiny_config(reps=1, seed=5))
    spec = ProcessSpec.from_json(json.dumps(SPEC_PAYLOAD))
    data = simulate(spec, 40, Grid(32), np.random.default_rng([5, 0]))
    path = tmp_path / "curves.csv"
    save_curves_csv(data, path)
    file_run = run_forecast_experiment(  # a file source takes no n or grid_T
        tiny_config(source={"type": "file", "path": str(path)}, reps=1, seed=5, n=None, grid_T=None)
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


def test_a_file_source_runs_without_seed(tmp_path, monkeypatch):
    # a file source draws nothing, so it needs no seed, and without one no generator is made; a
    # given seed is echoed in the config and the records as before
    path = tmp_path / "curves.csv"
    save_curves_csv(simulate(ProcessSpec.from_json(json.dumps(SPEC_PAYLOAD)), 40, Grid(32),
                             np.random.default_rng(5)), path)
    made = []
    monkeypatch.setattr(experiments, "_rep_rng", lambda *args: made.append(args) or _rep_rng(*args))
    config = tiny_config(source={"type": "file", "path": str(path)}, reps=1, n=None, grid_T=None)
    unseeded = run_forecast_experiment({**config, "seed": None})
    assert made == []
    seeded = run_forecast_experiment(config)
    assert unseeded.replications[0]["errors"] == seeded.replications[0]["errors"]
    assert unseeded.config["seed"] is None and seeded.config["seed"] == 11
    assert [unseeded.replications[0]["seed"], seeded.replications[0]["seed"]] == [[None, 0], [11, 0]]
    simulated = tiny_config()
    del simulated["seed"]
    with pytest.raises(ValueError, match="^config needs key 'seed'$"):
        run_forecast_experiment(simulated)


def test_pm10_analog_files(tmp_path):
    curves_path, cov_path = make_pm10_analog(tmp_path, n_days=42, seed=3)
    lines = Path(curves_path).read_text().splitlines()
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
    body = "".join(Path(curves_path).read_text().splitlines()[1:])
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
    keys = ["seed", *(key for key in inspect.signature(PRESETS[preset]).parameters if key != "seed")]
    with pytest.raises(ValueError) as err:
        run_benchmark(preset, reps=1, seed=1, bogus=1, n_dayz=2)
    assert str(err.value) == (f"preset {preset!r} has no key 'bogus'; "
                              f"its keys are {', '.join(keys)}")
    assert no_replications == []


# the kind of the default names the case; the message says what the key must be
MUSTS = {"list": "list one or more", "number": "be one finite", "str": "be a str"}


@pytest.mark.parametrize("preset, key, value, kind", [
    ("order-selection", "kappa", 0.5, "list"),
    ("bands-coverage", "alpha", "high", "number"),
    ("psi1-ratio", "n", True, "number"),
    ("equivalence-rate", "ns", "100", "list"),
    ("fma-farma", "kind", 1, "str"),
])
def test_benchmark_rejects_overrides_of_another_kind(no_replications, preset, key, value, kind):
    with pytest.raises(ValueError, match=f"key {key!r} must {MUSTS[kind]}"):
        run_benchmark(preset, reps=1, seed=1, **{key: value})
    assert no_replications == []


# a case whose message changed keeps its id, which reads the message it had before
@pytest.mark.parametrize("preset, key, value, message", [
    pytest.param("bands-coverage", "n", 100.5, "must be one finite int, got 100.5",
                 id="bands-coverage-n-100.5-takes integers like its default 400, got 100.5"),
    pytest.param("bands-coverage", "L", "abc", "must be one finite int, got 'abc'",
                 id="bands-coverage-L-abc-takes an integer or null, got 'abc'"),
    pytest.param("bands-coverage", "L", 100.5, "must be one finite int, got 100.5",
                 id="bands-coverage-L-100.5-takes an integer or null, got 100.5"),
    pytest.param("pm10-analog", "out_dir", 5, "must be a str, got 5",
                 id="pm10-analog-out_dir-5-takes a str or null, got 5"),
    pytest.param("equivalence-rate", "ns", [40.7], "must list one or more integers, got [40.7]",
                 id="equivalence-rate-ns-value4-takes integers like its default (100, 200, 400, 800)"),
    pytest.param("far2-table", "bosq_p", 1.5, "must be one finite int, got 1.5",
                 id="far2-table-bosq_p-1.5-takes integers like its default 1, got 1.5"),
    pytest.param("far2-table", "train", 100.5,
                 "must be a fraction in (0, 1) or an integer count, got 100.5",
                 id="far2-table-train-100.5-takes a fraction in (0, 1) or an integer count, got 100.5"),
])
def test_benchmark_overrides_keep_their_default_type(no_replications, preset, key, value, message):
    # each of these used to end in a traceback or run with its value truncated
    with pytest.raises(ValueError, match=re.escape(f"preset {preset!r} key {key!r} {message}")):
        run_benchmark(preset, reps=1, seed=1, **{key: value})
    assert no_replications == []


@pytest.mark.parametrize("preset, overrides", [
    ("bands-coverage", {"n": 400, "alpha": 0.8, "p": 1, "d": 3}),  # as perfbench's band-calibrate
    ("bands-coverage", {"n": np.int64(80), "L": 40}),
    ("bands-coverage", {"L": None}),  # None counts as absent: the preset keeps its default
    ("pm10-analog", {"out_dir": "here", "n_days": 42.0}),
    ("equivalence-rate", {"ns": [30, 60.0]}),
    ("far2-table", {"train": 0.5, "kappa": [0.4, 0.4], "bosq_pve": 1}),
    ("psi1-ratio", {"train": 150}),
    ("psi1-ratio", {"reps": 2.0}),
])
def test_benchmark_overrides_of_the_default_type_reach_the_preset(monkeypatch, preset, overrides):
    monkeypatch.setitem(PRESETS, preset, lambda **kwargs: kwargs)
    given = {key: value for key, value in overrides.items() if value is not None}
    assert run_benchmark(preset, seed=1, **overrides) == {"seed": 1, **given}


@pytest.mark.parametrize("preset, overrides, key, value", [
    ("order-selection", {"n": 60, "D": 5, "grid_T": 48, "p_max": 2, "d_max": 3.0}, "d_max", 3),
    ("pm10-analog", {"n_days": 60.0, "eval_days": 10.0}, "n_days", 60),
    ("bands-coverage", {"n": np.int64(80), "L": 40, "grid_T": 32}, "n", 80),
])
def test_benchmark_integer_keys_reach_the_preset_as_ints(preset, overrides, key, value):
    # these used to end in a TypeError inside the first replication or in to_json
    report = run_benchmark(preset, seed=1, reps=1, **overrides)
    config = json.loads(report.to_json())["config"]
    assert config[key] == value and type(config[key]) is int


def test_benchmark_rejects_an_empty_list_before_running(no_replications):
    # this used to run an equivalence-rate study of no replications
    with pytest.raises(ValueError, match=re.escape(
            "preset 'equivalence-rate' key 'ns' must list one or more integers, got []")):
        run_benchmark("equivalence-rate", seed=1, reps=1, ns=[])
    assert no_replications == []


@pytest.mark.parametrize("preset", sorted(PRESET_REPS))
def test_each_preset_rule_table_lists_its_signature(preset):
    # a new preset key cannot skip the parser: its table is read from the signature
    keys = inspect.signature(PRESETS[preset]).parameters.keys()
    assert set(experiments._PRESET_RULES[preset]) == keys | {"seed", "reps"}


@pytest.mark.parametrize("reps, seed, message", [
    (2.5, 1.7, "preset 'order-selection' key 'seed' must be one finite int, got 1.7"),
    (2.5, 1, "preset 'order-selection' key 'reps' must be one finite int, got 2.5"),
    (True, 1, "preset 'order-selection' key 'reps' must be one finite int, got True"),
    (1, "3", "preset 'order-selection' key 'seed' must be one finite int, got '3'"),
])
def test_benchmark_reps_and_seed_are_integers(no_replications, reps, seed, message):
    # these used to run truncated: 2 replications with seed 1, 1 replication, seed 3
    with pytest.raises(ValueError, match=re.escape(message)):
        run_benchmark("order-selection", reps=reps, seed=seed, n=60, D=5, grid_T=48, p_max=2,
                      d_max=3)
    assert no_replications == []


# a case whose message changed keeps its id, which reads the message it had before
@pytest.mark.parametrize("preset, overrides, message", [
    pytest.param("bands-coverage", {"p": -1}, "preset 'bands-coverage' key 'p' must be >= 0, got -1",
                 id="bands-coverage-overrides0-order p must be >= 0, got -1"),
    ("bands-coverage", {"L": 5}, "L=5 below the warm-up floor max(p, 10*d)=30"),
    pytest.param("bands-coverage", {"d": 0}, "preset 'bands-coverage' key 'd' must be >= 1, got 0",
                 id="bands-coverage-overrides2-dimension d must be >= 1, got 0"),
    ("bands-coverage", {"n": 30}, "L=30 leaves fewer than two of n=30 curves"),
    pytest.param("order-selection", {"p_max": -1},
                 "preset 'order-selection' key 'p_max' must be >= 0, got -1",
                 id="order-selection-overrides4-need p_max >= 0 and d_max >= 1, got -1, 10"),
    pytest.param("order-selection", {"d_max": 0},
                 "preset 'order-selection' key 'd_max' must be >= 1, got 0",
                 id="order-selection-overrides5-need p_max >= 0 and d_max >= 1, got 3, 0"),
    pytest.param("psi1-ratio", {"p_max": -1}, "preset 'psi1-ratio' key 'p_max' must be >= 0, got -1",
                 id="psi1-ratio-overrides6-need p_max >= 0 and d_max >= 1, got -1, 3"),
    pytest.param("pm10-analog", {"p_max": -1}, "preset 'pm10-analog' key 'p_max' must be >= 0, got -1",
                 id="pm10-analog-overrides7-need p_max >= 0 and d_max >= 1, got -1, 4"),
    pytest.param("equivalence-rate", {"d": 0}, "preset 'equivalence-rate' key 'd' must be >= 1, got 0",
                 id="equivalence-rate-overrides8-dimension d must be >= 1, got 0"),
])
def test_preset_values_are_checked_before_running(no_replications, preset, overrides, message):
    # each of these used to fail only inside the first replication
    with pytest.raises(ValueError, match=re.escape(message)):
        run_benchmark(preset, reps=1, seed=1, **overrides)
    assert no_replications == []


@pytest.mark.parametrize("preset, key, value, rule", [
    ("far2-table", "bosq_p", 0, "be >= 1"),
    ("order-selection", "D", 0, "be >= 1"),
    ("psi1-ratio", "scalar_d", 0, "be >= 1"),
    ("far2-table", "sigma", "s3", "be one of 's1', 's2'"),
    ("fma-farma", "kind", "far", "be one of 'farma', 'fma'"),
    ("fma-farma", "bosq_pve", 1.5, "be in (0, 1]"),
])
def test_preset_keys_take_the_rule_of_the_key_they_feed(no_replications, preset, key, value, rule):
    # these used to fail under the method or source they feed, or inside the first replication
    with pytest.raises(ValueError) as err:
        run_benchmark(preset, seed=1, **{key: value})
    assert str(err.value) == f"preset {preset!r} key {key!r} must {rule}, got {value!r}"
    assert no_replications == []


def test_preset_kappa_takes_an_array_as_the_kappa_far_source_does():
    settings = dict(seed=3, reps=2, n=60, D=5, grid_T=48, p_max=1, d_max=2)
    want = run_benchmark("order-selection", kappa=[0.5, 0.25], **settings)
    got = run_benchmark("order-selection", kappa=np.array([0.5, 0.25], dtype=np.float32), **settings)
    assert json.loads(got.to_json())["config"] == json.loads(want.to_json())["config"]
    assert records_bytes(got) == records_bytes(want)


TWO_DAYS_EACH = "be >= 14, two days of each weekday"


@pytest.mark.parametrize("preset, overrides, message", [
    ("bands-coverage", {"alpha": 1.5}, "'alpha' must be in (0, 1), got 1.5"),
    ("bands-coverage", {"alpha": 0.0}, "'alpha' must be in (0, 1), got 0.0"),
    ("pm10-analog", {"n_days": 40, "eval_days": 0}, "'eval_days' must be in 1..n_days - 4 = 36, got 0"),
    ("pm10-analog", {"n_days": 40, "eval_days": 40}, "'eval_days' must be in 1..n_days - 4 = 36, got 40"),
    ("pm10-analog", {"n_days": 40, "eval_days": 39}, "'eval_days' must be in 1..n_days - 4 = 36, got 39"),
    ("equivalence-rate", {"ns": [2]}, "'ns' must hold integers >= d + 2 = 5, got [2]"),
    ("equivalence-rate", {"ns": [100, 4]}, "'ns' must hold integers >= d + 2 = 5, got [100, 4]"),
    # fewer days leave a weekday with one day, which its weekday mean subtracts from itself
    ("pm10-analog", {"n_days": 5, "eval_days": 1}, f"'n_days' must {TWO_DAYS_EACH}, got 5"),
    ("pm10-analog", {"n_days": 13}, f"'n_days' must {TWO_DAYS_EACH}, got 13"),
])
def test_preset_bounds_are_checked_before_running(no_replications, preset, overrides, message):
    # these used to start a replication and fail inside it without naming the key
    with pytest.raises(ValueError) as err:
        run_benchmark(preset, reps=1, seed=1, **overrides)
    assert str(err.value) == f"preset {preset!r} key {message}"
    assert no_replications == []


@pytest.mark.parametrize("key, value, message", [
    ("reps", 2.5, "config key 'reps' must be one finite int, got 2.5"),
    ("reps", True, "config key 'reps' must be one finite int, got True"),
    ("n", 120.7, "config key 'n' must be one finite int, got 120.7"),
    ("n", 10**400, "config key 'n' must be one finite int, got 1000"),
    ("grid_T", 32.9, "config key 'grid_T' must be one finite int, got 32.9"),
    ("horizon", 1.5, "config key 'horizon' must be one finite int, got 1.5"),
    ("seed", 3.9, "config key 'seed' must be one finite int, got 3.9"),
    ("seed", None, "config key 'seed' must be one finite int, got None"),
    ("train", 100.5, "config key 'train' must be a fraction in (0, 1) or an integer count, "
                     "got 100.5"),
    ("train", "0.9", "config key 'train' must be a fraction in (0, 1) or an integer count"),
    ("source", {"type": "process", "spec": {**SPEC_PAYLOAD, "D": 3.7}},
     "process spec key 'D' must be one finite int, got 3.7"),
    ("source", {"type": "kappa-far", "kappa": ["0.4"]},
     "source key 'kappa' must list one or more numbers, got ['0.4']"),
    ("source", {"type": "kappa-far", "kappa": [True, 0]},
     "source key 'kappa' must list one or more numbers, got [True, 0]"),
    ("source", {"type": "farma", "theta_scales": ["0.1", 0.5]},
     "source key 'theta_scales' must list 2 numbers, got ['0.1', 0.5]"),
    # and these raised a bare AttributeError or TypeError
    ("source", "kappa-far", "config key 'source' must be a dict, got 'kappa-far'"),
    pytest.param("methods", {"name": "fixed-var", "p": 1, "d": 2},
                 "config key 'methods' must be a list of one or more method dicts, got "
                 "{'name': 'fixed-var'", id="methods-value15-config key 'methods' must be a list "
                 "of method dicts, got {'name': 'fixed-var'"),
    pytest.param("methods", ["fixed-var"], "config key 'methods' must be a list of one or more "
                 "method dicts, got ['fixed-var']", id="methods-value16-config key 'methods' must "
                 "be a list of method dicts, got ['fixed-var']"),
    pytest.param("methods", None, "config key 'methods' must be a list of one or more method "
                 "dicts, got None", id="methods-None-config key 'methods' must be a list of method "
                 "dicts, got None"),
    # and these raised a bare TypeError or AttributeError
    ("source", {"type": ["kappa-far"]}, "source key 'type' must be a str, got ['kappa-far']"),
    ("source", {"type": "process", "spec": [1]}, "a 'process' source key 'spec' must be a dict, "
                                                  "got [1]"),
    # this read 'horizon must be >= 1, got 0', naming no config
    ("horizon", 0, "config key 'horizon' must be >= 1, got 0"),
])
def test_config_numbers_are_checked_before_running(no_replications, key, value, message):
    # each of these used to run with its value truncated
    source = {"type": "kappa-far", "kappa": [0.5], "D": 3}
    with pytest.raises(ValueError, match=re.escape(message)):
        run_forecast_experiment(tiny_config(**{"source": source, key: value}))
    assert no_replications == []


def test_config_numbers_may_be_whole_floats_or_absent():
    config = tiny_config(reps=2.0, n=40.0, grid_T=32.0, train=36.0, horizon=None, seed=11.0)
    assert records_bytes(run_forecast_experiment(config)) == records_bytes(
        run_forecast_experiment(tiny_config()))


@pytest.mark.parametrize("method, message", [
    ({"name": "fixed-var", "p": 1.5, "d": 2}, "method 'fixed-var' key 'p' must be one finite int, "
                                              "got 1.5"),
    ({"name": "fixed-var", "p": "1", "d": 2}, "method 'fixed-var' key 'p' must be one finite int"),
    ({"name": "bosq", "pve": "0.8"}, "method 'bosq' key 'pve' must be one finite float, got '0.8'"),
    ({"name": "bosq", "pve": 1.5, "label": "b"}, "method 'b' key 'pve' must be in (0, 1], got 1.5"),
    ({"name": "ffpe-var", "p_max": "2", "d_max": 3}, "method 'ffpe-var' key 'p_max' must be one "
                                                     "finite int, got '2'"),
    ({"name": "ffpe-var", "p_max": 2.5, "d_max": 3}, "key 'p_max' must be one finite int, got 2.5"),
    pytest.param({"name": "covariate", "p": 1, "d": 2, "solver": "lasso"},
                 "method 'covariate' key 'solver' must be one of 'ols', 'blp', got 'lasso'",
                 id="method6-solver must be 'ols' or 'blp', got 'lasso'"),
    pytest.param({"name": "bosq", "p": 0, "d": 2}, "method 'bosq' key 'p' must be >= 1, got 0",
                 id="method7-p must be >= 1, got 0"),
    ({"name": "scalar", "p": 1}, "scalar forecasting needs p and d"),
    ({"name": "fixed-var", "p": 1, "d_max": 2}, "pass exactly one of (p, d) or (p_max, d_max)"),
    ({"name": "covariate", "p": 1, "d": 2, "p_max": 1, "d_max": 2},
     "pass exactly one of (p, d) or (p_max, d_max)"),
    # a stray half of the other pair raised a KeyError or was ignored
    ({"name": "fixed-var", "p": 1, "d": 2, "p_max": 3}, "pass exactly one of (p, d) or (p_max, "
                                                         "d_max)"),
    ({"name": "fixed-var", "p": 1, "d": 2, "d_max": 3}, "pass exactly one of (p, d) or (p_max, "
                                                         "d_max)"),
    pytest.param({"name": "fixed-var", "p": -1, "d": 2},
                 "method 'fixed-var' key 'p' must be >= 0, got -1",
                 id="method13-order p must be >= 0, got -1"),
    pytest.param({"name": "scalar", "p": 1, "d": 0}, "method 'scalar' key 'd' must be >= 1, got 0",
                 id="method14-dimension d must be >= 1, got 0"),
    pytest.param({"name": "ffpe-var", "p_max": -1, "d_max": 2},
                 "method 'ffpe-var' key 'p_max' must be >= 0, got -1",
                 id="method15-need p_max >= 0 and d_max >= 1, got -1, 2"),
    pytest.param({"name": "ffpe-var", "p_max": 1, "d_max": 0},
                 "method 'ffpe-var' key 'd_max' must be >= 1, got 0",
                 id="method16-need p_max >= 0 and d_max >= 1, got 1, 0"),
    ({"name": "fixed-var", "p": 1, "d": 2, "label": ["x"]},
     "method ['x'] key 'label' must be a str, got ['x']"),
    # this one raised a bare TypeError
    ({"name": ["fixed-var"], "p": 1, "d": 2},
     "method ['fixed-var'] key 'name' must be a str, got ['fixed-var']"),
])
def test_method_values_are_checked_before_running(no_replications, method, message):
    # these used to be truncated, accepted as strings or raised inside the first replication
    with pytest.raises(ValueError, match=re.escape(message)):
        run_forecast_experiment(tiny_config(methods=[method]))
    assert no_replications == []


def test_method_dict_rejects_unknown_keys_before_running(no_replications):
    config = tiny_config(methods=[{"name": "covariate", "p": 1, "d": 2, "solvr": "blp"}])
    with pytest.raises(ValueError) as err:
        run_forecast_experiment(config)
    assert str(err.value) == ("method 'covariate' has no key 'solvr'; its keys are "
                              "name, label, p, d, p_max, d_max, pve, solver")
    assert no_replications == []


@pytest.mark.parametrize("key, change", [
    ("methods", lambda config: config.pop("methods")),
    ("source", lambda config: config.pop("source")),
    ("path", lambda config: config.update(source={"type": "file"}, reps=1)),
    ("spec", lambda config: config.update(source={"type": "process"})),
    ("kappa", lambda config: config.update(source={"type": "kappa-far", "D": 3})),
])
def test_missing_required_keys_are_named_before_running(no_replications, key, change):
    config = tiny_config()
    change(config)
    with pytest.raises(ValueError, match=f"needs key {key!r}$"):
        run_forecast_experiment(config)
    assert no_replications == []


@pytest.mark.parametrize("change, message", [
    ({"horizn": 3}, "config has no key 'horizn'; its keys are source, n, grid_T, train, "
                    "horizon, fit_mode, methods, seed, reps"),
    ({"trian": 0.5}, "config has no key 'trian'"),
    ({"source": {"type": "kappa-far", "kappa": [0.5], "D": 3, "sigma_schem": "s2"}},
     "a 'kappa-far' source has no key 'sigma_schem'; its keys are type, kappa, D, "
     "sigma_scheme, burn_in"),
    ({"source": {"type": "process", "spec": SPEC_PAYLOAD, "burn_in": 10}},
     "a 'process' source has no key 'burn_in'; its keys are type, spec"),
    ({"methods": [{"name": "bosq", "p_max": 2, "d_max": 2}]},
     "method 'bosq' has no key 'd_max'; its keys are name, label, p, d, pve"),
    ({"methods": [{"name": "fixed-var", "p": 1, "d": 2, "pve": 0.9}]},
     "method 'fixed-var' has no key 'pve'; its keys are name, label, p, d, p_max, d_max"),
    ({"methods": [{"name": "fixed-var", "p": 1, "d": 2, "solver": "ols", "label": "v"}]},
     "method 'v' has no key 'solver'"),
    ({"methods": [{"name": "scalar", "p_max": 2, "d_max": 2}]},
     "method 'scalar' has no key 'd_max'; its keys are name, label, p, d"),
])
def test_keys_nothing_reads_are_rejected_before_running(no_replications, change, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run_forecast_experiment(tiny_config(**change))
    assert no_replications == []


def test_absent_values_do_not_count_as_keys():
    # None marks a key as absent, as the Python predictors and the CLI pass it
    methods = [{"name": "fixed-var", "p": 1, "d": 2, "pve": None, "solver": None}]
    report = run_forecast_experiment(tiny_config(methods=methods))
    assert report.replications == run_forecast_experiment(tiny_config()).replications


@pytest.mark.parametrize("source", [
    {"type": "kappa-far", "kappa": [0.5], "D": 3},
    {"type": "process", "spec": SPEC_PAYLOAD},
    {"type": "fma", "D": 3},
    {"type": "farma", "D": 3},
    {"type": "file", "path": "curves.csv"},
    {"type": "file", "path": "missing.csv"},
])
def test_covariate_method_needs_a_source_with_covariates(no_replications, tmp_path, monkeypatch,
                                                          source):
    # this used to fail inside the first replication, once its curves were simulated, and a
    # file source read its files first, so a missing one raised FileNotFoundError instead
    monkeypatch.chdir(tmp_path)
    save_curves_csv(simulate(ProcessSpec.from_json(json.dumps(SPEC_PAYLOAD)), 40, Grid(32),
                             np.random.default_rng(0)), "curves.csv")
    methods = [{"name": "fixed-var", "p": 1, "d": 2},
               {"name": "covariate", "label": "with-x", "p": 1, "d": 2}]
    config = tiny_config(source=source, methods=methods, reps=2)
    if source["type"] == "file":  # a file fixes the sample, its size and its grid
        config.update(reps=1, n=None, grid_T=None)
    with pytest.raises(ValueError) as err:
        run_forecast_experiment(config)
    assert str(err.value) == (f"method 'with-x' needs covariates, which a {source['type']!r} source "
                              "does not give; a 'covariate-far1' source and a 'file' source with "
                              "covariates_path do")
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
    ({"type": "kappa-far", "kappa": "0.5", "D": 3}, "kappa"),
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


@pytest.mark.parametrize("key, value", [("path", 5), ("path", 0), ("covariates_path", 3)])
def test_file_source_paths_are_checked_before_reading(no_replications, tmp_path, key, value):
    # open() read an int as a file descriptor: 5 raised OSError and 0 would read stdin
    source = {"type": "file", "path": str(tmp_path / "missing.csv"), key: value}
    with pytest.raises(ValueError, match=re.escape(
            f"a 'file' source key {key!r} must be a str or os.PathLike, got {value}")):
        run_forecast_experiment(tiny_config(source=source, reps=1, n=None))
    assert no_replications == []


def test_file_source_takes_a_path_object(tmp_path):
    path = tmp_path / "curves.csv"
    save_curves_csv(simulate(ProcessSpec.from_json(json.dumps(SPEC_PAYLOAD)), 40, Grid(32),
                             np.random.default_rng(0)), path)
    config = tiny_config(reps=1, n=None, grid_T=None)
    by_path = run_forecast_experiment({**config, "source": {"type": "file", "path": path}})
    by_text = run_forecast_experiment({**config, "source": {"type": "file", "path": str(path)}})
    assert by_path.replications == by_text.replications


def test_benchmark_preset_must_be_a_name(no_replications):
    # a list used to raise a bare TypeError: unhashable type: 'list'
    with pytest.raises(ValueError, match=re.escape(
            "run_benchmark key 'preset' must be a str, got ['psi1-ratio']")):
        run_benchmark(["psi1-ratio"], seed=1)
    assert no_replications == []


@pytest.mark.parametrize("kind", ["covariate-far1", "kappa-far"])
def test_negative_burn_in_is_rejected_before_running(no_replications, kind):
    # a negative burn-in used to cut a covariate-far1 sample short without an error
    with pytest.raises(ValueError, match="source key 'burn_in' must be >= 0, got -150"):
        run_forecast_experiment(tiny_config(source={"type": kind, "kappa": [0.5], "D": 3,
                                                    "burn_in": -150}))
    assert no_replications == []


@pytest.mark.parametrize("preset", sorted(PRESET_REPS))
def test_benchmark_rejects_a_negative_seed_before_running(no_replications, preset):
    # this used to fail inside the run with numpy's "expected non-negative integer"
    with pytest.raises(ValueError, match=f"preset {preset!r} key 'seed' must be >= 0, got -1"):
        run_benchmark(preset, seed=-1)
    assert no_replications == []


def test_config_rejects_a_negative_seed_before_running(no_replications):
    with pytest.raises(ValueError, match="config key 'seed' must be >= 0, got -1"):
        run_forecast_experiment(tiny_config(seed=-1))
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
    # a covariate-far1 study: its recursions step together like every other simulated source's
    "covariate-gain": lambda: run_benchmark("covariate-gain", reps=17, seed=3, n=60, train=50,
                                            grid_T=32),
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
    assert widths == [9, 8]  # 17 replications on 1 worker: two chunks of at most 16
    widths.clear()
    monkeypatch.setenv(THREADS_ENV, "2")  # 17 replications on 2 workers: chunks of 9
    CHUNKED_RUNS["bands-coverage"]()
    assert sorted(widths) == [8, 9]


@pytest.mark.parametrize("count, workers, sizes", [
    (16, "2", [8, 8]), (1, "2", [1]), (17, "1", [9, 8]), (50, "1", [13, 13, 13, 11]),
    (50, "2", [13, 13, 13, 11]),
])
@pytest.mark.parametrize("source", [{"type": "kappa-far", "kappa": [0.3], "D": 3},
                                    {"type": "covariate-far1"}])
def test_every_source_is_chunked_by_one_rule(monkeypatch, source, count, workers, sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv(THREADS_ENV, workers)
    factory = experiments._source_factory
    seen = []

    def recording_factory(*args):
        draw = factory(*args)
        return lambda rngs: seen.append(len(rngs)) or draw(rngs)

    monkeypatch.setattr(experiments, "_source_factory", recording_factory)
    run_forecast_experiment(tiny_config(source=source, reps=count))
    assert sorted(seen, reverse=True) == sizes


def test_benchmark_lists_the_preset_keys():
    with pytest.raises(ValueError, match=re.escape(
            "its keys are seed, reps, n, train, grid_T, p_max, d_max, scalar_p, scalar_d")):
        run_benchmark("psi1-ratio", seed=1, foo=1)


@pytest.mark.parametrize("reps", [0, -2])
@pytest.mark.parametrize("preset", sorted(PRESET_REPS))
def test_benchmark_rejects_reps_below_one(no_replications, preset, reps):
    with pytest.raises(ValueError, match=f"key 'reps' must be >= 1, got {reps}"):
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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_fma_preset_draws_one_random_operator_per_replication(monkeypatch, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv(THREADS_ENV, workers)
    report = run_benchmark("fma-farma", kind="fma", reps=3, seed=5, n=60, D=5, grid_T=48,
                           p_max=2, d_max=2)
    methods = {"ffpe-var": {"name": "ffpe-var", "p_max": 2, "d_max": 2},
               "bosq": {"name": "bosq", "p": 1, "pve": 0.8}}
    for idx, rec in enumerate(report.replications):
        rng = _rep_rng(5, idx)
        sigma = sigma_scheme("s1", 5)
        psi = random_operator(5, sigma, rng)
        spec = ProcessSpec(kind="fma", D=5, sigma=sigma, ar=(), ma={2: 0.8 * psi}, burn_in=200)
        data = simulate(spec, 60, Grid(48), rng)
        outs = {key: _eval_method_fixed(data, None, 54, 1, meth) for key, meth in methods.items()}
        assert rec["errors"] == {key: out["errors"] for key, out in outs.items()}
        assert rec["selected"] == {key: out["selected"] for key, out in outs.items()}
        assert rec["criterion"] == {"ffpe-var": outs["ffpe-var"]["criterion"]}


def test_covariate_blp_runs_at_order_zero_in_a_study():
    # both used to pass every check and fail inside the first replication
    methods = [{"name": "covariate", "p": 0, "d": 2, "solver": "blp", "label": "fixed"},
               {"name": "covariate", "p_max": 0, "d_max": 2, "solver": "blp", "label": "swept"}]
    report = run_forecast_experiment(tiny_config(source={"type": "covariate-far1"}, n=60,
                                                 train=50, methods=methods))
    for rec in report.replications:
        assert rec["selected"]["fixed"]["p"] == rec["selected"]["swept"]["p"] == 0
        assert all(np.isfinite(rec["errors"]["fixed"] + rec["errors"]["swept"]))


@pytest.mark.parametrize("train", [1, 40, 0.01])
def test_training_size_is_checked_before_running(no_replications, train):
    # these used to start a replication task and fail inside it
    config = tiny_config(source={"type": "covariate-far1"}, n=40, train=train)
    with pytest.raises(ValueError, match=r"train size \d+ must satisfy 2 <= m < n=40"):
        run_forecast_experiment(config)
    assert no_replications == []


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
    draw = _source_factory({"type": "covariate-far1"}, n, Grid(32))
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


def test_config_that_is_no_dict_is_rejected(no_replications):
    # it used to read as a dict without keys: "config needs key 'seed'"
    with pytest.raises(ValueError, match=re.escape("config must be a dict, got [1]")):
        run_forecast_experiment([1])
    assert no_replications == []


SPEC_D7 = {**SPEC_PAYLOAD, "D": 7, "sigma": [1.0] * 7, "ar": [(0.5 * np.eye(7)).tolist()]}


@pytest.mark.parametrize("run", [
    lambda: run_benchmark("order-selection", seed=1, reps=1, D=7, grid_T=48),
    lambda: run_forecast_experiment(tiny_config(
        grid_T=48, source={"type": "kappa-far", "kappa": [0.5], "D": 7})),
    lambda: run_forecast_experiment(tiny_config(
        grid_T=48, source={"type": "process", "spec": SPEC_D7})),
    lambda: run_forecast_experiment(tiny_config(grid_T=16, source={"type": "covariate-far1"})),
], ids=["preset", "kappa-far", "process", "covariate-far1"])
def test_grid_too_coarse_for_a_simulated_source_fails_before_any_replication(no_replications, run):
    # the basis is built before the first draw, so no replication task starts
    with pytest.raises(ResolutionError, match="is too coarse for D="):
        run()
    assert no_replications == []


def test_config_echo_writes_numpy_scalars_as_numbers():
    # the echo used to fail on a number of a numpy integer type with a bare TypeError
    report = run_forecast_experiment(tiny_config(n=np.int64(40), reps=np.int32(2)))
    assert report.config["n"] == 40 and type(report.config["n"]) is int
    assert report.replications == run_forecast_experiment(tiny_config()).replications
