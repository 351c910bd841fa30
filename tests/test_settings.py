"""Every setting the package accepts changes its result, or is refused by a ValueError naming it.

The matrix runs a tiny study once per key of a config, a method dict and a source, with the key
set to a value other than its default, and compares the replications with those of the same
study without the change.  They must differ, or the run must raise a ValueError that names the
key before any replication runs; a file source reads its files inside the replication, so no
file is read either.  The same holds for `curvecast simulate --spec` with each process flag,
for the benchmark's d with pve, and for a dims entry given to a numeric covariate.

fit_mode is the one exempt key: it takes a single value, 'fixed', which the benchmark harness
passes, so no other value can be tried.
"""

import json
import re

import numpy as np
import pytest

from curvecast import (Grid, ProcessSpec, predict_with_covariates, run_forecast_experiment,
                       save_curves_csv, simulate)
from curvecast import cli, experiments
from curvecast.cli import main
from curvecast.experiments import _CONFIG, _SOURCES
from curvecast.forecast import _METHODS, covariate_matrix

SPEC = {"kind": "far", "D": 2, "sigma": [1.0, 0.7], "ar": [[[0.5, 0.0], [0.0, 0.4]]], "burn_in": 20}
EXEMPT = {"fit_mode": "it takes one value, 'fixed'"}


def config(**change):
    """A tiny simulated study: 2 replications of 40 curves on 32 points, one fixed VAR(1)."""
    base = {"source": {"type": "process", "spec": SPEC}, "n": 40, "grid_T": 32, "train": 36,
            "seed": 3, "reps": 2, "methods": [{"name": "fixed-var", "p": 1, "d": 2}]}
    return {**base, **change}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Two curves files of 40 curves on 32 points and two covariate files of 40 rows, by name."""
    root = tmp_path_factory.mktemp("settings")
    paths = {name: str(root / f"{name}.csv") for name in ("a", "b", "x", "y")}
    for seed, name in enumerate("ab"):
        spec = ProcessSpec.from_json(json.dumps(SPEC))
        save_curves_csv(simulate(spec, 40, Grid(32), np.random.default_rng(seed)), paths[name])
    for seed, name in enumerate("xy"):
        np.savetxt(paths[name], np.random.default_rng(seed).normal(size=(40, 2)), delimiter=",")
    return paths


@pytest.fixture
def ran(monkeypatch):
    """The replication counts of every study run since the fixture was made."""
    counts, real = [], experiments._run_replications
    monkeypatch.setattr(experiments, "_run_replications",
                        lambda reps, worker: counts.append(reps) or real(reps, worker))
    return counts


def changes_or_names(key, base, changed, ran):
    """changed's replications differ from base's, or it raises a ValueError naming key first."""
    want = run_forecast_experiment(base).replications
    ran.clear()
    try:
        got = run_forecast_experiment(changed).replications
    except ValueError as err:
        assert re.search(rf"\b{key}\b", str(err)) and "\n" not in str(err), f"{key}: {err}"
        assert ran == [], f"{key} was refused after a replication ran"
        return
    assert got != want, f"{key}={changed} gives the replications it gives unset"


# each config key but the exempt one, with a value that is not its default
CONFIG_CHANGES = {"source": {"type": "kappa-far", "kappa": [0.5], "D": 3}, "n": 50, "grid_T": 48,
                  "train": 30, "horizon": 2, "methods": [{"name": "scalar", "p": 1, "d": 2}],
                  "seed": 4, "reps": 3}
# a file fixes the sample and its grid, and is read once
FILE_CHANGES = {"n": 40, "grid_T": 32, "reps": 2, "train": 30, "horizon": 2}


def test_the_matrix_covers_every_config_key():
    assert CONFIG_CHANGES.keys() | EXEMPT.keys() == _CONFIG.keys()
    assert not CONFIG_CHANGES.keys() & EXEMPT.keys()


@pytest.mark.parametrize("key", CONFIG_CHANGES)
def test_each_config_key_changes_the_study(ran, key):
    changes_or_names(key, config(), config(**{key: CONFIG_CHANGES[key]}), ran)


@pytest.mark.parametrize("key", FILE_CHANGES)
def test_each_config_key_changes_a_file_study_or_is_refused(ran, files, key):
    base = config(source={"type": "file", "path": files["a"]}, n=None, grid_T=None, reps=1)
    changes_or_names(key, base, {**base, key: FILE_CHANGES[key]}, ran)


# each method's base dict, run on a covariate-far1 source, and a changed value of each key
METHOD_CHANGES = {
    "ffpe-var": ({"p_max": 1, "d_max": 2},
                 {"name": "covariate", "p": 1, "d": 2, "p_max": 0, "d_max": 1}),
    "fixed-var": ({"p": 1, "d": 2}, {"name": "scalar", "p": 2, "d": 3, "p_max": 1, "d_max": 2}),
    "scalar": ({"p": 1, "d": 2}, {"name": "fixed-var", "p": 2, "d": 3}),
    "bosq": ({"p": 1, "d": 2}, {"name": "fixed-var", "p": 2, "d": 3, "pve": 0.99}),
    "covariate": ({"p": 1, "d": 2}, {"name": "fixed-var", "p": 2, "d": 3, "p_max": 1, "d_max": 2,
                                     "solver": "blp"}),
}
METHOD_CASES = [(name, key) for name, (_, changes) in METHOD_CHANGES.items()
                for key in ("label", *changes)]


def test_the_matrix_covers_every_method_key():
    assert METHOD_CHANGES.keys() == _METHODS.keys()
    for name, (_, changes) in METHOD_CHANGES.items():
        assert {"label", *changes} == set(_METHODS[name][1])


@pytest.mark.parametrize("name, key", METHOD_CASES)
def test_each_method_key_changes_the_study(ran, name, key):
    base = {"name": name, "label": "m", **METHOD_CHANGES[name][0]}
    value = "other" if key == "label" else METHOD_CHANGES[name][1][key]
    study = config(source={"type": "covariate-far1"}, n=60, train=50, methods=[base])
    changes_or_names(key, study, {**study, "methods": [{**base, key: value}]}, ran)


# each source type's base source and a changed value of each key but type, which swaps
# the source for the next type's base
SOURCE_CHANGES = {
    "process": ({"spec": SPEC}, {"spec": {**SPEC, "ar": [[[0.3, 0.0], [0.0, 0.4]]]}}),
    "kappa-far": ({"kappa": [0.5], "D": 3},
                  {"kappa": [0.3], "D": 4, "sigma_scheme": "s2", "burn_in": 10}),
    "fma": ({"D": 3}, {"theta_scale": 0.5, "D": 4, "sigma_scheme": "s2", "burn_in": 10}),
    "farma": ({"D": 3}, {"kappa": 0.3, "theta_scales": [0.2, 0.5], "D": 4, "sigma_scheme": "s2",
                         "burn_in": 10}),
    "covariate-far1": ({}, {"burn_in": 10}),
    "file": ({"path": "a"}, {"path": "b", "covariates_path": "x"}),
}
SOURCE_CASES = [(kind, key) for kind, (_, changes) in SOURCE_CHANGES.items()
                for key in ("type", *changes)]


def test_the_matrix_covers_every_source_key():
    assert SOURCE_CHANGES.keys() == _SOURCES.keys()
    for kind, (_, changes) in SOURCE_CHANGES.items():
        assert {"type", *changes} == _SOURCES[kind][0].keys()


def source_study(kind, files, **change):
    """The tiny study on kind's base source with change laid over it."""
    source = {"type": kind, **SOURCE_CHANGES[kind][0], **change}
    source.update({key: files[source[key]] for key in ("path", "covariates_path") if key in source})
    if kind == "file":
        return config(source=source, n=None, grid_T=None, reps=1)
    return config(source=source)


@pytest.mark.parametrize("kind, key", SOURCE_CASES)
def test_each_source_key_changes_the_study(ran, files, kind, key):
    if key == "type":
        kinds = list(SOURCE_CHANGES)
        changed = source_study(kinds[(kinds.index(kind) + 1) % len(kinds)], files)
    else:
        changed = source_study(kind, files, **{key: SOURCE_CHANGES[kind][1][key]})
    changes_or_names(key, source_study(kind, files), changed, ran)


def test_a_covariate_method_reads_the_covariates_path(ran, files):
    base = source_study("file", files, covariates_path="x")
    base["methods"] = [{"name": "covariate", "p": 1, "d": 2}]
    changed = {**base, "source": {**base["source"], "covariates_path": files["y"]}}
    changes_or_names("covariates_path", base, changed, ran)


# each process flag of simulate with a value that is not its default
FLAG_CHANGES = {"--kind": ["fma"], "--kappa": ["0.9"], "--theta": ["0.5"], "--operator": ["psi2"],
                "--sigma": ["s2"], "--dim": ["4"], "--burn-in": ["10"]}


def test_the_matrix_covers_every_process_flag():
    assert [f"--{key.replace('_', '-')}" for key in cli._PROCESS] == list(FLAG_CHANGES)


@pytest.mark.parametrize("flag", FLAG_CHANGES)
def test_simulate_spec_refuses_each_process_flag(tmp_path, capsys, flag):
    spec, plain, changed = (str(tmp_path / name) for name in ("s.json", "plain.csv", "changed.csv"))
    run = ["simulate", "--n", "10", "--grid", "32", "--seed", "5"]
    assert main([*run, "--out", plain, "--save-spec", spec]) == 0
    capsys.readouterr()
    code = main([*run, "--spec", spec, flag, *FLAG_CHANGES[flag], "--out", changed])
    if code == 0:
        assert open(changed, "rb").read() != open(plain, "rb").read()
    else:
        assert code == 1
        err = capsys.readouterr().err
        assert re.search(rf"{flag}\b", err) and err.count("\n") == 1, err


def test_forecast_refuses_bosq_with_d_and_pve(capsys, files):
    run = ["forecast", "--input", files["a"], "--method", "bosq", "--d", "2"]
    assert main(run) == 0
    plain = capsys.readouterr().out
    code = main([*run, "--pve", "0.99"])
    out, err = capsys.readouterr()
    assert code == 1 and "pve" in err or code == 0 and out != plain, err


# a numeric covariate's dims entry, given as dims, next to None
NUMERIC_DIMS = {
    "predict_with_covariates": lambda data, rmat, dims: predict_with_covariates(
        data, rmat, p=1, d=2, covariate_dims=[dims]).curve,
    "covariate_matrix": lambda data, rmat, dims: covariate_matrix([data, rmat], 40,
                                                                  dims=[None, dims]),
}


@pytest.mark.parametrize("name", NUMERIC_DIMS)
def test_a_dims_entry_of_a_numeric_covariate_changes_the_result_or_is_refused(name):
    data = simulate(ProcessSpec.from_json(json.dumps(SPEC)), 40, Grid(32), np.random.default_rng(0))
    rmat = np.random.default_rng(1).normal(size=(40, 2))
    want = NUMERIC_DIMS[name](data, rmat, None)
    try:
        got = NUMERIC_DIMS[name](data, rmat, 7)
    except ValueError as err:
        assert re.search(r"\bdims\b", str(err)) and "\n" not in str(err), str(err)
        return
    assert got.tobytes() != want.tobytes()


# a covariate pve, read only by a functional item without a dims entry, with items that do not
# read it and, last, one that does
COVARIATE_PVE = {
    "predict_with_covariates": lambda data, rmat, pve: predict_with_covariates(
        data, rmat, p=1, d=2, covariate_pve=pve).curve,
    "covariate_matrix-dims": lambda data, rmat, pve: covariate_matrix([data, rmat], 40, dims=[2, None],
                                                                      pve=pve),
    "covariate_matrix-read": lambda data, rmat, pve: covariate_matrix([data, rmat], 40, pve=pve),
}


@pytest.mark.parametrize("name", COVARIATE_PVE)
def test_a_covariate_pve_changes_the_result_or_is_refused(name):
    data = simulate(ProcessSpec.from_json(json.dumps(SPEC)), 40, Grid(32), np.random.default_rng(0))
    rmat = np.random.default_rng(1).normal(size=(40, 2))
    want = COVARIATE_PVE[name](data, rmat, None)
    try:
        got = COVARIATE_PVE[name](data, rmat, 0.5)
    except ValueError as err:
        assert re.search(r"\bpve\b", str(err)) and "\n" not in str(err), str(err)
        assert name != "covariate_matrix-read", str(err)
        return
    assert got.tobytes() != want.tobytes()


def test_the_cut_options_are_gone(tmp_path, capsys):
    # --orders restated what --kind, --kappa and --theta fix; every reader takes a header
    out = str(tmp_path / "x.csv")
    assert main(["simulate", "--orders", "1", "0", "--n", "10", "--seed", "1", "--out", out]) == 2
    assert "unrecognized arguments: --orders 1 0" in capsys.readouterr().err
    data = simulate(ProcessSpec.from_json(json.dumps(SPEC)), 10, Grid(16), np.random.default_rng(0))
    with pytest.raises(TypeError, match="header"):
        save_curves_csv(data, out, header=False)
