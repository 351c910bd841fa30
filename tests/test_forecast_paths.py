"""Every predictor, the evaluation of run_forecast_experiment and `curvecast forecast` against
reference code.

Each reference function below fits one method's score model on its own and
predicts with one ``predict_var`` call per forecast; the shared
fit-then-predict path in ``curvecast.forecast`` must reproduce them.
"""

import json

import numpy as np
import pytest

from curvecast import (
    DimensionMismatchError,
    FunctionalDataset,
    Grid,
    IllConditionedError,
    IngestError,
    InsufficientDataError,
    ScoreMatrix,
    bosq_predict,
    eigensystem,
    load_curves_csv,
    load_numeric_csv,
    predict_fts,
    predict_with_covariates,
    pve_dimension,
    reconstruct,
    run_forecast_experiment,
    save_curves_csv,
    scalar_predict,
    scores,
    select_pd,
)
from curvecast.cli import main
from curvecast import forecast, fpca, multivar, selection
from curvecast.experiments import _eval_method_fixed, _source_factory
from curvecast.multivar import (
    fit_var_ols,
    fit_varx_ols,
    predict_var,
    sample_acvf,
    solve_blp_with_covariates,
)

RTOL = 1e-12


# ---------------------------------------------------------------------------
# reference implementations


def var_score_forecast(s, p, h=1):
    return predict_var(fit_var_ols(s, p), s[-max(p, 1) :], h)


def varx_score_forecast(s, rmat, p):
    return predict_var(fit_varx_ols(s, rmat, p), s[-max(p, 1) :], 1, covariate=rmat[-1])


def ref_finish(eig, pred):
    return reconstruct(ScoreMatrix(scores=pred[None, :]), eig).values[0]


def ref_select(data, p, d, p_max, d_max, covariate_scores=None):
    if p_max is not None:
        table = select_pd(data, p_max, d_max, covariate_scores=covariate_scores)
        p, d = table.best
        return p, d, table.eig.truncate(d)
    return p, d, eigensystem(data, d)


def ref_predict_fts(data, h=1, p=None, d=None, p_max=None, d_max=None):
    p, d, eig = ref_select(data, p, d, p_max, d_max)
    return p, d, ref_finish(eig, var_score_forecast(scores(data, eig).scores, p, h))


def ref_scalar_predict(data, d, p, h=1):
    eig = eigensystem(data, d)
    s = scores(data, eig).scores
    out = np.empty(d)
    for j in range(d):
        col = s[:, j : j + 1]
        out[j] = predict_var(fit_var_ols(col, p), col[-max(p, 1) :], h)[0]
    return ref_finish(eig, out)


def ref_bosq_state_space(data, d, p):
    n, T = data.n, data.T
    blocks = [data.values[p - 1 - j : n - j] for j in range(p)]
    stacked = FunctionalDataset(grid=Grid(p * T), values=np.hstack(blocks))
    eig = eigensystem(stacked, d)
    s = scores(stacked, eig).scores
    lag_cov = s[1:].T @ s[:-1] / (s.shape[0] - 1)
    pred = (lag_cov / eig.eigenvalues[None, :]) @ s[-1]
    return ref_finish(eig, pred)[:T]


def ref_blp_score_forecast(s, rmat, m):
    n = s.shape[0]
    acvf = sample_acvf(s, m)
    ybar = s.mean(axis=0)
    yc = s - ybar
    rc = rmat - rmat.mean(axis=0)
    cross = np.empty((m + 1, s.shape[1], rmat.shape[1]))
    for k in range(m + 1):
        lag = 1 - k
        if lag >= 0:
            cross[k] = yc[lag:].T @ rc[: n - lag] / n
        else:
            cross[k] = yc[: n + lag].T @ rc[-lag:] / n
    phis, theta = solve_blp_with_covariates(acvf, cross, rc.T @ rc / n, m)
    pred = np.zeros(s.shape[1])
    for i, phi in enumerate(phis, start=1):
        pred = pred + phi @ yc[-i]
    return pred + theta @ rc[-1] + ybar


def ref_predict_with_covariates(data, rmat, p=None, d=None, p_max=None, d_max=None,
                                solver="ols"):
    p, d, eig = ref_select(data, p, d, p_max, d_max, covariate_scores=rmat)
    s = scores(data, eig).scores
    if solver == "ols":
        pred = varx_score_forecast(s, rmat, p)
    else:
        pred = ref_blp_score_forecast(s, rmat, p)
    return p, d, ref_finish(eig, pred)


def ref_expanding_errors(data, rmat, m, h, method):
    """One refit per evaluation index, dispatched by method name."""
    name = method["name"]
    errors = []
    for t in range(m, data.n):
        cut = t - h + 1
        sub = FunctionalDataset(grid=data.grid, values=data.values[:cut])
        if name == "ffpe-var":
            curve = ref_predict_fts(sub, h=h, p_max=method["p_max"], d_max=method["d_max"])[2]
        elif name == "fixed-var":
            curve = ref_predict_fts(sub, h=h, p=method["p"], d=method["d"])[2]
        elif name == "scalar":
            curve = ref_scalar_predict(sub, method["d"], method["p"], h=h)
        elif name == "bosq":
            d = method.get("d") or pve_dimension(sub, method.get("pve", 0.8))
            curve = ref_bosq_state_space(sub, d, method.get("p", 1))
        else:
            kw = {k: method[k] for k in ("p", "d", "p_max", "d_max", "solver") if k in method}
            curve = ref_predict_with_covariates(sub, rmat[:cut], **kw)[2]
        diff = data.values[t] - curve
        errors.append(float(diff @ diff) / data.T)
    return errors


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)


# ---------------------------------------------------------------------------
# public predictors


@pytest.mark.parametrize(
    "kw",
    [
        {"p": 1, "d": 3},
        {"p": 0, "d": 2},
        {"p": 2, "d": 2, "h": 2},
        {"p_max": 2, "d_max": 3},
        {"p_max": 3, "d_max": 3, "h": 2},
    ],
)
def test_predict_fts_matches_reference(make_far1, kw):
    data = make_far1(n=150, seed=21)
    res = predict_fts(data, **kw)
    p, d, curve = ref_predict_fts(data, **kw)
    assert (res.method, res.p, res.d) == ("var", p, d)
    assert_close(res.curve, curve)


@pytest.mark.parametrize("solver", ["ols", "blp"])
@pytest.mark.parametrize("kw", [{"p": 1, "d": 2}, {"p": 2, "d": 3}, {"p_max": 2, "d_max": 3}])
def test_predict_with_covariates_matches_reference(make_far1, solver, kw):
    data = make_far1(n=160, seed=22)
    rmat = np.random.default_rng(5).normal(size=(160, 2))
    res = predict_with_covariates(data, rmat, solver=solver, **kw)
    p, d, curve = ref_predict_with_covariates(data, rmat, solver=solver, **kw)
    assert (res.method, res.p, res.d) == ("covariate", p, d)
    assert_close(res.curve, curve)


@pytest.mark.parametrize("p, h", [(0, 1), (1, 1), (2, 1), (1, 3)])
def test_scalar_predict_matches_reference(make_far1, p, h):
    data = make_far1(n=120, seed=23)
    res = scalar_predict(data, 3, p, h=h)
    assert (res.method, res.p, res.d) == ("scalar", p, 3)
    assert_close(res.curve, ref_scalar_predict(data, 3, p, h=h))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_bosq_state_space_matches_reference(make_far1, p):
    data = make_far1(n=120, seed=24)
    res = bosq_predict(data, 3, p)
    assert (res.method, res.p, res.d) == ("bosq", p, 3)
    assert res.curve.shape == (data.T,)
    assert_close(res.curve, ref_bosq_state_space(data, 3, p))
    if p == 1:
        assert np.array_equal(bosq_predict(data, 3).curve, res.curve)


def test_fixed_mode_benchmark_rejects_negligible_eigenvalue():
    rng = np.random.default_rng(3)
    rank_one = np.outer(rng.normal(size=40), np.ones(16))
    data = FunctionalDataset(grid=Grid(16), values=rank_one)
    with pytest.raises(IllConditionedError, match="reduce d"):
        _eval_method_fixed(data, None, 30, 1, {"name": "bosq", "d": 2})


# ---------------------------------------------------------------------------
# evaluation against one refit per step


EVAL_CASES = [
    ({"name": "ffpe-var", "p_max": 2, "d_max": 2}, 1),
    ({"name": "fixed-var", "p": 1, "d": 2}, 1),
    ({"name": "fixed-var", "p": 2, "d": 2}, 2),
    ({"name": "scalar", "p": 1, "d": 2}, 1),
    ({"name": "scalar", "p": 2, "d": 3}, 2),
    ({"name": "bosq", "d": 2}, 1),
    ({"name": "bosq", "p": 2, "pve": 0.9}, 1),
    ({"name": "covariate", "p": 1, "d": 2}, 1),
    ({"name": "covariate", "p_max": 2, "d_max": 2}, 1),
    ({"name": "covariate", "p": 2, "d": 2, "solver": "blp"}, 1),
    ({"name": "covariate", "p_max": 2, "d_max": 2, "solver": "blp"}, 1),
]


def eval_sample():
    draw = _source_factory({"type": "covariate-far1"}, 70, Grid(32))
    return next(draw([np.random.default_rng(6)]))


@pytest.mark.parametrize("method, h", EVAL_CASES)
def test_fixed_evaluation_matches_reference_dispatch(method, h):
    # at m = n - h the one fit sees exactly the curves of the reference's last refit
    data, rmat = eval_sample()
    out = _eval_method_fixed(data, rmat, data.n - h, h, method)
    want = ref_expanding_errors(data, rmat, data.n - 1, h, method)
    assert len(out["errors"]) == h
    assert_close(out["errors"][-1:], want)


@pytest.mark.parametrize("method, h", EVAL_CASES + [({"name": "bosq", "p": 2, "d": 3}, 1),
                                                     ({"name": "bosq", "pve": 0.9}, 1)])
def test_each_fit_makes_one_eigensystem_and_one_projection(monkeypatch, method, h):
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(f"{module.__name__.rpartition('.')[2]}.{name}")
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("eigensystem", "scores", "_sweep"):
        counted(forecast, name)
    counted(selection, "eigensystem")
    counted(fpca, "sample_covariance_kernel")
    data, rmat = eval_sample()
    _eval_method_fixed(data, rmat, data.n - h, h, method)
    # a fit truncates the one eigensystem of forecast._basis, which a selected fit's sweep
    # projects on without solving; a bosq fit without d reads d from it, and at p = 1 its basis
    basis = ["forecast.eigensystem"]
    if method["name"] == "bosq" and "d" not in method and method.get("p", 1) > 1:
        basis.append("forecast.eigensystem")  # the stacked blocks solve their own
    kernels = ["fpca.sample_covariance_kernel"] * len(basis)
    sweep = ["forecast._sweep"] if "p_max" in method else []
    assert sorted(calls) == sorted([*basis, *kernels, *sweep, "forecast.scores"])


SELECTED = [{"name": "ffpe-var", "p_max": 2, "d_max": 3},
            {"name": "fixed-var", "p_max": 2, "d_max": 3},
            {"name": "covariate", "p_max": 2, "d_max": 3}]


@pytest.mark.parametrize("m", [60, 70], ids=["m<n", "m=n"])
@pytest.mark.parametrize("method", SELECTED, ids=lambda method: method["name"])
def test_selected_fit_reuses_the_sweeps_training_scores(monkeypatch, method, m):
    tables = []

    def kept(*args):
        tables.append(selection._sweep(*args))
        return tables[-1]

    monkeypatch.setattr(forecast, "_sweep", kept)
    data, rmat = eval_sample()
    fit = forecast._fit(data, m, method, rmat)
    head = FunctionalDataset(grid=data.grid, values=data.values[:m])
    want = select_pd(head, 2, 3, rmat[:m] if method["name"] == "covariate" else None)
    (table,) = tables
    assert (fit.p, fit.d) == want.best and fit.criterion == want.best_cell().value
    assert repr(table.cells) == repr(want.cells)  # repr keeps every bit, and nan equals nan
    assert fit.scores[:m].tobytes() == want.scores[:, : fit.d].tobytes()
    assert fit.scores.shape == (data.n, fit.d)
    if m < data.n:
        rest = FunctionalDataset(grid=data.grid, values=data.values[m:])
        assert fit.scores[m:].tobytes() == scores(rest, fit.eig).scores.tobytes()
    # the one projection of every curve at the chosen d rounds differently, and only just
    all_n = scores(data, fit.eig).scores
    assert np.abs(fit.scores - all_n).max() <= 1e-12 * np.abs(all_n).max()


@pytest.mark.parametrize("solver", ["ols", "blp"])
@pytest.mark.parametrize("orders, checks, blocks", [({"p": 1, "d": 2}, 2, 1),
                                                    ({"p_max": 2, "d_max": 3}, 2, 1)],
                         ids=["fixed", "selected"])
def test_covariates_are_checked_once_per_entry_point(monkeypatch, solver, orders, checks, blocks):
    # covariate_matrix and _fit check the matrix, and _fit builds the one block that every
    # model it fits and the sweep of a selected fit read
    calls = []
    for name in ("_check_covariates", "_covariate_block"):
        def spy(*args, real=getattr(multivar, name), name=name):
            calls.append(name)
            return real(*args)

        for module in (forecast, selection, multivar):
            monkeypatch.setattr(module, name, spy)
    data, rmat = eval_sample()
    predict_with_covariates(data, rmat, solver=solver, **orders)
    assert (calls.count("_check_covariates"), calls.count("_covariate_block")) == (checks, blocks)


# ---------------------------------------------------------------------------
# command line


@pytest.fixture
def forecast_inputs(tmp_path, make_far1):
    curves = tmp_path / "curves.csv"
    save_curves_csv(make_far1(n=80, T=32, seed=25), curves)
    cov = tmp_path / "cov.csv"
    np.savetxt(cov, np.random.default_rng(7).normal(size=(80, 2)), delimiter=",")
    return curves, cov


@pytest.mark.parametrize(
    "argv, api",
    [
        (["--p", "1", "--d", "2"], lambda data, rmat: predict_fts(data, p=1, d=2)),
        (["--pmax", "2", "--dmax", "3", "--horizon", "2"],
         lambda data, rmat: predict_fts(data, h=2, p_max=2, d_max=3)),
        (["--method", "bosq", "--pve", "0.9"],
         lambda data, rmat: bosq_predict(data, pve_dimension(data, 0.9))),
        (["--method", "bosq", "--p", "2", "--d", "3"],
         lambda data, rmat: bosq_predict(data, 3, 2)),
        (["--method", "scalar", "--p", "2", "--d", "2"],
         lambda data, rmat: scalar_predict(data, 2, 2)),
        (["--method", "covariate", "--p", "1", "--d", "2"],
         lambda data, rmat: predict_with_covariates(data, rmat, p=1, d=2)),
        (["--method", "covariate", "--pmax", "2", "--dmax", "2"],
         lambda data, rmat: predict_with_covariates(data, rmat, p_max=2, d_max=2)),
    ],
)
def test_cli_forecast_returns_the_api_curve(forecast_inputs, tmp_path, capsys, argv, api):
    curves, cov = forecast_inputs
    out = tmp_path / "forecast.json"
    covariates = ["--covariates", str(cov)] if "covariate" in argv else []  # only it takes them
    assert main(["forecast", "--input", str(curves), *covariates,
                 "--out", str(out), *argv]) == 0
    capsys.readouterr()
    got = json.loads(out.read_text())
    want = api(load_curves_csv(curves), load_numeric_csv(cov))
    assert (got["method"], got["p"], got["d"]) == (want.method, want.p, want.d)
    np.testing.assert_array_equal(got["curve"], want.curve)


ONE_CURVE = {
    "eigensystem": lambda data, path: eigensystem(data, 1),
    "pve_dimension": lambda data, path: pve_dimension(data, 0.8),
    "select_pd": lambda data, path: select_pd(data, 1, 2),
    "predict_fts": lambda data, path: predict_fts(data, p_max=1, d_max=1),
    "bosq-pve": lambda data, path: forecast._forecast(data, {"name": "bosq", "pve": 0.8}),
    "cli-select": lambda data, path: main(["select", "--input", str(path), "--pmax", "1",
                                           "--dmax", "1"]),
}


@pytest.mark.parametrize("call", ONE_CURVE.values(), ids=ONE_CURVE.keys())
def test_one_curve_is_insufficient_data(tmp_path, capsys, call):
    # these used to raise a plain "d=0 outside valid range 1..0 for n=1, T=8"
    data = FunctionalDataset(grid=Grid(8), values=np.arange(8.0)[None])
    path = tmp_path / "one.csv"
    save_curves_csv(data, path)
    message = "covariance needs n >= 2 curves, got n=1"
    if call is ONE_CURVE["cli-select"]:
        assert call(data, path) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        with pytest.raises(InsufficientDataError, match=message):
            call(data, path)


COVARIATE_METHOD = {"name": "covariate", "p": 1, "d": 2}
SHORT_COVARIATES = {
    "select_pd": lambda data, rmat, paths: select_pd(data, 1, 2, covariate_scores=rmat),
    "fit_varx_ols": lambda data, rmat, paths: fit_varx_ols(scores(data, eigensystem(data, 2)),
                                                           rmat, 1),
    "predict_with_covariates": lambda data, rmat, paths: predict_with_covariates(data, rmat,
                                                                                 p=1, d=2),
    "file-source": lambda data, rmat, paths: run_forecast_experiment(
        {"source": {"type": "file", "path": paths[0], "covariates_path": paths[1]},
         "methods": [COVARIATE_METHOD], "seed": 0}),
    "cli-select": lambda data, rmat, paths: main(["select", "--input", paths[0], "--covariates",
                                                  paths[1], "--pmax", "1", "--dmax", "2"]),
    "cli-forecast": lambda data, rmat, paths: main(
        ["forecast", "--input", paths[0], "--covariates", paths[1], "--method", "covariate",
         "--p", "1", "--d", "2", "--out", paths[2]]),
}


@pytest.mark.parametrize("call", SHORT_COVARIATES.values(), ids=SHORT_COVARIATES.keys())
def test_too_few_covariate_rows_read_one_message(tmp_path, capsys, make_far1, call):
    # these read three messages from three checks, two of them a plain ValueError
    data = make_far1(n=60, T=32, seed=25)
    rmat = np.random.default_rng(7).normal(size=(57, 2))
    paths = [str(tmp_path / name) for name in ("curves.csv", "cov.csv", "forecast.json")]
    save_curves_csv(data, paths[0])
    np.savetxt(paths[1], rmat, delimiter=",")
    message = "covariates must be 60 rows, one per curve, got shape (57, 2)"
    if call in (SHORT_COVARIATES["cli-select"], SHORT_COVARIATES["cli-forecast"]):
        assert call(data, rmat, paths) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        with pytest.raises(DimensionMismatchError) as err:
            call(data, rmat, paths)
        assert str(err.value) == message


def test_too_few_functional_covariate_curves_read_the_same_message(make_far1):
    # a functional covariate used to raise a plain ValueError worded its own way
    data = make_far1(n=60, T=32, seed=25)
    curves = make_far1(n=57, T=32, seed=26)
    message = "covariates must be 60 rows, one per curve, got shape (57, 32)"
    with pytest.raises(DimensionMismatchError) as err:
        predict_with_covariates(data, curves, p=1, d=2)
    assert str(err.value) == message


@pytest.mark.parametrize("solver", ["ols", "blp"])
def test_a_non_finite_covariate_is_named_from_one(make_far1, solver):
    # the guard used to name this cell row 0, column 1 (0-based)
    data = make_far1(n=60, T=32, seed=25)
    rmat = np.random.default_rng(7).normal(size=(60, 2))
    rmat[0, 1] = np.inf
    with pytest.raises(IngestError, match="^covariate row 1, column 2 is not finite$"):
        predict_with_covariates(data, rmat, p=1, d=2, solver=solver)
