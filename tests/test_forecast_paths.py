"""Every predictor, both evaluation modes and `curvecast forecast` against reference code.

Each reference function below fits one method's score model on its own and
predicts with one ``predict_var`` call per forecast; the shared
fit-then-predict path in ``curvecast.forecast`` must reproduce them.
"""

import json

import numpy as np
import pytest

from curvecast import (
    FunctionalDataset,
    Grid,
    IllConditionedError,
    ScoreMatrix,
    bosq_predict,
    eigensystem,
    load_curves_csv,
    load_numeric_csv,
    predict_fts,
    predict_with_covariates,
    pve_dimension,
    reconstruct,
    save_curves_csv,
    scalar_predict,
    scores,
    select_pd,
)
from curvecast.cli import main
from curvecast.experiments import _eval_method_expanding, _eval_method_fixed, _source_factory
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
            kw = {k: method[k] for k in ("p", "d", "p_max", "d_max") if k in method}
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
# expanding evaluation


EXPANDING_CASES = [
    ({"name": "ffpe-var", "p_max": 2, "d_max": 2}, 1),
    ({"name": "fixed-var", "p": 1, "d": 2}, 1),
    ({"name": "fixed-var", "p": 2, "d": 2}, 2),
    ({"name": "scalar", "p": 1, "d": 2}, 1),
    ({"name": "scalar", "p": 2, "d": 3}, 2),
    ({"name": "bosq", "d": 2}, 1),
    ({"name": "bosq", "p": 2, "pve": 0.9}, 1),
    ({"name": "covariate", "p": 1, "d": 2}, 1),
    ({"name": "covariate", "p_max": 2, "d_max": 2}, 1),
]


@pytest.mark.parametrize("method, h", EXPANDING_CASES)
def test_expanding_mode_matches_reference_dispatch(method, h):
    draw, _ = _source_factory({"type": "covariate-far1"}, 70, Grid(32))
    data, rmat = next(draw([np.random.default_rng(6)]))
    out = _eval_method_expanding(data, rmat, 62, h, method)
    assert_close(out["errors"], ref_expanding_errors(data, rmat, 62, h, method))
    assert out["criterion"] is None


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
    assert main(["forecast", "--input", str(curves), "--covariates", str(cov),
                 "--out", str(out), *argv]) == 0
    capsys.readouterr()
    got = json.loads(out.read_text())
    want = api(load_curves_csv(curves), load_numeric_csv(cov))
    assert (got["method"], got["p"], got["d"]) == (want.method, want.p, want.d)
    np.testing.assert_array_equal(got["curve"], want.curve)
