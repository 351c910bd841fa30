import json
import re

import numpy as np
import pytest

from curvecast import (
    DimensionMismatchError,
    FunctionalDataset,
    Grid,
    IllConditionedError,
    InsufficientDataError,
    bosq_predict,
    eigensystem,
    equivalence_gap,
    predict_fts,
    predict_with_covariates,
    pve_dimension,
    reconstruct,
    scalar_predict,
    scores,
    select_pd,
    ScoreMatrix,
)
from curvecast import fpca
from curvecast.forecast import ForecastResult, _bosq_var, _fit, _scalar_var, covariate_matrix
from curvecast.multivar import fit_var_ols, predict_var, sample_acvf, solve_blp_with_covariates


# score-level forecasts: each fits one score model and predicts from the last rows


def var_score_forecast(s, p, h=1):
    return predict_var(fit_var_ols(s, p), s[-max(p, 1) :], h)


def scalar_score_forecast(s, p, h=1):
    return predict_var(_scalar_var(s, p), s[-max(p, 1) :], h)


def bosq_score_forecast(s, eigenvalues):
    return predict_var(_bosq_var(s, eigenvalues), s[-1:])


def test_var_score_forecast_hand_value():
    pred = var_score_forecast(np.array([1.0, -1.0, 2.0, -2.0]), 1, 1)
    assert pred[0] == pytest.approx(7.0 / 3.0, rel=1e-12)


def test_scalar_forecast_decouples_columns():
    col = np.array([1.0, -1.0, 2.0, -2.0])
    smat = np.column_stack([col, 2.0 * col])
    pred = scalar_score_forecast(smat, 1, 1)
    assert pred[0] == pytest.approx(7.0 / 3.0, rel=1e-12)
    assert pred[1] == pytest.approx(14.0 / 3.0, rel=1e-12)


def test_bosq_score_forecast_hand_value():
    smat = np.array([[-1.5], [-0.5], [0.5], [1.5]])
    pred = bosq_score_forecast(smat, np.array([1.25]))
    assert pred[0] == pytest.approx(0.5, rel=1e-12)


def test_bosq_eigenvalue_guard():
    smat = np.random.default_rng(0).normal(size=(20, 2))
    with pytest.raises(IllConditionedError):
        bosq_score_forecast(smat, np.array([1.0, 1e-15]))


def test_predict_fts_mode_exclusivity(make_far1):
    data = make_far1(n=60)
    with pytest.raises(ValueError):
        predict_fts(data, p=1, d=2, p_max=2, d_max=2)
    with pytest.raises(ValueError):
        predict_fts(data)
    with pytest.raises(ValueError):
        predict_fts(data, p=1)
    with pytest.raises(ValueError, match="method 'predict_fts' key 'h' must be >= 1, got 0"):
        predict_fts(data, h=0, p=1, d=2)


# a case whose message changed keeps its id, which reads the message it had before
@pytest.mark.parametrize("predict, kwargs, message", [
    pytest.param(predict_fts, {"p": 1.5, "d": 2},
                 "method 'predict_fts' key 'p' must be one finite int, got 1.5",
                 id="predict_fts-kwargs0-method 'fixed-var' key 'p' must be one finite int, got 1.5"),
    (predict_fts, {"p_max": 2.5, "d_max": 2}, "key 'p_max' must be one finite int, got 2.5"),
    pytest.param(scalar_predict, {"p": 1, "d": 2.5},
                 "method 'scalar_predict' key 'd' must be one finite int, got 2.5",
                 id="scalar_predict-kwargs2-method 'scalar' key 'd' must be one finite int, got 2.5"),
    pytest.param(bosq_predict, {"p": 1, "d": "2"},
                 "method 'bosq_predict' key 'd' must be one finite int, got '2'",
                 id="bosq_predict-kwargs3-method 'bosq' key 'd' must be one finite int, got '2'"),
])
def test_public_predictors_check_their_method_values(make_far1, predict, kwargs, message):
    # the predictors fit through the one method check; 1.5 used to fit p = 1
    with pytest.raises(ValueError, match=re.escape(message)):
        predict(make_far1(n=60), **kwargs)


def test_predict_fts_auto_matches_select(make_far1):
    data = make_far1(n=150, seed=2)
    res = predict_fts(data, p_max=2, d_max=3)
    table = select_pd(data, 2, 3)
    assert (res.p, res.d) == table.best
    assert res.method == "var"


def test_forecast_result_json_round_trip(make_far1):
    data = make_far1(n=80, seed=4)
    res = predict_fts(data, p=1, d=2)
    payload = json.loads(res.to_json())
    assert sorted(payload) == ["curve", "d", "method", "p", "scores"]
    back = ForecastResult.from_json(res.to_json())
    assert back.method == res.method and back.p == res.p and back.d == res.d
    assert np.allclose(back.curve, res.curve)
    assert np.allclose(back.scores, res.scores)


def test_curve_lies_in_eigenspace(make_far1):
    data = make_far1(n=100, seed=6)
    for res in (
        predict_fts(data, p=1, d=3),
        bosq_predict(data, 3),
        scalar_predict(data, 3, 1),
    ):
        eig = eigensystem(data, res.d)
        rebuilt = reconstruct(ScoreMatrix(scores=res.scores[None, :]), eig).values[0]
        assert np.abs(rebuilt - res.curve).max() < 1e-10


def test_forecasts_invariant_to_component_sign_flips(make_far1):
    data = make_far1(n=120, seed=9)
    eig = eigensystem(data, 3)
    smat = scores(data, eig).scores
    signs = np.array([1.0, -1.0, -1.0])
    flipped = smat * signs
    for forecast, args in (
        (var_score_forecast, (2, 1)),
        (scalar_score_forecast, (1, 1)),
        (bosq_score_forecast, (eig.eigenvalues,)),
    ):
        pred = forecast(smat, *args)
        pred_flipped = forecast(flipped, *args)
        # flipping eigenfunction signs flips the scores; the curve
        # prediction mean + sum_l s_l v_l is unchanged
        assert np.allclose(pred_flipped, pred * signs, atol=1e-10)


def test_bosq_state_space_reduces_to_plain():
    data = far_like(seed=3)
    a = bosq_predict(data, 2)
    b = bosq_predict(data, 2, 1)
    assert np.array_equal(a.curve, b.curve)


def far_like(seed, n=90, T=48):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, T)).cumsum(axis=0) * 0.1 + rng.normal(size=(n, T))
    return FunctionalDataset(grid=Grid(T), values=values)


def test_bosq_state_space_higher_order(make_far1):
    data = make_far1(n=100, seed=13)
    res = bosq_predict(data, 3, 2)
    assert res.p == 2 and res.curve.shape == (64,)
    assert np.all(np.isfinite(res.curve))
    with pytest.raises(InsufficientDataError, match="n=3 too small for p=3 stacked blocks"):
        bosq_predict(make_far1(n=3, seed=13), 1, 3)


def test_scalar_matches_vector_on_one_component(make_far1):
    data = make_far1(n=90, seed=5)
    a = scalar_predict(data, 1, 1)
    b = predict_fts(data, p=1, d=1)
    assert np.allclose(a.curve, b.curve, atol=1e-10)


def test_zero_covariate_equals_plain_prediction(make_far1):
    data = make_far1(n=100, seed=7)
    rmat = np.zeros((100, 2))
    a = predict_with_covariates(data, rmat, p=1, d=2)
    b = predict_fts(data, p=1, d=2)
    assert np.allclose(a.curve, b.curve, atol=1e-10)


def test_covariate_auto_selection_runs(make_far1):
    data = make_far1(n=150, seed=8)
    rng = np.random.default_rng(1)
    rmat = rng.normal(size=(150, 1))
    res = predict_with_covariates(data, rmat, p_max=2, d_max=3)
    assert res.method == "covariate"
    assert 0 <= res.p <= 2 and 1 <= res.d <= 3


def test_blp_solver_matches_manual_assembly(make_far1):
    data = make_far1(n=200, seed=10)
    rng = np.random.default_rng(2)
    rmat = rng.normal(size=(200, 2))
    res = predict_with_covariates(data, rmat, p=1, d=2, solver="blp")

    eig = eigensystem(data, 2)
    smat = scores(data, eig).scores
    acvf = sample_acvf(smat, 1)
    rc = rmat - rmat.mean(axis=0)
    n = 200
    cross = np.array(
        [smat[1:].T @ rc[:-1] / n, smat.T @ rc / n]
    )  # cross[k] = Cov(Y_t, R_{t - (1 - k)})
    gamma_rr = rc.T @ rc / n
    phis, theta = solve_blp_with_covariates(acvf, cross=cross, gamma_rr=gamma_rr, m=1)
    pred = phis[0] @ smat[-1] + theta @ rc[-1]
    curve = eig.mean + pred @ eig.eigenfunctions
    assert np.allclose(res.curve, curve, atol=1e-8)


def test_blp_solver_at_order_zero_matches_the_covariate_regression(make_far1):
    data = make_far1(n=200, seed=10)
    rmat = np.random.default_rng(2).normal(size=(200, 2))
    res = predict_with_covariates(data, rmat, p=0, d=2, solver="blp")
    eig = eigensystem(data, 2)
    smat = scores(data, eig).scores
    rc = rmat - rmat.mean(axis=0)
    theta = (smat[1:] - smat.mean(axis=0)).T @ rc[:-1] @ np.linalg.inv(rc.T @ rc)
    curve = eig.mean + (smat.mean(axis=0) + theta @ rc[-1]) @ eig.eigenfunctions
    assert res.p == 0
    np.testing.assert_allclose(res.curve, curve, rtol=1e-10, atol=1e-12)


def test_blp_solver_selects_order_zero_on_white_noise():
    # this used to raise "solver 'blp' needs p >= 1" once the sweep chose p = 0
    rng = np.random.default_rng(2)
    data = FunctionalDataset(grid=Grid(16), values=rng.normal(size=(80, 16)))
    rmat = rng.normal(size=(80, 2))
    res = predict_with_covariates(data, rmat, p_max=2, d_max=3, solver="blp")
    assert res.p == 0 and np.all(np.isfinite(res.curve))


def test_blp_solver_at_order_zero_with_only_constant_covariates_forecasts_the_mean(make_far1):
    # this used to end in numpy's "List at arrays cannot be empty" from np.block
    data = make_far1(n=60, T=32, seed=4)
    rmat = np.full((60, 2), 3.0)
    ols, blp = (predict_with_covariates(data, rmat, p=0, d=2, solver=solver).curve
                for solver in ("ols", "blp"))
    np.testing.assert_allclose(blp, ols, rtol=0, atol=1e-12)
    np.testing.assert_allclose(blp, data.values.mean(axis=0), rtol=0, atol=1e-12)
    fit = _fit(data, data.n, {"name": "covariate", "p": 0, "d": 2, "solver": "blp"}, rmat)
    assert fit.model.coeffs == () and np.all(fit.model.theta == 0.0)


def test_covariate_matrix_assembly(make_far1):
    data = make_far1(n=60, seed=12)
    numeric = np.arange(60.0)
    mat = covariate_matrix([data, numeric], 60, dims=[2, None])
    assert mat.shape == (60, 3)
    with pytest.raises(ValueError):
        covariate_matrix(np.ones(59), 60)
    with pytest.raises(ValueError, match="dims has 1 entries for 2 covariates"):
        covariate_matrix([data, numeric], 60, dims=[2])
    with pytest.raises(DimensionMismatchError,
                       match=re.escape("covariates must be 61 rows, one per curve, got shape (60, 64)")):
        covariate_matrix(data, 61)


def test_functional_covariate_reads_one_eigensystem(make_far1, monkeypatch):
    # without a dims entry the item's d is the PVE rank of the same solve that gives its basis
    item = make_far1(n=60, seed=13)
    want = scores(item, eigensystem(item, pve_dimension(item, 0.9))).scores
    kernels = []
    real = fpca.sample_covariance_kernel
    monkeypatch.setattr(fpca, "sample_covariance_kernel",
                        lambda data: kernels.append(data.n) or real(data))
    assert covariate_matrix(item, 60, pve=0.9).tobytes() == want.tobytes()
    assert kernels == [60]
    fixed = scores(item, eigensystem(item, 2)).scores
    assert covariate_matrix(item, 60, dims=2).tobytes() == fixed.tobytes()
    with pytest.raises(ValueError, match="covariate_matrix key 'dims' must be >= 1, got 0"):
        covariate_matrix(item, 60, dims=0)


def test_equivalence_identity_and_gap(make_far1):
    data = make_far1(n=150, seed=14)
    report = equivalence_gap(data, 3)
    eig = eigensystem(data, 3)
    smat = scores(data, eig).scores
    n = data.n
    lam = np.diag(eig.eigenvalues)
    last = smat[-1]
    # exact rank-one update linking the two lag-zero covariance estimates
    assert np.allclose(
        report.gamma_hat - report.gamma_tilde,
        (lam - np.outer(last, last)) / (n - 1),
        atol=1e-10,
    )
    assert report.gap >= 0.0
    diff = report.var_result.curve - report.bosq_result.curve
    assert report.gap == pytest.approx(float(np.sqrt(diff @ diff / data.T)), rel=1e-10)


def test_equivalence_gap_zero_when_last_curve_is_mean():
    rng = np.random.default_rng(20)
    rows = rng.normal(size=(40, 24))
    # x = mean of all rows including x itself solves to the mean of the others
    rows[-1] = rows[:-1].mean(axis=0)
    data = FunctionalDataset(grid=Grid(24), values=rows)
    report = equivalence_gap(data, 2)
    assert report.gap == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("solver", ["ols", "blp"])
def test_a_constant_covariate_column_loads_zero(make_far1, solver):
    # blp used to find the stacked covariance singular where ols dropped the column
    data = make_far1(n=80, T=32, seed=4)
    rmat = np.random.default_rng(5).normal(size=(80, 3))
    rmat[:, 1] = 3.0
    method = {"name": "covariate", "p": 1, "d": 2, "solver": solver}
    fit = _fit(data, data.n, method, rmat)
    assert np.all(fit.model.theta[:, 1] == 0.0) and np.all(fit.model.theta[:, [0, 2]] != 0.0)
    dropped = _fit(data, data.n, method, rmat[:, [0, 2]])
    assert np.allclose(fit.model.theta[:, [0, 2]], dropped.model.theta, rtol=1e-12, atol=0)
    got = predict_with_covariates(data, rmat, p=1, d=2, solver=solver).curve
    want = predict_with_covariates(data, rmat[:, [0, 2]], p=1, d=2, solver=solver).curve
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
