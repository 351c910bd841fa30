import numpy as np
import pytest

from curvecast import (
    DimensionMismatchError,
    IllConditionedError,
    IngestError,
    InsufficientDataError,
    NumericalDegeneracyError,
    RankDeficiencyError,
)
from curvecast.multivar import (
    AcvfSequence,
    VarModel,
    fit_var_ols,
    fit_varx_ols,
    innovations,
    predict_var,
    sample_acvf,
    solve_blp_with_covariates,
)


def stable_var1_acvf(d, seed, max_lag=6, radius=0.7):
    """Exact autocovariances of a random stable VAR(1), via the discrete
    Lyapunov equation solved densely."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    a *= radius / max(np.abs(np.linalg.eigvals(a)))
    root = rng.normal(size=(d, d))
    noise = root @ root.T + 0.1 * np.eye(d)
    vec = np.linalg.solve(np.eye(d * d) - np.kron(a, a), noise.reshape(-1))
    gammas = [vec.reshape(d, d)]
    for _ in range(max_lag):
        gammas.append(a @ gammas[-1])
    return AcvfSequence(gammas=np.array(gammas)), a


def brute_force_blp(acvf, history, m):
    """One-step best linear predictor from the stacked covariance solve."""
    d = acvf.d
    big = np.block([[acvf.gamma(j - i) for j in range(m)] for i in range(m)])
    rhs = np.hstack([acvf.gamma(i + 1) for i in range(m)])
    coef = np.linalg.solve(big, rhs.T).T
    past = np.concatenate([history[-1 - i] - acvf.mean for i in range(m)])
    return coef @ past + acvf.mean


def test_sample_acvf_hand_values():
    acvf = sample_acvf(np.array([1.0, 2.0, 3.0, 4.0]), 1)
    assert acvf.gamma(0)[0, 0] == pytest.approx(1.25, abs=1e-12)
    assert acvf.gamma(1)[0, 0] == pytest.approx(0.3125, abs=1e-12)
    assert acvf.mean[0] == pytest.approx(2.5)


def test_acvf_negative_lag_transposes():
    acvf, _ = stable_var1_acvf(3, seed=0)
    assert np.array_equal(acvf.gamma(-2), acvf.gamma(2).T)
    with pytest.raises(ValueError):
        acvf.gamma(acvf.max_lag + 1)


def test_sample_acvf_lag_guard():
    with pytest.raises(ValueError):
        sample_acvf(np.ones((4, 1)), 4)


def test_ols_hand_values():
    model = fit_var_ols(np.array([1.0, -1.0, 2.0, -2.0]), 1)
    assert model.coeffs[0][0, 0] == pytest.approx(-7.0 / 6.0, abs=1e-12)
    assert model.sigma_z[0, 0] == pytest.approx(5.0 / 18.0, abs=1e-12)
    assert model.mean[0] == pytest.approx(0.0, abs=1e-12)


def test_ols_centering_and_prediction():
    shifted = np.array([1.0, -1.0, 2.0, -2.0]) + 10.0
    model = fit_var_ols(shifted, 1)
    assert model.mean[0] == pytest.approx(10.0)
    assert model.coeffs[0][0, 0] == pytest.approx(-7.0 / 6.0, abs=1e-12)
    pred = predict_var(model, np.array([8.0]), 1)
    assert pred[0] == pytest.approx(-7.0 / 6.0 * -2.0 + 10.0, abs=1e-12)


def test_ols_matches_lstsq_oracle():
    rng = np.random.default_rng(21)
    smat = rng.normal(size=(40, 2))
    model = fit_var_ols(smat, 2)
    centered = smat - smat.mean(axis=0)
    design = np.hstack([centered[1:-1], centered[:-2]])
    beta, *_ = np.linalg.lstsq(design, centered[2:], rcond=None)
    assert np.allclose(model.coeffs[0], beta[:2].T, atol=1e-9)
    assert np.allclose(model.coeffs[1], beta[2:].T, atol=1e-9)
    resid = centered[2:] - design @ beta
    assert np.allclose(model.sigma_z, resid.T @ resid / 38, atol=1e-9)


def test_order_zero_model():
    rng = np.random.default_rng(4)
    smat = rng.normal(size=(30, 2)) + [1.0, -2.0]
    model = fit_var_ols(smat, 0)
    centered = smat - smat.mean(axis=0)
    assert np.allclose(model.sigma_z, centered.T @ centered / 30, atol=1e-12)
    pred = predict_var(model, np.empty((0, 2)), 1)
    assert np.allclose(pred, smat.mean(axis=0))


def test_ols_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_var_ols(np.ones((4, 2)), 2)  # n = 4 <= p d + 1 = 5


def test_ols_rank_deficiency_is_loud():
    rng = np.random.default_rng(2)
    col = rng.normal(size=(30, 1))
    smat = np.hstack([col, col])  # perfectly collinear lags
    with pytest.raises(RankDeficiencyError) as info:
        fit_var_ols(smat, 1)
    assert info.value.column is not None


def test_predict_var_iterates():
    model = VarModel(
        p=1,
        coeffs=(np.diag([0.5, 0.25]),),
        sigma_z=np.eye(2),
        mean=np.zeros(2),
    )
    pred = predict_var(model, np.array([[1.0, 2.0]]), 2)
    assert np.allclose(pred, [0.25, 0.125])


def test_predict_var_history_guard():
    model = VarModel(p=2, coeffs=(np.eye(1), np.eye(1)), sigma_z=np.eye(1), mean=np.zeros(1))
    with pytest.raises(InsufficientDataError):
        predict_var(model, np.array([[1.0]]), 1)


def test_varx_matches_lstsq_oracle():
    rng = np.random.default_rng(31)
    smat = rng.normal(size=(40, 2))
    rmat = rng.normal(size=(40, 1))
    model = fit_varx_ols(smat, rmat, 1)
    sc = smat - smat.mean(axis=0)
    rc = rmat - rmat.mean(axis=0)
    design = np.hstack([sc[:-1], rc[:-1]])
    beta, *_ = np.linalg.lstsq(design, sc[1:], rcond=None)
    assert np.allclose(model.coeffs[0], beta[:2].T, atol=1e-9)
    assert np.allclose(model.theta, beta[2:].T, atol=1e-9)


def test_varx_constant_covariate_drops_to_plain_fit():
    rng = np.random.default_rng(17)
    smat = rng.normal(size=(30, 2))
    rmat = np.full((30, 1), 3.5)
    model = fit_varx_ols(smat, rmat, 1)
    plain = fit_var_ols(smat, 1)
    assert np.array_equal(model.theta, np.zeros((2, 1)))
    assert np.allclose(model.coeffs[0], plain.coeffs[0], atol=1e-10)
    pred = predict_var(model, smat[-1:], 1, covariate=rmat[-1])
    assert np.allclose(pred, predict_var(plain, smat[-1:], 1), atol=1e-10)


def test_varx_prediction_needs_covariate():
    rng = np.random.default_rng(12)
    model = fit_varx_ols(rng.normal(size=(20, 1)), rng.normal(size=(20, 1)), 1)
    with pytest.raises(ValueError):
        predict_var(model, np.ones((1, 1)), 1)
    with pytest.raises(ValueError):
        predict_var(model, np.ones((1, 1)), 2, covariate=np.ones(1))


def test_blp_recovers_var1_operator():
    acvf, a = stable_var1_acvf(3, seed=5)
    phis, theta = solve_blp_with_covariates(acvf, m=1)
    assert theta is None
    assert np.allclose(phis[0], a, atol=1e-8)
    phis2, _ = solve_blp_with_covariates(acvf, m=2)
    assert np.allclose(phis2[0], a, atol=1e-8)
    assert np.allclose(phis2[1], 0.0, atol=1e-8)


def test_blp_with_covariates_matches_dense_solve():
    rng = np.random.default_rng(9)
    acvf, _ = stable_var1_acvf(2, seed=9)
    d, r, m = 2, 2, 2
    cross = rng.normal(scale=0.1, size=(m + 1, d, r))
    root = rng.normal(size=(r, r))
    gamma_rr = root @ root.T + np.eye(r)
    phis, theta = solve_blp_with_covariates(acvf, cross=cross, gamma_rr=gamma_rr, m=m)
    big = np.block(
        [
            [acvf.gamma(0), acvf.gamma(1), cross[1]],
            [acvf.gamma(-1), acvf.gamma(0), cross[2]],
            [cross[1].T, cross[2].T, gamma_rr],
        ]
    )
    rhs = np.hstack([acvf.gamma(1), acvf.gamma(2), cross[0]])
    coef = np.linalg.solve(big, rhs.T).T
    assert np.allclose(np.hstack(phis + [theta]), coef, atol=1e-10)


def test_blp_at_order_zero_predicts_from_the_covariate_alone():
    rng = np.random.default_rng(9)
    acvf, _ = stable_var1_acvf(2, seed=9)
    cross = rng.normal(scale=0.1, size=(1, 2, 3))
    root = rng.normal(size=(3, 3))
    gamma_rr = root @ root.T + np.eye(3)
    phis, theta = solve_blp_with_covariates(acvf, cross=cross, gamma_rr=gamma_rr, m=0)
    assert phis == []
    np.testing.assert_allclose(theta, cross[0] @ np.linalg.inv(gamma_rr), rtol=1e-12)
    # no covariate, no predictor
    with pytest.raises(ValueError, match=r"key 'm' must be in 1\.\.acvf\.max_lag = 6, got 0"):
        solve_blp_with_covariates(acvf, m=0)


def test_innovations_ma1_convergence():
    # gamma(0) = 1 + theta^2, gamma(1) = theta for theta = 0.5, sigma^2 = 1
    gammas = np.array([[[1.25]], [[0.5]]] + [[[0.0]]] * 11)
    state = innovations(AcvfSequence(gammas=gammas), 12)
    assert state.v[0][0, 0] == pytest.approx(1.25)
    assert state.v[1][0, 0] == pytest.approx(1.05, abs=1e-12)
    assert state.v[2][0, 0] == pytest.approx(1.0119047619047619, abs=1e-12)
    assert state.thetas[0][0][0, 0] == pytest.approx(0.4, abs=1e-12)
    # the recursion approaches the innovation variance 1 and loading 0.5
    assert state.v[12][0, 0] == pytest.approx(1.0, abs=1e-6)
    assert state.thetas[-1][0][0, 0] == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("d,m,seed", [(1, 3, 0), (2, 4, 1), (3, 2, 2), (3, 4, 3)])
def test_innovations_equal_brute_force_blp(d, m, seed):
    acvf, _ = stable_var1_acvf(d, seed=seed)
    rng = np.random.default_rng(seed + 100)
    history = rng.normal(size=(m, d))
    state = innovations(acvf, m)
    assert np.allclose(
        state.predict_one_step(history), brute_force_blp(acvf, history, m), atol=1e-8
    )


def test_innovations_degenerate_acvf():
    gammas = np.zeros((3, 2, 2))
    with pytest.raises(NumericalDegeneracyError) as info:
        innovations(AcvfSequence(gammas=gammas), 2)
    assert info.value.step == 0


def test_innovations_guards_each_covariance_once(svd_calls):
    acvf, _ = stable_var1_acvf(2, seed=4)
    innovations(acvf, 6)
    assert svd_calls == [(2, 2)] * 6  # V_0..V_5; V_6 is never inverted


def test_innovations_singular_covariance_reports_its_step():
    # gamma(1) = gamma(0) makes V_1 = 0, first inverted in the second row
    gammas = np.ones((3, 1, 1))
    assert innovations(AcvfSequence(gammas=gammas), 1).v[1][0, 0] == 0.0
    with pytest.raises(NumericalDegeneracyError) as info:
        innovations(AcvfSequence(gammas=gammas), 2)
    assert info.value.step == 1


def test_innovations_lag_guard():
    acvf, _ = stable_var1_acvf(2, seed=7, max_lag=2)
    with pytest.raises(ValueError):
        innovations(acvf, 3)


def test_varx_rejects_non_finite_covariates():
    rng = np.random.default_rng(4)
    smat = rng.normal(size=(30, 2))
    rmat = rng.normal(size=(30, 2))
    rmat[7, 1] = np.nan
    with pytest.raises(IngestError, match="row 8, column 2 is"):  # counted from 1
        fit_varx_ols(smat, rmat, 1)
    rmat[7, 1] = 0.0
    rmat[3, 0] = np.inf
    with pytest.raises(IngestError, match="row 4, column 1 is"):
        fit_varx_ols(smat, rmat, 1)


def unit_var1():
    return VarModel(p=1, coeffs=(0.5 * np.eye(2),), sigma_z=np.eye(2), mean=np.zeros(2))


def blp_blocks(m=1, r=2):
    """Autocovariances of a stable VAR(1) on two components with cross blocks for r covariates."""
    acvf, _ = stable_var1_acvf(2, seed=9)
    return acvf, np.full((m + 1, 2, r), 0.01), np.eye(r)


# each guard no other test reaches: (call, error type, message)
GUARDS = {
    "score-array-ndim": (lambda: sample_acvf(np.ones((4, 1, 1)), 0), DimensionMismatchError,
                         "sample_acvf key 'scores' must be a 1-D or 2-D array of finite numbers, "
                         "got an array of shape (4, 1, 1)"),
    "gammas-shape": (lambda: AcvfSequence(gammas=np.ones((2, 2, 3))), ValueError,
                     "AcvfSequence key 'gammas' must be an (m + 1, d, d) array, "
                     "got an array of shape (2, 2, 3)"),
    "gammas-ndim": (lambda: AcvfSequence(gammas=np.ones((2, 2))), DimensionMismatchError,
                    "AcvfSequence key 'gammas' must be a 3-D array of finite numbers, "
                    "got an array of shape (2, 2)"),
    "acvf-mean-length": (lambda: AcvfSequence(gammas=np.ones((2, 2, 2)), mean=np.ones(3)),
                         DimensionMismatchError, "AcvfSequence key 'mean' must be a 1-D array of "
                         "finite numbers of shape (2,), got an array of shape (3,)"),
    "negative-order": (lambda: fit_var_ols(np.ones((10, 2)), -1), ValueError,
                       "fit_var_ols key 'p' must be >= 0, got -1"),
    "horizon": (lambda: predict_var(unit_var1(), np.ones((1, 2)), 0), ValueError,
                "predict_var key 'h' must be >= 1, got 0"),
    "history-width": (lambda: predict_var(unit_var1(), np.ones((1, 3))), DimensionMismatchError,
                      "history rows have length 3, model has d=2"),
    "covariate-without-block": (lambda: predict_var(unit_var1(), np.ones((1, 2)), covariate=[1.0]),
                                ValueError,
                                "model has no exogenous block but a covariate row was passed"),
    "blp-lag-count": (lambda: solve_blp_with_covariates(blp_blocks()[0], m=7), ValueError,
                      "solve_blp_with_covariates key 'm' must be in 1..acvf.max_lag = 6, got 7"),
    "blp-cross-alone": (lambda: solve_blp_with_covariates(blp_blocks()[0], cross=blp_blocks()[1]),
                        ValueError, "cross and gamma_rr must be supplied together"),
    "blp-gamma-rr-alone": (lambda: solve_blp_with_covariates(blp_blocks()[0], gamma_rr=np.eye(2)),
                           ValueError, "cross and gamma_rr must be supplied together"),
    "blp-cross-shape": (lambda: solve_blp_with_covariates(*blp_blocks(m=2), m=1),
                        DimensionMismatchError, "solve_blp_with_covariates key 'cross' must be a "
                        "3-D array of finite numbers of shape (2, 2, r), got an array of shape (3, 2, 2)"),
    "blp-gamma-rr-shape": (lambda: solve_blp_with_covariates(*blp_blocks()[:2], np.eye(3)),
                           DimensionMismatchError, "solve_blp_with_covariates key 'gamma_rr' must be "
                           "a 2-D array of finite numbers of shape (2, 2), got an array of shape (3, 3)"),
    "blp-singular": (lambda: solve_blp_with_covariates(AcvfSequence(gammas=np.zeros((2, 2, 2)))),
                     IllConditionedError, "stacked covariance matrix is numerically singular; "
                     "reduce m or drop covariates"),
    "innovations-history": (lambda: innovations(stable_var1_acvf(2, seed=7)[0], 2)
                            .predict_one_step(np.ones((1, 2))), InsufficientDataError,
                            "need at least m=2 history rows, got 1"),
    "innovations-history-width": (lambda: innovations(stable_var1_acvf(2, seed=7)[0], 2)
                                  .predict_one_step(np.ones((3, 3))), DimensionMismatchError,
                                  "InnovationsState.predict_one_step key 'history' must be a 1-D "
                                  "or 2-D array of finite numbers of shape (m, 2), got an array "
                                  "of shape (3, 3)"),
    "innovations-order": (lambda: innovations(stable_var1_acvf(2, seed=7)[0], 0), ValueError,
                          "innovations key 'm' must be in 1..acvf.max_lag = 6, got 0"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_guards_reject_bad_arguments_with_one_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
