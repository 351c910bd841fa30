"""Every scalar argument of the public API is parsed by its one rule (see errors._checked).

A whole number given as a float or a numpy integer gives the bits the int gives; a
non-integer, True and a digit string raise a ValueError naming the function and the
argument, never a bare TypeError.  A number argument takes a numpy float and rejects
True, its text and nan.
"""

import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from curvecast import (
    FunctionalDataset,
    Grid,
    InsufficientDataError,
    ProcessSpec,
    bias_bound,
    bosq_predict,
    eigensystem,
    equivalence_gap,
    fixed_psi,
    make_fourier_basis,
    make_pm10_analog,
    predict_fts,
    predict_with_covariates,
    prediction_band,
    pve_dimension,
    random_operator,
    rolling_residuals,
    scalar_predict,
    select_pd,
    sigma_scheme,
    simulate,
)
from curvecast.forecast import covariate_matrix
from curvecast.multivar import (
    fit_var_ols,
    fit_varx_ols,
    innovations,
    predict_var,
    sample_acvf,
    solve_blp_with_covariates,
)

SPEC = ProcessSpec(kind="far", D=3, sigma=np.ones(3), ar=(fixed_psi("psi1"),), burn_in=20)
DATA = simulate(SPEC, 60, Grid(32), np.random.default_rng(4))
COVARIATE = simulate(SPEC, 60, Grid(32), np.random.default_rng(5))
RMAT = np.random.default_rng(6).normal(size=(60, 2))
SCORES = DATA.values[:, :3]
ACVF = sample_acvf(SCORES, 3)
RESIDUALS = FunctionalDataset(grid=Grid(16), values=np.random.default_rng(7).normal(size=(40, 16)))


def pm10_files(tmp_path, **kwargs):
    """The bytes of the two files make_pm10_analog writes."""
    paths = make_pm10_analog(tmp_path, **{"n_days": 20, "seed": 2, **kwargs})
    return [Path(path).read_bytes() for path in paths]


# argument -> (call with the argument's value, a valid integer value, the message's owner)
INTEGERS = {
    "predict_fts-h": (lambda v, tmp: predict_fts(DATA, h=v, p=1, d=2), 2, "method 'predict_fts'"),
    "predict_fts-p": (lambda v, tmp: predict_fts(DATA, p=v, d=2), 1, "method 'predict_fts'"),
    "predict_fts-d": (lambda v, tmp: predict_fts(DATA, p=1, d=v), 2, "method 'predict_fts'"),
    "predict_fts-p_max": (lambda v, tmp: predict_fts(DATA, p_max=v, d_max=2), 1,
                          "method 'predict_fts'"),
    "predict_fts-d_max": (lambda v, tmp: predict_fts(DATA, p_max=1, d_max=v), 2,
                          "method 'predict_fts'"),
    "scalar_predict-d": (lambda v, tmp: scalar_predict(DATA, v, 1), 2, "method 'scalar_predict'"),
    "scalar_predict-p": (lambda v, tmp: scalar_predict(DATA, 2, v), 1, "method 'scalar_predict'"),
    "scalar_predict-h": (lambda v, tmp: scalar_predict(DATA, 2, 1, h=v), 2,
                         "method 'scalar_predict'"),
    "bosq_predict-d": (lambda v, tmp: bosq_predict(DATA, v), 2, "method 'bosq_predict'"),
    "bosq_predict-p": (lambda v, tmp: bosq_predict(DATA, 2, p=v), 2, "method 'bosq_predict'"),
    "predict_with_covariates-h": (lambda v, tmp: predict_with_covariates(DATA, RMAT, h=v, p=1, d=2),
                                  1, "method 'predict_with_covariates'"),
    "predict_with_covariates-p": (lambda v, tmp: predict_with_covariates(DATA, RMAT, p=v, d=2), 1,
                                  "method 'predict_with_covariates'"),
    "predict_with_covariates-d": (lambda v, tmp: predict_with_covariates(DATA, RMAT, p=1, d=v), 2,
                                  "method 'predict_with_covariates'"),
    "predict_with_covariates-p_max": (
        lambda v, tmp: predict_with_covariates(DATA, RMAT, p_max=v, d_max=2), 1,
        "method 'predict_with_covariates'"),
    "predict_with_covariates-d_max": (
        lambda v, tmp: predict_with_covariates(DATA, RMAT, p_max=1, d_max=v), 2,
        "method 'predict_with_covariates'"),
    "predict_with_covariates-covariate_dims": (
        lambda v, tmp: predict_with_covariates(DATA, COVARIATE, p=1, d=2, covariate_dims=v), 2,
        "covariate_matrix key 'dims'"),
    "covariate_matrix-dims": (lambda v, tmp: covariate_matrix([RMAT, COVARIATE], 60, dims=[None, v]),
                              2, "covariate_matrix"),
    "equivalence_gap-d": (lambda v, tmp: equivalence_gap(DATA, v), 2, "method 'equivalence_gap'"),
    "select_pd-p_max": (lambda v, tmp: select_pd(DATA, v, 3), 2, "select_pd"),
    "select_pd-d_max": (lambda v, tmp: select_pd(DATA, 2, v), 3, "select_pd"),
    "eigensystem-d": (lambda v, tmp: eigensystem(DATA, v), 2, "eigensystem"),
    "truncate-d": (lambda v, tmp: eigensystem(DATA, 4).truncate(v), 2, "EigenSystem.truncate"),
    "rolling_residuals-d": (lambda v, tmp: rolling_residuals(DATA, v, 1), 2,
                            "method 'rolling_residuals'"),
    "rolling_residuals-p": (lambda v, tmp: rolling_residuals(DATA, 2, v), 1,
                            "method 'rolling_residuals'"),
    "rolling_residuals-L": (lambda v, tmp: rolling_residuals(DATA, 2, 1, L=v), 30,
                            "rolling_residuals"),
    "Grid-T": (lambda v, tmp: Grid(v), 16, "Grid"),
    "make_fourier_basis-D": (lambda v, tmp: make_fourier_basis(v, Grid(32)), 3,
                             "make_fourier_basis"),
    "sigma_scheme-D": (lambda v, tmp: sigma_scheme("s1", v), 3, "sigma_scheme"),
    "random_operator-D": (lambda v, tmp: random_operator(v, np.ones(3), np.random.default_rng(1)),
                          3, "random_operator"),
    "simulate-n": (lambda v, tmp: simulate(SPEC, v, Grid(32), np.random.default_rng(2)), 5,
                   "simulate"),
    "bias_bound-d": (lambda v, tmp: bias_bound([fixed_psi("psi1")], [3.0, 2.0, 1.0], v), 2,
                     "bias_bound"),
    "fit_var_ols-p": (lambda v, tmp: fit_var_ols(SCORES, v), 2, "fit_var_ols"),
    "fit_varx_ols-p": (lambda v, tmp: fit_varx_ols(SCORES, RMAT, v), 2, "fit_varx_ols"),
    "predict_var-h": (lambda v, tmp: predict_var(fit_var_ols(SCORES, 1), SCORES, h=v), 3,
                      "predict_var"),
    "innovations-m": (lambda v, tmp: innovations(ACVF, v), 2, "innovations"),
    "solve_blp_with_covariates-m": (lambda v, tmp: solve_blp_with_covariates(ACVF, m=v), 2,
                                    "solve_blp_with_covariates"),
    "make_pm10_analog-n_days": (lambda v, tmp: pm10_files(tmp, n_days=v), 20, "make_pm10_analog"),
    "make_pm10_analog-seed": (lambda v, tmp: pm10_files(tmp, seed=v), 2, "make_pm10_analog"),
    "sample_acvf-max_lag": (lambda v, tmp: sample_acvf(SCORES, v), 2, "sample_acvf"),
    "gamma-k": (lambda v, tmp: ACVF.gamma(v), 2, "AcvfSequence.gamma"),
    "tail_variance-d": (lambda v, tmp: eigensystem(DATA, 4).tail_variance(v), 2,
                        "EigenSystem.tail_variance"),
}
# the same for arguments that take one number
NUMBERS = {
    "pve_dimension-threshold": (lambda v, tmp: pve_dimension(DATA, v), 0.9, "pve_dimension"),
    "prediction_band-alpha": (lambda v, tmp: prediction_band(RESIDUALS, v), 0.8, "prediction_band"),
    "covariate_matrix-pve": (lambda v, tmp: covariate_matrix(COVARIATE, 60, pve=v), 0.9,
                             "covariate_matrix"),
    "predict_with_covariates-covariate_pve": (
        lambda v, tmp: predict_with_covariates(DATA, COVARIATE, p=1, d=2, covariate_pve=v), 0.9,
        "covariate_matrix key 'pve'"),
    "make_pm10_analog-missing_rate": (lambda v, tmp: pm10_files(tmp, missing_rate=v), 0.05,
                                      "make_pm10_analog"),
}


def check(call, good, owner, argument, same, bad, tmp_path):
    want = pickle.dumps(call(good, tmp_path))
    for value in same:
        assert pickle.dumps(call(value, tmp_path)) == want, value
    key = owner if " key " in owner else f"{owner} key {argument!r}"
    for value in bad:
        with pytest.raises(ValueError) as err:  # a TypeError fails the test
            call(value, tmp_path)
        assert f"{key} must " in str(err.value), value


@pytest.mark.parametrize("argument", INTEGERS)
def test_integer_arguments_parse_by_their_rule(tmp_path, argument):
    call, good, owner = INTEGERS[argument]
    check(call, good, owner, argument.rpartition("-")[2], (float(good), np.int64(good)),
          (good + 0.5, True, str(good)), tmp_path)


@pytest.mark.parametrize("argument", NUMBERS)
def test_number_arguments_parse_by_their_rule(tmp_path, argument):
    call, good, owner = NUMBERS[argument]
    check(call, good, owner, argument.rpartition("-")[2], (np.float64(good),),
          (True, str(good), math.nan), tmp_path)


@pytest.mark.parametrize("call, value, message", [
    (lambda tmp: ACVF.gamma(-4), -4, "AcvfSequence.gamma key 'k' must be in -3..max_lag = 3"),
    (lambda tmp: sample_acvf(SCORES, -1), -1, "sample_acvf key 'max_lag' must be >= 0"),
    (lambda tmp: eigensystem(DATA, 4).tail_variance(-1), -1,
     "EigenSystem.tail_variance key 'd' must be >= 0"),
    (lambda tmp: pm10_files(tmp, missing_rate=1.0), 1.0,
     "make_pm10_analog key 'missing_rate' must be in [0, 1)"),
    (lambda tmp: pm10_files(tmp, missing_rate=-0.5), -0.5,
     "make_pm10_analog key 'missing_rate' must be in [0, 1)"),
])
def test_out_of_range_arguments_name_their_rule(tmp_path, call, value, message):
    with pytest.raises(ValueError) as err:
        call(tmp_path)
    assert str(err.value) == f"{message}, got {value}"


def test_building_blocks_keep_their_ranges():
    # a lag past the sample stays a data error, and the tail past the pairs held is 0
    with pytest.raises(InsufficientDataError, match="max_lag=60 needs max_lag < n=60"):
        sample_acvf(SCORES, 60)
    eig = eigensystem(DATA, 2)
    assert eig.tail_variance(0) == eig.total_variance
    assert eig.tail_variance(5) == eig.tail_variance(2.0) == eig.tail_variance()
