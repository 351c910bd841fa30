"""Every scalar and array argument of the public API is parsed by its one rule (see errors._checked).

A whole number given as a float or a numpy integer gives the bits the int gives; a
non-integer, True and a digit string raise a ValueError naming the function and the
argument, never a bare TypeError.  A number argument takes a numpy float and rejects
True, its text and nan.  An array argument takes nested lists, integer and float arrays
alike, and rejects a nan, inf or text cell by its place and the wrong number of dimensions.
"""

import ast
import math
import pickle
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from curvecast import (
    DimensionMismatchError,
    FunctionalDataset,
    Grid,
    IngestError,
    InsufficientDataError,
    ProcessSpec,
    ScoreMatrix,
    SelectionError,
    bias_bound,
    bosq_predict,
    eigensystem,
    equivalence_gap,
    ffpe,
    fixed_psi,
    ingest,
    inner_product,
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
    synthesize,
)
from curvecast.curves import l2_norm
from curvecast.forecast import ForecastResult, covariate_matrix
from curvecast.multivar import (
    AcvfSequence,
    fit_var_ols,
    fit_varx_ols,
    innovations,
    predict_var,
    sample_acvf,
    solve_blp_with_covariates,
)
from curvecast.simulate import spectral_norm

SPEC = ProcessSpec(kind="far", D=3, sigma=np.ones(3), ar=(fixed_psi("psi1"),), burn_in=20)
DATA = simulate(SPEC, 60, Grid(32), np.random.default_rng(4))
COVARIATE = simulate(SPEC, 60, Grid(32), np.random.default_rng(5))
RMAT = np.random.default_rng(6).normal(size=(60, 2))
SCORES = DATA.values[:, :3]
ACVF = sample_acvf(SCORES, 3)
RESIDUALS = FunctionalDataset(grid=Grid(16), values=np.random.default_rng(7).normal(size=(40, 16)))


def stream(rows_per_curve, tmp_path):
    """ingest's curves from a flat stream of eight values, rows_per_curve to a curve."""
    path = tmp_path / "stream.csv"
    path.write_text("1,2,3,4\n5,6,7,8\n", encoding="utf-8")
    return ingest(path, rows_per_curve=rows_per_curve)


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
    "ffpe-n": (lambda v, tmp: ffpe(v, 1, 2, 1.0, 0.5), 100, "ffpe"),
    "ffpe-p": (lambda v, tmp: ffpe(100, v, 2, 1.0, 0.5), 1, "ffpe"),
    "ffpe-d": (lambda v, tmp: ffpe(100, 1, v, 1.0, 0.5), 2, "ffpe"),
    "ffpe-r": (lambda v, tmp: ffpe(100, 1, 2, 1.0, 0.5, r=v), 2, "ffpe"),
    "ingest-rows_per_curve": (stream, 2, "ingest"),
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
    "ffpe-trace_sigma_z": (lambda v, tmp: ffpe(100, 1, 2, v, 0.5), 1.25, "ffpe"),
    "ffpe-tail": (lambda v, tmp: ffpe(100, 1, 2, 1.0, v), 0.5, "ffpe"),
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
    (lambda tmp: stream(1, tmp), 1, "ingest key 'rows_per_curve' must be >= 2"),
    # an empty covariate list used to end in numpy's "need at least one array to concatenate"
    (lambda tmp: covariate_matrix([], 60), [],
     "covariate_matrix key 'covariates' must be one item or a non-empty list"),
    (lambda tmp: predict_with_covariates(DATA, (), p=1, d=2), (),
     "covariate_matrix key 'covariates' must be one item or a non-empty list"),
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


def test_ffpe_parses_its_arguments_and_keeps_its_domain_error():
    # a fractional order used to be taken as it was, and True as 1
    assert ffpe(100, 1.0, 2, 1.0, 0.5) == ffpe(100, 1, 2, 1.0, 0.5) == 102 / 98 + 0.5
    with pytest.raises(ValueError, match="ffpe key 'p' must be one finite int, got 1.5"):
        ffpe(10, 1.5, 2, 1.0, 0.0)
    with pytest.raises(ValueError, match="ffpe key 'trace_sigma_z' must be >= 0, got -1.0"):
        ffpe(100, 1, 2, -1.0, 0.0)
    with pytest.raises(SelectionError, match=r"n=10 <= p\*d \+ r=10"):
        ffpe(10, 5, 2, 1.0, 0.0)


# array arguments: integer-valued rows, so that a nested list, an integer array and a float
# array can hold the same numbers
ROWS = np.random.default_rng(8).integers(-9, 10, size=(60, 3))
GAMMAS = np.array([[[4, 1], [1, 3]], [[2, 0], [1, 1]], [[1, 0], [0, 1]]])
NILPOTENT = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
CROSS = np.arange(12).reshape(2, 3, 2) % 3 - 1
BAND = prediction_band(RESIDUALS, 0.8)
# argument -> (call with the argument's value, a valid integer array of the most dimensions
# the argument takes, the message's owner)
ARRAYS = {
    "FunctionalDataset-values": (lambda v: FunctionalDataset(grid=Grid(3), values=v), ROWS,
                                 "FunctionalDataset"),
    "ScoreMatrix-scores": (lambda v: ScoreMatrix(scores=v), ROWS, "ScoreMatrix"),
    "AcvfSequence-gammas": (lambda v: AcvfSequence(gammas=v), GAMMAS, "AcvfSequence"),
    "AcvfSequence-mean": (lambda v: AcvfSequence(gammas=GAMMAS, mean=v), np.array([1, -2]),
                          "AcvfSequence"),
    "ProcessSpec-sigma": (lambda v: ProcessSpec(kind="far", D=3, sigma=v, ar=(NILPOTENT,),
                                                burn_in=5), np.array([3, 2, 1]), "process spec"),
    "ProcessSpec-ar": (lambda v: ProcessSpec(kind="far", D=3, sigma=[1, 1, 1], ar=(v,), burn_in=5),
                       NILPOTENT, "process spec"),
    "ProcessSpec-ma": (lambda v: ProcessSpec(kind="fma", D=3, sigma=[1, 1, 1], ma={1: v},
                                             burn_in=5), NILPOTENT, "process spec"),
    "ForecastResult-scores": (lambda v: ForecastResult("var", 1, 2, v, [1, 2, 3]),
                              np.array([1, -1]), "ForecastResult"),
    "ForecastResult-curve": (lambda v: ForecastResult("var", 1, 2, [1, 2], v), np.array([3, 2, 1]),
                             "ForecastResult"),
    "inner_product-f": (lambda v: inner_product(v, np.arange(16), Grid(16)), np.arange(16) - 5,
                        "inner_product"),
    "inner_product-g": (lambda v: inner_product(np.ones(16), v, Grid(16)), np.arange(16) - 5,
                        "inner_product"),
    "l2_norm-f": (lambda v: l2_norm(v, Grid(16)), np.arange(16) - 5, "l2_norm"),
    "synthesize-coeffs": (lambda v: synthesize(v, make_fourier_basis(3, Grid(32))), ROWS[:10],
                          "synthesize"),
    "fit_var_ols-scores": (lambda v: fit_var_ols(v, 1), ROWS, "fit_var_ols"),
    "fit_varx_ols-scores": (lambda v: fit_varx_ols(v, RMAT, 1), ROWS, "fit_varx_ols"),
    "sample_acvf-scores": (lambda v: sample_acvf(v, 2), ROWS, "sample_acvf"),
    "predict_var-history": (lambda v: predict_var(fit_var_ols(SCORES, 1), v), ROWS[:5],
                            "predict_var"),
    "predict_var-covariate": (lambda v: predict_var(fit_varx_ols(SCORES, RMAT, 1), SCORES[-2:],
                                                    covariate=v), np.array([1, -1]), "predict_var"),
    "solve_blp_with_covariates-cross": (
        lambda v: solve_blp_with_covariates(ACVF, v, 100 * np.eye(2), m=1), CROSS,
        "solve_blp_with_covariates"),
    "solve_blp_with_covariates-gamma_rr": (
        lambda v: solve_blp_with_covariates(ACVF, CROSS, v, m=1), np.array([[100, 1], [1, 100]]),
        "solve_blp_with_covariates"),
    "InnovationsState.predict_one_step-history": (
        lambda v: innovations(ACVF, 2).predict_one_step(v), ROWS[:4],
        "InnovationsState.predict_one_step"),
    "PredictionBand.contains-center": (lambda v: BAND.contains(v, np.zeros((3, 16))),
                                       np.arange(16) % 3 - 1, "PredictionBand.contains"),
    "PredictionBand.contains-curve": (lambda v: BAND.contains(np.zeros(16), v),
                                      (np.arange(48) % 5 - 2).reshape(3, 16),
                                      "PredictionBand.contains"),
    "random_operator-sigma": (lambda v: random_operator(3, v, np.random.default_rng(1)),
                              np.array([3, 2, 1]), "random_operator"),
    "spectral_norm-a": (lambda v: spectral_norm(v), NILPOTENT + 2, "spectral_norm"),
    "bias_bound-ar_operators": (lambda v: bias_bound(v, [3.0, 2.0, 1.0], 2), NILPOTENT[None],
                                "bias_bound"),
    "bias_bound-eigenvalues": (lambda v: bias_bound([fixed_psi("psi1")], v, 2), np.array([3, 2, 1]),
                               "bias_bound"),
}
# the covariate arguments, whose one guard (multivar._check_covariates) raises typed errors
COVARIATES = {"fit_varx_ols-covariates", "select_pd-covariate_scores"}


def place(index):
    """A cell's place in an error message, counted from 1."""
    names = ("cell",) if len(index) == 1 else ("block", "row", "column")[-len(index):]
    return ", ".join(f"{name} {i + 1}" for name, i in zip(names, index))


def with_last_cell(good, cell):
    """good as nested lists with its last cell replaced by cell."""
    cells = good.astype(object)
    cells[(-1,) * good.ndim] = cell
    return cells.tolist()


@pytest.mark.parametrize("argument", ARRAYS)
def test_array_arguments_parse_by_their_rule(argument):
    call, good, owner = ARRAYS[argument]
    key = f"{owner} key {argument.rpartition('-')[2]!r} must "
    last = place(tuple(n - 1 for n in good.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        want = pickle.dumps(call(good.astype(float)))
        for same in (good, good.tolist()):
            assert pickle.dumps(call(same)) == want
        # a text cell turns a whole numpy array into text, so its first cell is named
        for bad, shown in ((with_last_cell(good, math.nan), f"nan at {last}"),
                           (with_last_cell(good, math.inf), f"inf at {last}"),
                           (np.where(np.arange(good.size).reshape(good.shape) == good.size - 1,
                                     -math.inf, good), f"-inf at {last}"),
                           (with_last_cell(good, "x"), f"'x' at {last}"),
                           (good.astype(str), f"'{good.flat[0]}' at {place((0,) * good.ndim)}")):
            with pytest.raises(ValueError) as err:  # a TypeError or LinAlgError fails the test
                call(bad)
            assert key in str(err.value) and f"got {shown}" in str(err.value)
        with pytest.raises(DimensionMismatchError) as err:
            call(good[None])
        assert key in str(err.value) and f"got an array of shape {(1, *good.shape)}" in str(err.value)


def test_covariate_text_cells_are_named_by_the_covariate_guard():
    rmat = with_last_cell(RMAT, "x")
    for call in (lambda: fit_varx_ols(SCORES, rmat, 1), lambda: select_pd(DATA, 1, 2, rmat)):
        with pytest.raises(IngestError, match="^covariate row 60, column 2 is 'x', not a number$"):
            call()


def test_a_shown_value_fits_on_one_short_line():
    # repr of an int of 40001 digits raised numpy's own ValueError in place of this one, and a
    # ragged list of arrays put a multi-line array repr in the message
    with pytest.raises(ValueError, match="^ffpe key 'n' must be one finite int, got a value of "
                                         "type int too large to show$"):
        ffpe(10**40000, 1, 1, 1.0, 0.0)
    with pytest.raises(ValueError, match=re.escape("fit_var_ols key 'scores' must be a 1-D or 2-D "
                                                   "array of finite numbers, got an array of shape "
                                                   "(2, 2) at cell 1")):
        fit_var_ols([np.zeros((2, 2)), np.zeros((2, 3))], 1)
    with pytest.raises(ValueError) as err:
        ffpe(list(range(1000)), 1, 1, 1.0, 0.0)
    assert str(err.value).endswith("got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16...")
    with pytest.raises(IngestError, match=re.escape(f"is '{'x' * 56}..., not a number")):
        fit_varx_ols(SCORES, with_last_cell(RMAT, "x" * 200), 1)


def test_an_eigenvalue_before_d_is_checked_too():
    # bias_bound used to sum only the eigenvalues past d, so these were ignored
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"bias_bound key 'eigenvalues' must be a 1-D array of "
                                             f"finite numbers, got {bad} at cell 1"):
            bias_bound([fixed_psi("psi1")], [bad, 2.0, 1.0], 2)


def array_rule_names(tree):
    """The names a module or function binds to an _array(...) rule."""
    return {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) == "_array"
            for target in node.targets if isinstance(target, ast.Name)}


def array_parameters():
    """Owner-argument of each array parameter of a public function, method or checked dataclass.

    A parameter counts when it is annotated np.ndarray, or handed as it is to a numpy
    conversion, to an array rule through errors._argument, or to a score or covariate guard.
    """
    src = Path(__file__).resolve().parents[1] / "src" / "curvecast"
    guards = {"asarray", "array", "atleast_2d", "_score_rows", "_check_covariates",
              "_covariate_block"}
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module_rules = array_rule_names(tree)
        owners = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            owners += [(f"{cls.name}.{fn.name}", fn) for fn in cls.body
                       if isinstance(fn, ast.FunctionDef)]
            if any(getattr(fn, "name", None) == "__post_init__" for fn in cls.body):
                found |= {f"{cls.name}-{field.target.id}" for field in cls.body
                          if isinstance(field, ast.AnnAssign) and "ndarray" in ast.unparse(field.annotation)
                          and "init=False" not in ast.unparse(field) and not cls.name.startswith("_")}
        for owner, fn in owners:
            if any(part.startswith("_") for part in owner.split(".")):
                continue
            rules = module_rules | array_rule_names(fn)
            for arg in fn.args.args + fn.args.kwonlyargs:
                if arg.annotation is not None and "ndarray" in ast.unparse(arg.annotation):
                    found.add(f"{owner}-{arg.arg}")
            for call in (node for node in ast.walk(fn) if isinstance(node, ast.Call)):
                name = getattr(call.func, "attr", getattr(call.func, "id", None))
                handed = call.args[:1] if name in guards else []  # the value a guard converts
                if name == "_argument" and len(call.args) == 4:
                    rule = call.args[3]
                    if (isinstance(rule, ast.Call) and getattr(rule.func, "id", None) == "_array"
                            or isinstance(rule, ast.Name) and rule.id in rules):
                        handed = call.args[2:3]
                params = {arg.arg for arg in fn.args.args + fn.args.kwonlyargs}
                found |= {f"{owner}-{a.id}" for a in handed if isinstance(a, ast.Name) and a.id in params}
    return found


def test_every_array_parameter_is_in_the_arrays_table():
    found = array_parameters()
    assert found - ARRAYS.keys() - COVARIATES == set()
    assert COVARIATES <= found and len(found) > 20  # the walk still sees the guards
