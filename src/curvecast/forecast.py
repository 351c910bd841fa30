"""One- and multi-step curve prediction built on score vector models.

All predictors share the same skeleton: project curves to scores,
predict the next score vector, and rebuild a curve from the truncated
expansion.  They differ only in how the score prediction is formed.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from .curves import FunctionalDataset, Grid, _readonly, l2_norm
from .errors import (IllConditionedError, InsufficientDataError, _argument, _array, _at_least, _checked,
                     _one_of)
from .fpca import _PVE, EigenSystem, ScoreMatrix, _pve_rank, eigensystem, reconstruct, scores
from .multivar import (
    _HORIZON,
    _ORDER,
    AcvfSequence,
    VarModel,
    _check_covariates,
    _covariate_block,
    _fit_ols,
    sample_acvf,
    solve_blp_with_covariates,
)
from .selection import _CORNERS, _sweep

EIGENVALUE_RTOL = 1e-12


@dataclass(frozen=True)
class ForecastResult:
    """Predicted curve along with the score-space view that produced it."""

    method: str
    p: int
    d: int
    scores: np.ndarray
    curve: np.ndarray

    def __post_init__(self):
        for key in ("scores", "curve"):
            value = _argument("ForecastResult", key, vars(self)[key], _array(1))
            object.__setattr__(self, key, _readonly(value))

    def to_json(self) -> str:
        payload = dict(vars(self), scores=self.scores.tolist(), curve=self.curve.tolist())
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ForecastResult":
        return cls(**json.loads(text))


def _scalar_var(s: np.ndarray, p: int) -> VarModel:
    """d univariate AR(p) fits, one per score column, as one VAR with diagonal coefficients."""
    fits = [_fit_ols(s[:, j : j + 1], p) for j in range(s.shape[1])]
    coeffs = tuple(np.diag([f.coeffs[i][0, 0] for f in fits]) for i in range(p))
    sigma = np.diag([f.sigma_z[0, 0] for f in fits])
    return VarModel(p=p, coeffs=coeffs, sigma_z=sigma, mean=np.array([f.mean[0] for f in fits]))


def _bosq_var(s: np.ndarray, lams: np.ndarray) -> VarModel:
    """The benchmark's eigenvalue-weighted lag-1 operator as a VAR(1) on uncentred scores."""
    if lams[-1] <= EIGENVALUE_RTOL * lams[0]:
        raise IllConditionedError(
            f"eigenvalue {lams.shape[0]} is below {EIGENVALUE_RTOL} of the leading one; "
            "reduce d"
        )
    n = s.shape[0]
    op = (s[1:].T @ s[:-1] / (n - 1)) / lams[None, :]
    resid = s[1:] - s[:-1] @ op.T
    return VarModel(p=1, coeffs=(op,), sigma_z=resid.T @ resid / (n - 1), mean=np.zeros(s.shape[1]))


def _blp_var(s: np.ndarray, rmat: np.ndarray, m: int, block) -> VarModel:
    """Best linear predictor from the last m score rows and covariate row, from sample moments.

    At m = 0 the covariate row alone predicts: theta = Gamma_YR(1) Gamma_R(0)^-1.  A constant
    covariate column, found by rmat's _covariate_block, is left out of the moments and loads 0.
    """
    d, covariate_mean, keep = s.shape[1], block[1].copy(), block[2]
    # autocovariances of the joint sequence (Y, R): the Y block of lag k is Gamma_Y(k) and
    # the Y-R block of lag 1 - k is Cov(Y_t, R_{t-1+k}), the k-th cross-covariance block;
    # lag 1 is read even at m = 0, for Gamma_YR(1)
    joint = sample_acvf(np.hstack([s, np.ascontiguousarray(rmat[:, keep])]), max(m, 1))
    acvf = AcvfSequence(gammas=joint.gammas[:, :d, :d], mean=joint.mean[:d])
    cross = np.array([joint.gamma(1 - k)[:d, d:] for k in range(m + 1)])
    phis, kept = solve_blp_with_covariates(acvf, cross, joint.gamma(0)[d:, d:], m)
    # one-step error covariance Gamma(0) - C R' of the solved normal equations C B = R
    sigma = acvf.gamma(0) - kept @ cross[0].T
    sigma -= sum(phi @ acvf.gamma(i).T for i, phi in enumerate(phis, start=1))
    theta = np.zeros((d, rmat.shape[1]), order="F")  # the solve's layout, which a forecast's bits follow
    theta[:, keep], covariate_mean[keep] = kept, joint.mean[d:]
    return VarModel(p=m, coeffs=tuple(phis), sigma_z=sigma, mean=acvf.mean, theta=theta,
                    covariate_mean=covariate_mean)


_VAR_KEYS = ("name", "label", "p", "d", "p_max", "d_max")
# method name -> (ForecastResult.method, the keys the method reads, whether it predicts one step only)
_METHODS = {"ffpe-var": ("var", _VAR_KEYS, False), "fixed-var": ("var", _VAR_KEYS, False),
            "scalar": ("scalar", _VAR_KEYS[:4], False),
            "bosq": ("bosq", (*_VAR_KEYS[:4], "pve"), True),
            "covariate": ("covariate", (*_VAR_KEYS, "solver"), True)}
# every key a method dict may hold, with its rule (see errors._checked), and bosq's rule of p
_RULES = {"name": _one_of(*_METHODS), "label": str, "p": _ORDER, "d": _at_least(1), **_CORNERS,
          "pve": _PVE, "solver": _one_of("ols", "blp")}
_BOSQ_P = _at_least(1)


def _owner(method) -> str:
    """How an error names a method dict: by its label, else its name."""
    return f"method {method.get('label', method.get('name'))!r}"


def _check_method(method: dict, h: int) -> dict:
    """method without its None values, which count as absent, once its keys and values are valid.

    Each key is parsed by its rule in _RULES, so p and p_max come back as ints >= 0, d and
    d_max as ints >= 1 and pve as a float in (0, 1].  bosq needs p >= 1 (default 1) and takes
    d or pve, which fixes d, not both; scalar needs p and d, and every other method exactly one
    of (p, d) and (p_max, d_max); h, an int >= 1, must be 1 for bosq and covariate.
    """
    owner = _owner(method)
    given = _checked(method, _RULES, owner, needs=("name",))
    name = given["name"]
    _checked(given, {key: _RULES[key] for key in _METHODS[name][1]}, owner)
    if h != 1 and _METHODS[name][2]:
        raise ValueError(f"the {name} method predicts one step only, got horizon {h}")
    pairs = {"p", "d", "p_max", "d_max"} & given.keys()
    if name == "bosq":
        _checked({"p": given.get("p")}, {"p": _BOSQ_P}, owner)
        if {"d", "pve"} <= given.keys():
            raise ValueError(f"{owner} takes d or pve, which fixes d, not both")
    elif name == "scalar" and pairs != {"p", "d"}:
        raise ValueError("scalar forecasting needs p and d")
    elif pairs not in ({"p", "d"}, {"p_max", "d_max"}):
        raise ValueError("pass exactly one of (p, d) or (p_max, d_max)")
    return given


def _head(data: FunctionalDataset, m: int) -> FunctionalDataset:
    """The first m curves of data, as a view of its read-only values."""
    return data if m == data.n else FunctionalDataset._own(data.grid, data.values[:m])


@dataclass(frozen=True)
class _Fit:
    """A score model fitted on the first curves of a dataset, with every curve's scores."""

    method: str
    p: int
    d: int
    eig: EigenSystem
    scores: np.ndarray
    model: VarModel
    covariates: np.ndarray
    lag: int  # the benchmark's score row i stacks curves i + lag down to i
    criterion: float


def _basis(data: FunctionalDataset, m: int, methods) -> EigenSystem | None:
    """The first m curves' eigensystem as wide as the widest checked method reads, or None if none does.
    A method reads d, else min(d_max, m - 1, T), else min(m - 1, T) for bosq's PVE choice, and a bosq
    fit of p >= 2 stacked blocks at a given d reads none, as its blocks solve their own.  A d above
    min(m - 1, T) is refused in the widest method's name."""
    widths = [(meth["d"] if "d" in meth else min(meth.get("d_max", m), m - 1, data.T), _owner(meth))
              for meth in methods if "d" not in meth or meth["name"] != "bosq" or meth.get("p", 1) == 1]
    if not widths:
        return None
    d, owner = max(widths)
    return eigensystem(_head(data, m), d, _owner=owner)


def _fit(data: FunctionalDataset, m: int, method: dict, rmat=None, eig=None) -> _Fit:
    """Fit one checked method on the first m curves of data and project all n curves.

    method, as :func:`_check_method` returned it, holds a name (ffpe-var, fixed-var, scalar, bosq or
    covariate) and p and d, or p_max and d_max to select both by the criterion.  The benchmark takes p
    (default 1) and d, or else pve (default 0.8) to fix d.  Covariate takes solver 'ols' (default) or
    'blp' and needs rmat, one row per curve.  eig, the :func:`_basis` of methods holding this one,
    spares the fit its own.  Only the checks that need data run here.
    """
    name, p, d = method["name"], method.get("p"), method.get("d")
    lag, block, eig = 0, None, eig or _basis(data, m, [method])
    if name == "bosq":  # without d, d from the training curves' spectrum, at p = 1 the basis too
        p, pve = method.get("p", 1), method.get("pve", 0.8)
        d, top = d or _pve_rank(eig, pve), min(m - p, p * data.T)  # top: the stacked blocks' widest d
        if m - p + 1 < 2:
            raise InsufficientDataError(f"n={m} too small for p={p} stacked blocks")
        if d > top and "d" not in method:
            raise ValueError(f"{_owner(method)} key 'pve' = {pve} picks d = {d} from the training "
                             f"curves, above min(m - p, pT) = {top} for its p = {p} stacked blocks")
        if p > 1:  # the benchmark runs on blocks of p consecutive curves
            blocks = np.hstack([data.values[p - 1 - j : data.n - j] for j in range(p)])
            data = FunctionalDataset(grid=Grid(p * data.T), values=blocks)
        lag, m = p - 1, m - p + 1
    elif name == "covariate":
        rmat = _check_covariates(rmat, data.n)
        block = _covariate_block(rmat[:m])
    train, table = _head(data, m), None
    if "p_max" in method:  # the training rows keep the sweep's scores; only later curves are projected
        table = _sweep(train, eig, method["p_max"], method["d_max"], block)
        (p, d), later = table.best, data.values[m:]
        eig, s = eig.truncate(d), table.scores[:, :d]
        if len(later):
            s = np.vstack([s, scores(FunctionalDataset._own(data.grid, later), eig).scores])
    else:
        eig = eigensystem(train, d, _owner=_owner(method)) if lag else eig.truncate(d)
        s = scores(data, eig).scores
    if name == "bosq":
        model = _bosq_var(s[:m], eig.eigenvalues)
    elif name == "scalar":
        model = _scalar_var(s[:m], p)
    elif method.get("solver", "ols") == "ols":
        model = _fit_ols(s[:m], p, block)
    else:
        model = _blp_var(s[:m], rmat[:m], p, block)
    criterion = None if table is None else table.best_cell().value
    return _Fit(_METHODS[name][0], p, d, eig, s, model, rmat, lag, criterion)


def _predict(fit: _Fit, ends, h: int = 1):
    """Scores and curves h steps after each curve index in ends, from the curves up to it.

    One batched recursion serves every end; each row is what predict_var makes of its history.
    """
    model = fit.model
    rows = np.asarray(ends) - fit.lag
    c = fit.scores - model.mean
    have = int(rows.min()) + 1
    if have < model.p:
        raise InsufficientDataError(f"need at least p={model.p} history rows, got {max(have, 0)}")
    lags = [c[rows - j] for j in range(model.p)]  # lags[j] holds lag j + 1 of every end
    pred = np.zeros((rows.size, c.shape[1]))
    for _ in range(h):
        pred = sum((lag @ phi.T for lag, phi in zip(lags, model.coeffs)), np.zeros_like(pred))
        lags = [pred] + lags[:-1]
    if model.theta is not None:
        pred = pred + (fit.covariates[ends] - model.covariate_mean) @ model.theta.T
    pred = pred + model.mean
    curves = reconstruct(ScoreMatrix(pred), fit.eig).values
    return pred, curves[:, : fit.eig.grid.T // (fit.lag + 1)]


def _result(fit: _Fit, h: int = 1) -> ForecastResult:
    """The curve h steps past the last curve whose scores fit holds."""
    pred, curves = _predict(fit, [fit.lag + len(fit.scores) - 1], h)
    return ForecastResult(method=fit.method, p=fit.p, d=fit.d, scores=pred[0], curve=curves[0])


def _forecast(data: FunctionalDataset, method: dict, rmat=None, h: int = 1) -> ForecastResult:
    """Check h and method once, fit method on every curve of data and predict h steps past the last."""
    h = _argument(_owner(method), "h", h, _HORIZON)
    return _result(_fit(data, data.n, _check_method(method, h), rmat), h)


def predict_fts(
    data: FunctionalDataset,
    h: int = 1,
    p: int = None,
    d: int = None,
    p_max: int = None,
    d_max: int = None,
) -> ForecastResult:
    """Forecast the next curve(s) with a VAR on score vectors.

    Either fix the order and dimension with p and d, or pass p_max and
    d_max to pick both by the prediction error criterion first.

    Returns
    -------
    ForecastResult
        The h-step-ahead curve prediction.
    """
    method = {"name": "fixed-var", "label": "predict_fts", "p": p, "d": d, "p_max": p_max,
              "d_max": d_max}
    return _forecast(data, method, h=h)


def bosq_predict(data: FunctionalDataset, d: int, p: int = 1) -> ForecastResult:
    """One-step prediction with the classical first-order benchmark.

    With p > 1 the benchmark runs on blocks of p consecutive curves:
    (Y_k, ..., Y_{k-p+1}) are stacked into curves on a p-fold grid, the
    first-order predictor runs there, and the leading block is returned.
    """
    return _forecast(data, {"name": "bosq", "label": "bosq_predict", "p": p, "d": d})


def scalar_predict(data: FunctionalDataset, d: int, p: int, h: int = 1) -> ForecastResult:
    """Forecast with d decoupled univariate autoregressions on the scores."""
    return _forecast(data, {"name": "scalar", "label": "scalar_predict", "p": p, "d": d}, h=h)


def covariate_matrix(covariates, n: int, dims=None, pve: float = None):
    """Assemble an (n, r) numeric covariate matrix.

    covariates may be a single item or a non-empty list; each item, checked by the
    one covariate guard that :func:`fit_varx_ols` runs too, is either an
    (n,) / (n, q) numeric array or a FunctionalDataset of n curves whose
    score vectors enter.  Functional items are projected onto enough
    components to explain at least pve (None means 0.9) of their variance
    unless an explicit entry of dims overrides the dimension; dims holds one
    entry per item, or one for all, and a numeric item's entry must be None.
    A pve that no functional item without a dims entry reads is refused.
    """
    items = covariates if isinstance(covariates, (list, tuple)) else [covariates]
    _argument("covariate_matrix", "covariates", items, (object, len, "be one item or a non-empty list"))
    if np.ndim(dims) == 0:  # None or one dimension for every item
        dims = [dims] * len(items)
    if len(dims) != len(items):
        raise ValueError(f"dims has {len(dims)} entries for {len(items)} covariates")
    dims = [_checked({"dims": v}, {"dims": _RULES["d"]}, "covariate_matrix").get("dims") for v in dims]
    if pve is not None and not any(isinstance(item, FunctionalDataset) and dim is None
                                   for item, dim in zip(items, dims)):
        raise ValueError("covariate_matrix key 'pve' is read by a functional item without a dims "
                         "entry only, and no item is one")
    pve = _argument("covariate_matrix", "pve", 0.9 if pve is None else pve, _PVE)
    cols = []
    for k, (item, dim) in enumerate(zip(items, dims), start=1):
        if isinstance(item, FunctionalDataset):
            _check_covariates(item.values, n)
            eig_c = eigensystem(item, min(n - 1, item.T) if dim is None else dim)
            eig_c = eig_c.truncate(_pve_rank(eig_c, pve) if dim is None else dim)
            cols.append(scores(item, eig_c).scores)
        elif dim is not None:
            raise ValueError(f"covariate_matrix key 'dims' must be None for numeric item {k}, got {dim}")
        else:
            cols.append(_check_covariates(item, n))
    return np.hstack(cols)


def predict_with_covariates(
    data: FunctionalDataset,
    covariates,
    h: int = 1,
    p: int = None,
    d: int = None,
    p_max: int = None,
    d_max: int = None,
    covariate_dims=None,
    covariate_pve: float = None,
    solver: str = "ols",
) -> ForecastResult:
    """One-step forecast that also conditions on the last covariate rows.

    The covariate rows enter the score regression at lag one.  With
    p_max/d_max the order and dimension are selected by the criterion
    variant that charges for the covariate block.  solver 'ols' fits the
    regression form; 'blp' solves the stacked covariance equations built
    from sample moments.
    """
    rmat = covariate_matrix(covariates, data.n, dims=covariate_dims, pve=covariate_pve)
    method = {"name": "covariate", "label": "predict_with_covariates", "p": p, "d": d,
              "p_max": p_max, "d_max": d_max, "solver": solver}
    return _forecast(data, method, rmat, h)


@dataclass(frozen=True)
class EquivalenceReport:
    """Distance between the least-squares and benchmark one-step forecasts.

    gamma_hat is the lag-0 Gram of the first n - 1 score rows with
    divisor n - 1; gamma_tilde is the diagonal eigenvalue matrix the
    benchmark uses in its place.
    """

    gap: float
    gamma_hat: np.ndarray
    gamma_tilde: np.ndarray
    var_result: ForecastResult
    bosq_result: ForecastResult


def equivalence_gap(data: FunctionalDataset, d: int) -> EquivalenceReport:
    """Compare the first-order score regression against the benchmark."""
    method = _check_method({"name": "fixed-var", "label": "equivalence_gap", "p": 1, "d": d}, 1)
    fit = _fit(data, data.n, method)
    s, eig = fit.scores, fit.eig
    var_res = _result(fit)
    bosq_res = _result(replace(fit, method="bosq", model=_bosq_var(s, eig.eigenvalues)))
    gap = l2_norm(var_res.curve - bosq_res.curve, data.grid)
    gamma_hat = s[:-1].T @ s[:-1] / (len(s) - 1)
    return EquivalenceReport(
        gap=gap,
        gamma_hat=_readonly(gamma_hat),
        gamma_tilde=_readonly(np.diag(eig.eigenvalues)),
        var_result=var_res,
        bosq_result=bosq_res,
    )
