"""One- and multi-step curve prediction built on score vector models.

All predictors share the same skeleton: project curves to scores,
predict the next score vector, and rebuild a curve from the truncated
expansion.  They differ only in how the score prediction is formed.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .curves import FunctionalDataset, Grid, _readonly, l2_norm
from .errors import IllConditionedError, InsufficientDataError
from .fpca import EigenSystem, ScoreMatrix, eigensystem, pve_dimension, reconstruct, scores
from .multivar import fit_var_ols, fit_varx_ols, predict_var, sample_acvf, solve_blp_with_covariates
from .selection import select_pd

EIGENVALUE_RTOL = 1e-12


@dataclass(frozen=True)
class ForecastResult:
    """Predicted curve along with the score-space view that produced it."""

    method: str
    p: int
    d: int
    scores: np.ndarray
    curve: np.ndarray
    grid: Grid = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "scores", _readonly(np.asarray(self.scores, dtype=float)))
        curve = np.asarray(self.curve, dtype=float)
        object.__setattr__(self, "curve", _readonly(curve))
        if self.grid is None:
            object.__setattr__(self, "grid", Grid(curve.shape[0]))

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "p": self.p,
            "d": self.d,
            "scores": self.scores.tolist(),
            "curve": self.curve.tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ForecastResult":
        raw = json.loads(text)
        return cls(
            method=raw["method"],
            p=int(raw["p"]),
            d=int(raw["d"]),
            scores=np.array(raw["scores"], dtype=float),
            curve=np.array(raw["curve"], dtype=float),
        )


def var_score_forecast(score_rows, p: int, h: int = 1) -> np.ndarray:
    """Fit a VAR(p) on the score rows and predict h steps ahead."""
    model = fit_var_ols(score_rows, p)
    hist = np.asarray(getattr(score_rows, "scores", score_rows), dtype=float)
    return predict_var(model, hist[-max(p, 1) :], h)


def scalar_score_forecast(score_rows, p: int, h: int = 1) -> np.ndarray:
    """Predict each score column with its own univariate AR(p)."""
    s = np.asarray(getattr(score_rows, "scores", score_rows), dtype=float)
    out = np.empty(s.shape[1])
    for j in range(s.shape[1]):
        col = s[:, j : j + 1]
        model = fit_var_ols(col, p)
        out[j] = predict_var(model, col[-max(p, 1) :], h)[0]
    return out


def bosq_score_forecast(score_rows, eigenvalues) -> np.ndarray:
    """One-step prediction with the eigenvalue-weighted lag-1 operator.

    Applies (n-1)^{-1} sum_{k=2}^n <., v_l> <Y_{k-1}, v_l> <Y_k, v_l'>
    / lambda_l in score coordinates to the last observation.
    """
    s = np.asarray(getattr(score_rows, "scores", score_rows), dtype=float)
    lams = np.asarray(eigenvalues, dtype=float)
    if s.shape[1] != lams.shape[0]:
        raise ValueError(f"{s.shape[1]} score columns but {lams.shape[0]} eigenvalues")
    if s.shape[0] < 2:
        raise InsufficientDataError("need at least two score rows")
    if lams[-1] <= EIGENVALUE_RTOL * lams[0]:
        raise IllConditionedError(
            f"eigenvalue {lams.shape[0]} is below {EIGENVALUE_RTOL} of the leading one; "
            "reduce d"
        )
    n = s.shape[0]
    lag_cov = s[1:].T @ s[:-1] / (n - 1)
    return (lag_cov / lams[None, :]) @ s[-1]


def varx_score_forecast(score_rows, covariate_rows, p: int) -> np.ndarray:
    """One-step prediction from a VAR(p) with the last covariate row appended."""
    s = np.asarray(getattr(score_rows, "scores", score_rows), dtype=float)
    r = np.asarray(covariate_rows, dtype=float)
    model = fit_varx_ols(s, r, p)
    return predict_var(model, s[-max(p, 1) :], 1, covariate=r[-1])


def _finish(eig: EigenSystem, pred_scores: np.ndarray, method: str, p: int) -> ForecastResult:
    curve = reconstruct(ScoreMatrix(scores=pred_scores[None, :]), eig).values[0]
    return ForecastResult(
        method=method, p=p, d=eig.d, scores=pred_scores, curve=curve, grid=eig.grid
    )


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
    fixed = p is not None and d is not None
    auto = p_max is not None and d_max is not None
    if fixed == auto:
        raise ValueError("pass exactly one of (p, d) or (p_max, d_max)")
    if auto:
        table = select_pd(data, p_max, d_max)
        p, d = table.best
    eig = table.eig.truncate(d) if auto else eigensystem(data, d)
    smat = scores(data, eig)
    pred = var_score_forecast(smat.scores, p, h)
    return _finish(eig, pred, "var", p)


def bosq_predict(data: FunctionalDataset, d: int) -> ForecastResult:
    """One-step prediction with the classical first-order benchmark."""
    eig = eigensystem(data, d)
    smat = scores(data, eig)
    pred = bosq_score_forecast(smat.scores, eig.eigenvalues)
    return _finish(eig, pred, "bosq", 1)


def bosq_predict_state_space(data: FunctionalDataset, d: int, p: int) -> ForecastResult:
    """First-order benchmark applied to blocks of p consecutive curves.

    Stacks (Y_k, ..., Y_{k-p+1}) into curves on a p-fold grid, runs the
    first-order predictor there, and returns the leading block.  With
    p = 1 this is exactly :func:`bosq_predict`.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p == 1:
        return bosq_predict(data, d)
    n, T = data.n, data.T
    if n - p + 1 < 3:
        raise InsufficientDataError(f"n={n} too small for p={p} stacked blocks")
    blocks = [data.values[p - 1 - j : n - j] for j in range(p)]
    stacked = FunctionalDataset(grid=Grid(p * T), values=np.hstack(blocks))
    eig = eigensystem(stacked, d)
    smat = scores(stacked, eig)
    pred = bosq_score_forecast(smat.scores, eig.eigenvalues)
    curve = reconstruct(ScoreMatrix(scores=pred[None, :]), eig).values[0][:T]
    return ForecastResult(method="bosq", p=p, d=d, scores=pred, curve=curve, grid=data.grid)


def scalar_predict(data: FunctionalDataset, d: int, p: int, h: int = 1) -> ForecastResult:
    """Forecast with d decoupled univariate autoregressions on the scores."""
    eig = eigensystem(data, d)
    smat = scores(data, eig)
    pred = scalar_score_forecast(smat.scores, p, h)
    return _finish(eig, pred, "scalar", p)


def covariate_matrix(covariates, n: int, dims=None, pve: float = 0.9):
    """Assemble an (n, r) numeric covariate matrix.

    covariates may be a single item or a list; each item is either an
    (n,) / (n, q) numeric array used as-is, or a FunctionalDataset whose
    score vectors enter.  Functional items are projected onto enough
    components to explain at least pve of their variance unless an
    explicit entry of dims overrides the dimension.
    """
    items = covariates if isinstance(covariates, (list, tuple)) else [covariates]
    if dims is None:
        dims = [None] * len(items)
    if isinstance(dims, int):
        dims = [dims] * len(items)
    if len(dims) != len(items):
        raise ValueError(f"dims has {len(dims)} entries for {len(items)} covariates")
    cols = []
    for item, dim in zip(items, dims):
        if isinstance(item, FunctionalDataset):
            if item.n != n:
                raise ValueError(f"covariate has {item.n} curves, data has {n}")
            use_d = dim if dim is not None else pve_dimension(item, pve)
            eig_c = eigensystem(item, use_d)
            cols.append(scores(item, eig_c).scores)
        else:
            arr = np.asarray(item, dtype=float)
            if arr.ndim == 1:
                arr = arr[:, None]
            if arr.ndim != 2 or arr.shape[0] != n:
                raise ValueError(f"numeric covariate must have n={n} rows, got {arr.shape}")
            cols.append(arr)
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
    covariate_pve: float = 0.9,
    solver: str = "ols",
) -> ForecastResult:
    """One-step forecast that also conditions on the last covariate rows.

    The covariate rows enter the score regression at lag one.  With
    p_max/d_max the order and dimension are selected by the criterion
    variant that charges for the covariate block.  solver 'ols' fits the
    regression form; 'blp' solves the stacked covariance equations built
    from sample moments.
    """
    if h != 1:
        raise ValueError("covariate prediction is defined for h = 1 only")
    if solver not in ("ols", "blp"):
        raise ValueError(f"solver must be 'ols' or 'blp', got {solver!r}")
    rmat = covariate_matrix(covariates, data.n, dims=covariate_dims, pve=covariate_pve)
    fixed = p is not None and d is not None
    auto = p_max is not None and d_max is not None
    if fixed == auto:
        raise ValueError("pass exactly one of (p, d) or (p_max, d_max)")
    if auto:
        table = select_pd(data, p_max, d_max, covariate_scores=rmat)
        p, d = table.best
    eig = table.eig.truncate(d) if auto else eigensystem(data, d)
    smat = scores(data, eig)
    if solver == "ols":
        pred = varx_score_forecast(smat.scores, rmat, p)
    else:
        if p < 1:
            raise ValueError("solver 'blp' needs p >= 1")
        pred = _blp_score_forecast(smat.scores, rmat, p)
    return _finish(eig, pred, "covariate", p)


def _blp_score_forecast(s: np.ndarray, rmat: np.ndarray, m: int) -> np.ndarray:
    n = s.shape[0]
    acvf = sample_acvf(s, m)
    ybar = s.mean(axis=0)
    rbar = rmat.mean(axis=0)
    yc = s - ybar
    rc = rmat - rbar
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
    eig = eigensystem(data, d)
    smat = scores(data, eig)
    s = smat.scores
    n = s.shape[0]
    var_pred = var_score_forecast(s, 1, 1)
    bosq_pred = bosq_score_forecast(s, eig.eigenvalues)
    var_res = _finish(eig, var_pred, "var", 1)
    bosq_res = _finish(eig, bosq_pred, "bosq", 1)
    gap = l2_norm(var_res.curve - bosq_res.curve, data.grid)
    gamma_hat = s[: n - 1].T @ s[: n - 1] / (n - 1)
    return EquivalenceReport(
        gap=gap,
        gamma_hat=_readonly(gamma_hat),
        gamma_tilde=_readonly(np.diag(eig.eigenvalues)),
        var_result=var_res,
        bosq_result=bosq_res,
    )
