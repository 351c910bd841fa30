"""Multivariate time series machinery for score vectors.

Autocovariance estimation, least-squares VAR fitting with optional
exogenous regressors, iterated prediction, the innovations recursion,
and the closed-form best linear predictor built from covariance blocks.
All functions operate on plain (n, d) arrays in time order.
"""

from dataclasses import dataclass, replace

import numpy as np

from .curves import _readonly
from .errors import (
    DimensionMismatchError,
    IllConditionedError,
    IngestError,
    InsufficientDataError,
    NumericalDegeneracyError,
    RankDeficiencyError,
    _argument,
    _array,
    _at_least,
    _cells,
    _in_range,
    _place,
    _shown,
)

# Relative pivot threshold below which solves refuse to proceed.
PIVOT_RTOL = 1e-12
_ORDER, _HORIZON = _at_least(0), _at_least(1)  # the rules of a VAR order p and a horizon h
_GAMMAS = _array(3, test=lambda g: g.shape[1] == g.shape[2], takes="be an (m + 1, d, d) array")


def _score_rows(x, owner: str) -> np.ndarray:
    """x's rows, or a ScoreMatrix's, parsed as the argument scores of owner; 1-D is one column."""
    x = _argument(owner, "scores", getattr(x, "scores", x), _array(1, 2))
    return x[:, None] if x.ndim == 1 else x


def _is_singular(gram: np.ndarray, rtol: float = PIVOT_RTOL):
    """Whether a matrix (or each of a stack) fails the relative pivot test at rtol."""
    s = np.linalg.svd(gram, compute_uv=False)
    return (s[..., 0] <= 0.0) | (s[..., -1] < rtol * s[..., 0])


def _guarded_solve(gram: np.ndarray, rhs: np.ndarray, context: str):
    """Solve gram @ x = rhs, or a stack of them, failing loudly at the first singular gram."""
    bad = _is_singular(gram)
    if np.any(bad):
        u, s, _ = np.linalg.svd(gram[bad][0])
        column = int(np.argmax(np.abs(u[:, -1])))
        raise RankDeficiencyError(
            f"{context}: matrix is numerically singular "
            f"(smallest/largest singular value {s[-1]:.3e}/{s[0]:.3e}), "
            f"degenerate direction loads on column {column}",
            column=column,
        )
    return np.linalg.solve(gram, rhs)


def _check_rows(n: int, p: int, d: int, r: int = None) -> None:
    """Raise where fit_var_ols (r None) or fit_varx_ols would find n rows too few."""
    if r is None and (n < 2 or (p > 0 and n <= p * d + 1)):
        raise InsufficientDataError(f"n={n} too small to fit p={p}, d={d}")
    if r is not None and (n <= p * d + r + 1 or n - max(p, 1) < 2):
        raise InsufficientDataError(f"n={n} too small to fit p={p}, d={d}, r={r}")


def _lag_rows(c: np.ndarray, p: int, extra: np.ndarray = None):
    """Design rows (c_{t-1}, ..., c_{t-p}[, extra_{t-1}]) and targets c_t, t = start..n-1.

    start is p, or max(p, 1) with an extra block, whose row enters at lag one.
    """
    n = c.shape[0]
    start = p if extra is None else max(p, 1)
    blocks = [c[start - j : n - j] for j in range(1, p + 1)]
    if extra is not None:
        blocks.append(extra[start - 1 : n - 1])
    return (np.hstack(blocks) if blocks else np.empty((n - start, 0))), c[start:]


def _check_covariates(covariates, n: int) -> np.ndarray:
    """covariates as an (n, r) float matrix, one row per curve (a 1-D array is one column).

    The one guard on covariate input: another shape is a DimensionMismatchError, and a
    non-finite cell, which would look constant and be dropped, or a cell that is no number an
    IngestError naming it from 1.
    """
    cells, bad = _cells(getattr(covariates, "scores", covariates))
    rmat = cells[:, None] if cells.ndim == 1 else cells
    if rmat.ndim != 2 or rmat.shape[0] != n:
        raise DimensionMismatchError(f"covariates must be {n} rows, one per curve, "
                                     f"got shape {rmat.shape}")
    if bad is not None:
        what = "not finite" if isinstance(cells[bad], float) else f"{_shown(cells[bad])}, not a number"
        raise IngestError(f"covariate {_place((*bad, 0)[:2])} is {what}")
    return rmat


def _covariate_block(rmat: np.ndarray):
    """The centred columns of a checked covariate matrix, their mean and the non-constant ones."""
    rmean = rmat.mean(axis=0)
    rc = rmat - rmean
    return rc, rmean, np.nonzero(np.max(np.abs(rc), axis=0) > 0.0)[0]


@dataclass(frozen=True)
class AcvfSequence:
    """Autocovariances Gamma(0..max_lag) with Gamma(-k) = Gamma(k)^T."""

    gammas: np.ndarray
    mean: np.ndarray = None

    def __post_init__(self):
        g = _argument("AcvfSequence", "gammas", self.gammas, _GAMMAS)
        mean = np.zeros(g.shape[1]) if self.mean is None else self.mean
        mean = _argument("AcvfSequence", "mean", mean, _array(1, shape=g.shape[1:2]))
        object.__setattr__(self, "gammas", _readonly(g))
        object.__setattr__(self, "mean", _readonly(mean))

    @property
    def max_lag(self) -> int:
        return self.gammas.shape[0] - 1

    @property
    def d(self) -> int:
        return self.gammas.shape[1]

    def gamma(self, k: int) -> np.ndarray:
        k = _argument("AcvfSequence.gamma", "k", k, _in_range(-self.max_lag, self.max_lag, "max_lag"))
        return self.gammas[k] if k >= 0 else self.gammas[-k].T


def sample_acvf(scores, max_lag: int) -> AcvfSequence:
    """Autocovariance estimates with divisor n at every lag.

    Gamma_hat(k) = (1/n) sum_{j=1}^{n-k} (Y_{j+k} - Ybar)(Y_j - Ybar)^T,
    which keeps the block-Toeplitz covariance built from the sequence
    positive semidefinite.
    """
    s, max_lag = _score_rows(scores, "sample_acvf"), _argument("sample_acvf", "max_lag", max_lag, _ORDER)
    n = s.shape[0]
    if max_lag >= n:
        raise InsufficientDataError(f"max_lag={max_lag} needs max_lag < n={n}")
    mean = s.mean(axis=0)
    c = s - mean
    gammas = np.empty((max_lag + 1, s.shape[1], s.shape[1]))
    for k in range(max_lag + 1):
        gammas[k] = c[k:].T @ c[: n - k] / n
    return AcvfSequence(gammas=gammas, mean=mean)


@dataclass(frozen=True)
class VarModel:
    """Fitted VAR(p), optionally with a one-lag exogenous block.

    coeffs holds Phi_1..Phi_p.  mean is the sample mean removed before
    fitting (zero when the input was already centered); predictions add
    it back.  sigma_z is the innovation covariance estimate.
    """

    p: int
    coeffs: tuple
    sigma_z: np.ndarray
    mean: np.ndarray
    theta: np.ndarray = None
    covariate_mean: np.ndarray = None

    @property
    def d(self) -> int:
        return self.sigma_z.shape[0]


def _fit_ols(s: np.ndarray, p: int, block=None) -> VarModel:
    """The fit of fit_var_ols on the (n, d) array s, or of fit_varx_ols on a _covariate_block."""
    n, d = s.shape
    extra = r = None
    if block is not None:
        rc, rmean, keep = block
        extra, r = rc[:, keep], rc.shape[1]
    _check_rows(n, p, d, r)
    mean = s.mean(axis=0)
    c = s - mean
    design, target = _lag_rows(c, p, extra)
    if design.shape[1] == 0:
        beta = np.zeros((0, d))
        resid = target
    else:
        gram = design.T @ design
        context = f"{'VAR' if r is None else 'VARX'}({p}) design"
        beta = _guarded_solve(gram, design.T @ target, context=context)
        resid = target - design @ beta
    sigma = resid.T @ resid / len(target)
    coeffs = tuple(_readonly(beta[j * d : (j + 1) * d].T) for j in range(p))
    model = VarModel(p=p, coeffs=coeffs, sigma_z=_readonly(sigma), mean=_readonly(mean))
    if r is None:
        return model
    theta = np.zeros((d, r))
    theta[:, keep] = beta[p * d :].T
    return replace(model, theta=_readonly(theta), covariate_mean=_readonly(rmean))


def fit_var_ols(scores, p: int) -> VarModel:
    """Least-squares VAR(p) fit on centered score rows.

    Stacks equations for k = p+1..n with regressor rows
    (y_{k-1}, ..., y_{k-p}); no intercept is estimated beyond removing
    the sample mean.  The innovation covariance uses divisor n - p.
    """
    return _fit_ols(_score_rows(scores, "fit_var_ols"), _argument("fit_var_ols", "p", p, _ORDER))


def fit_varx_ols(scores, covariates, p: int) -> VarModel:
    """VAR(p) fit with the previous covariate row appended as regressors.

    Equation for y_k uses (y_{k-1}, ..., y_{k-p}, r_{k-1}), so stacking
    starts at k = max(p, 1) + 1.  Covariate columns that are exactly
    constant carry no information and are excluded from the solve; their
    loadings are returned as zero.  Non-finite covariates raise IngestError.
    """
    s, p = _score_rows(scores, "fit_varx_ols"), _argument("fit_varx_ols", "p", p, _ORDER)
    return _fit_ols(s, p, _covariate_block(_check_covariates(covariates, len(s))))


def predict_var(model: VarModel, history, h: int = 1, covariate=None) -> np.ndarray:
    """Iterated h-step prediction from the most recent score rows.

    history rows are in time order with the newest last; at least p rows
    are required.  With an exogenous block only h = 1 is defined and the
    current covariate row must be supplied.
    """
    h = _argument("predict_var", "h", h, _HORIZON)
    hist = _argument("predict_var", "history", history, _array(1, 2))
    if hist.ndim == 1:
        # a flat vector is one observation unless the model is univariate
        hist = hist.reshape(-1, 1) if model.d == 1 else hist[None, :]
    if hist.size == 0:
        hist = hist.reshape(0, model.d)
    if hist.shape[1] != model.d:
        raise DimensionMismatchError(f"history rows have length {hist.shape[1]}, model has d={model.d}")
    if hist.shape[0] < model.p:
        raise InsufficientDataError(f"need at least p={model.p} history rows, got {hist.shape[0]}")
    if model.theta is not None:
        if h != 1:
            raise ValueError("exogenous block supports one-step prediction only")
        if covariate is None:
            raise ValueError("model carries an exogenous block; pass its current row")
        row = _array(1, shape=model.theta.shape[1:])  # one value per covariate column
        covariate = _argument("predict_var", "covariate", covariate, row)
    elif covariate is not None:
        raise ValueError("model has no exogenous block but a covariate row was passed")
    buf = [row for row in hist - model.mean]
    pred = np.zeros(model.d)
    for _ in range(h):
        pred = np.zeros(model.d)
        for j, phi in enumerate(model.coeffs, start=1):
            pred = pred + phi @ buf[-j]
        buf.append(pred)
    if model.theta is not None:
        rc = covariate - model.covariate_mean
        pred = pred + model.theta @ rc
    return pred + model.mean


def solve_blp_with_covariates(acvf: AcvfSequence, cross=None, gamma_rr=None, m: int = 1):
    """Best linear predictor coefficients from covariance blocks.

    Solves the stacked normal equations for predicting Y_{n+1} from
    (Y_n, ..., Y_{n+1-m}) and, when covariance blocks with a covariate
    are supplied, from R_n as well.

    Parameters
    ----------
    acvf : AcvfSequence
        Autocovariances of Y up to lag m at least.
    cross : array_like, optional
        Stack of m + 1 cross-covariance blocks, cross[k] = Gamma_YR(1 - k)
        for k = 0..m where Gamma_YR(i) = Cov(Y_t, R_{t-i}).
    gamma_rr : array_like, optional
        Covariance of the covariate vector, required with cross.
    m : int
        Number of Y lags entering the predictor, at least 1; 0 is allowed
        with covariate blocks, for the predictor from R_n alone.

    Returns
    -------
    (phis, theta)
        phis is a list of m (d, d) matrices; theta is the (d, r)
        covariate loading, or None when no covariate blocks were given.
    """
    rule = _in_range(int(cross is None), acvf.max_lag, "acvf.max_lag")
    m, d = _argument("solve_blp_with_covariates", "m", m, rule), acvf.d
    if (cross is None) != (gamma_rr is None):
        raise ValueError("cross and gamma_rr must be supplied together")
    r, owner = 0, "solve_blp_with_covariates"
    if cross is not None:
        cross = _argument(owner, "cross", cross, _array(3, shape=(m + 1, d, "r")))
        r = cross.shape[2]
        gamma_rr = _argument(owner, "gamma_rr", gamma_rr, _array(2, shape=(r, r)))
    blocks = [[acvf.gamma(j - i) for j in range(m)] for i in range(m)]
    targets = [acvf.gamma(i + 1) for i in range(m)]
    if r > 0:
        blocks = [row + [cross[i + 1]] for i, row in enumerate(blocks)]
        blocks.append([c.T for c in cross[1:]] + [gamma_rr])
        targets.append(cross[0])
    if not blocks:  # m = 0 and no covariate column: nothing predicts beyond the mean
        return [], np.zeros((d, 0))
    big, rhs = np.block(blocks), np.hstack(targets)
    if _is_singular(big):
        raise IllConditionedError(
            "stacked covariance matrix is numerically singular; reduce m or drop covariates"
        )
    coef = np.linalg.solve(big, rhs.T).T
    phis = [coef[:, i * d : (i + 1) * d] for i in range(m)]
    theta = coef[:, m * d :] if cross is not None else None
    return phis, theta


@dataclass(frozen=True)
class InnovationsState:
    """Output of the innovations recursion run to horizon m.

    thetas[k - 1][j - 1] holds Theta_{k, j}; v holds the one-step error
    covariances V_0..V_m.  The mean is the centering used by the
    autocovariances the recursion was built from.
    """

    thetas: tuple
    v: tuple
    mean: np.ndarray

    @property
    def m(self) -> int:
        return len(self.thetas)

    def predict_one_step(self, history) -> np.ndarray:
        """One-step prediction from the last m rows of history (a 1-D array is one row)."""
        hist = _argument("InnovationsState.predict_one_step", "history", history,
                         _array(1, 2, shape=("m", len(self.mean))))
        hist = hist[None] if hist.ndim == 1 else hist
        m = self.m
        if hist.shape[0] < m:
            raise InsufficientDataError(f"need at least m={m} history rows, got {hist.shape[0]}")
        x = hist[-m:] - self.mean
        d = x.shape[1]
        preds = [np.zeros(d)]
        for t in range(1, m + 1):
            step = np.zeros(d)
            for j in range(1, t + 1):
                step = step + self.thetas[t - 1][j - 1] @ (x[t - j] - preds[t - j])
            preds.append(step)
        return preds[m] + self.mean


def innovations(acvf: AcvfSequence, m: int) -> InnovationsState:
    """Innovations recursion for one-step prediction from m observations.

    Theta_{k, k-j} = (Gamma(k - j) - sum_i Theta_{k, k-i} V_i Theta_{j, j-i}^T) V_j^{-1}
    computed row by row with V_0 = Gamma(0) and
    V_k = Gamma(0) - sum_j Theta_{k, k-j} V_j Theta_{k, k-j}^T.
    """
    m, d = _argument("innovations", "m", m, _in_range(1, acvf.max_lag, "acvf.max_lag")), acvf.d
    v = [acvf.gamma(0)]
    rows = []
    for k in range(1, m + 1):
        # V_{k-1} is first inverted in this row; V_m never is
        if _is_singular(v[k - 1]):
            raise NumericalDegeneracyError(
                f"innovation covariance V_{k - 1} is numerically singular", step=k - 1
            )
        row = [None] * k
        for j in range(k):
            acc = acvf.gamma(k - j).copy()
            for i in range(j):
                acc -= row[k - i - 1] @ v[i] @ rows[j - 1][j - i - 1].T
            # row index k - j in one-based notation is slot k - j - 1
            row[k - j - 1] = np.linalg.solve(v[j].T, acc.T).T
        vk = acvf.gamma(0).copy()
        for j in range(k):
            vk -= row[k - j - 1] @ v[j] @ row[k - j - 1].T
        rows.append(tuple(_readonly(b) for b in row))
        v.append(vk)
    return InnovationsState(
        thetas=tuple(rows), v=tuple(_readonly(x) for x in v), mean=acvf.mean
    )
