"""Uniform prediction bands from rolling one-step residuals.

The band around a forecast is gamma(t) scaled by constants calibrated so
that a target fraction of historical standardized residuals fits inside
over the whole grid at once.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import FunctionalDataset, Grid, _readonly, _write_csv
from .errors import InsufficientDataError, _argument, _array, _checked
from .forecast import _Fit, _check_method, _fit
from .fpca import ScoreMatrix, reconstruct
from .multivar import _check_rows, _guarded_solve, _lag_rows

# Grid points with essentially zero spread carry no band information.
GAMMA_FLOOR_RTOL = 1e-12
_ALPHA = (float, lambda alpha: 0.0 < alpha < 1.0, "be in (0, 1)")  # the rule of a band's level


def rolling_residuals(data: FunctionalDataset, d: int, p: int, L: int = None) -> FunctionalDataset:
    """One-step prediction residuals over the tail of the sample.

    Eigenfunctions and scores come from the full-sample fit a forecast
    with the same p and d makes; for each k = L+1..n the score model is
    refitted on the first k - 1 rows and the residual Y_k minus its
    prediction is recorded, giving n - L residual curves.  The default L
    is max(p, 10 d, n/4), large enough for the early fits to be stable.

    The refits are those of :func:`fit_var_ols`, built from cumulative sums
    of the lag rows (y_{t-1}, ..., y_{t-p}, y_t) and of their outer
    products, which give every origin's Gram centred on its own mean.  All
    origins are then rank-guarded, solved and reconstructed in one batch.
    """
    method = {"name": "fixed-var", "label": "rolling_residuals", "p": p, "d": d}
    L = _warm_up(data.n, method, L)
    return _rolling_residuals(data, _fit(data, data.n, method), L)


def _warm_up(n: int, method: dict, L) -> int:
    """The first refit's row count, method checked: the default max(p, 10 d, n/4), or L checked."""
    method = _check_method(method, 1)
    p, d = method["p"], method["d"]
    L = _checked({"L": L}, {"L": int}, "rolling_residuals").get("L", max(p, 10 * d, round(n / 4)))
    if L < max(p, 10 * d):
        raise ValueError(f"L={L} below the warm-up floor max(p, 10*d)={max(p, 10 * d)}")
    if L >= n - 1:
        raise InsufficientDataError(f"L={L} leaves fewer than two of n={n} curves")
    # the smallest refit has the fewest rows, so only it can be too short
    _check_rows(L, p, d)
    return L


def _rolling_residuals(data: FunctionalDataset, fit: _Fit, L: int) -> FunctionalDataset:
    """rolling_residuals from the eigensystem, scores and order of a full-sample fit, L checked."""
    n, d, p, smat = data.n, fit.d, fit.p, fit.scores
    origins = np.arange(L, n)
    means = np.cumsum(smat, axis=0)[L - 1 : n - 1] / origins[:, None]
    pred = means
    if p > 0:
        lags = np.hstack(_lag_rows(smat, p))
        sums = np.cumsum(lags, axis=0)[L - p - 1 : n - p - 1]
        prods = np.cumsum(lags[:, :, None] * lags[:, None, :], axis=0)[L - p - 1 : n - p - 1]
        centre = np.tile(means, p + 1)
        # origin k fits equations t = p..k-1: with their prefix sums S (products) and s,
        # sum (w - m)(w - m)' = S - s m' - m (s - N m)' over those N = k - p rows
        dev = sums - (origins - p)[:, None] * centre
        cross = prods - sums[:, :, None] * centre[:, None, :]
        cross -= centre[:, :, None] * dev[:, None, :]
        k = p * d
        beta = _guarded_solve(cross[:, :k, :k], cross[:, :k, k:], context=f"VAR({p}) design")
        pred = means + np.einsum("oi,oij->oj", lags[L - p :, :k] - centre[:, :k], beta)
    curves = reconstruct(ScoreMatrix(scores=pred), fit.eig).values
    return FunctionalDataset._own(data.grid, data.values[L:] - curves)


@dataclass(frozen=True)
class PredictionBand:
    """Scaled-spread band: forecast - xi_lower*gamma to forecast + xi_upper*gamma."""

    grid: Grid
    gamma: np.ndarray = field(repr=False)
    xi_lower: float
    xi_upper: float
    alpha: float
    M: int

    def offsets(self):
        return self.xi_lower * self.gamma, self.xi_upper * self.gamma

    def to_csv(self, path) -> None:
        rows = zip(self.grid.points, self.gamma, *self.offsets())
        _write_csv(path, ["t", "gamma", "lower_offset", "upper_offset"],
                   ([repr(float(v)) for v in row] for row in rows))

    def contains(self, center, curve):
        """Whole-grid check of center - lower <= curve <= center + upper.

        center is one curve on the band's grid.  curve is one such curve,
        giving a bool, or an (M, T) stack of them, giving one bool per row.
        """
        T = self.grid.T
        center = _argument("PredictionBand.contains", "center", center, _array(1, shape=(T,)))
        curve = _argument("PredictionBand.contains", "curve", curve, _array(1, 2, shape=("M", T)))
        lower, upper = self.offsets()
        low, high = center - lower, center + upper
        # roundoff slack scaled by the band, so the answers do not depend on its units
        slack = 1e-12 * max(np.abs(low).max(), np.abs(high).max())
        inside = np.all(curve >= low - slack, axis=-1) & np.all(curve <= high + slack, axis=-1)
        return bool(inside) if curve.ndim == 1 else inside


def _order_statistic(values: np.ndarray, alpha: float) -> float:
    m = values.shape[0]
    # ceil with a guard against float roundoff in alpha * m
    rank = int(math.ceil(alpha * m - 1e-9))
    rank = min(max(rank, 1), m)
    return float(np.sort(values)[rank - 1])


def prediction_band(residuals: FunctionalDataset, alpha: float, symmetric: bool = True) -> PredictionBand:
    """Calibrate band constants from residual curves.

    gamma(t) is the pointwise sample standard deviation.  In the
    symmetric case the constant is the ceil(alpha * M)-th order statistic
    of the per-residual sup of |residual| / gamma, so at least alpha of
    the residuals fit inside their own band.  The asymmetric case scales
    the two sides proportionally along the direction given by the
    alpha-quantiles of the per-side statistics.

    Parameters
    ----------
    residuals : FunctionalDataset
        M >= 10 residual curves.
    alpha : float
        Target coverage level in (0, 1).
    symmetric : bool
        Single constant for both sides, or a per-side pair.
    """
    alpha = _argument("prediction_band", "alpha", alpha, _ALPHA)
    vals = residuals.values
    m = vals.shape[0]
    if m < 10:
        raise InsufficientDataError(f"need at least 10 residual curves, got {m}")
    gamma = vals.std(axis=0, ddof=1)
    gmax = float(gamma.max())
    if gmax == 0.0:
        if np.any(vals != 0.0):
            raise ValueError("pointwise spread is identically zero but residuals are not")
        xis = (0.0, 0.0)
    else:
        use = gamma >= GAMMA_FLOOR_RTOL * gmax
        ratio = vals[:, use] / gamma[use]
        if symmetric:
            xi = _order_statistic(np.max(np.abs(ratio), axis=1), alpha)
            xis = (xi, xi)
        else:
            low, high = np.max(-ratio, axis=1), np.max(ratio, axis=1)
            q_low = max(_order_statistic(low, alpha), 0.0)
            q_high = max(_order_statistic(high, alpha), 0.0)
            # a side whose constant is zero takes the other side's; two zero sides take 1
            q_low, q_high = q_low or q_high or 1.0, q_high or q_low or 1.0
            s = max(_order_statistic(np.maximum(low / q_low, high / q_high), alpha), 0.0)
            xis = (s * q_low, s * q_high)
    return PredictionBand(grid=residuals.grid, gamma=_readonly(gamma), xi_lower=xis[0],
                          xi_upper=xis[1], alpha=alpha, M=m)
