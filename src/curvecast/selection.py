"""Joint order and dimension selection by final prediction error.

The criterion trades the innovation trace of a VAR(p) fit on d score
columns against the variance left outside the first d components, so one
sweep picks p and d together.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import _write_csv
from .errors import InsufficientDataError, RankDeficiencyError, SelectionError, _at_least, _checked
from .fpca import EigenSystem, eigensystem, scores
from .multivar import (_ORDER, PIVOT_RTOL, _check_covariates, _check_rows, _covariate_block, _fit_ols,
                       _is_singular, _lag_rows)

_CORNERS = {"p_max": _ORDER, "d_max": _at_least(1)}  # the rules of the sweep's upper corners
_VARIANCE = (float, lambda value: value >= 0.0, "be >= 0")  # the rule of a variance
_FFPE = {"n": _at_least(2), "p": _ORDER, "d": _CORNERS["d_max"], "trace_sigma_z": _VARIANCE,
         "tail": _VARIANCE, "r": _ORDER}  # the rules of ffpe's arguments


def ffpe(n: int, p: int, d: int, trace_sigma_z: float, tail: float, r: int = 0) -> float:
    """Final prediction error (n + p d + r)/(n - p d - r) * tr(Sigma_Z) + tail.

    r counts the extra parameters of a covariate block; r = 0 is the plain criterion.
    Each argument is parsed by its rule in _FFPE; n <= p d + r is a SelectionError.
    """
    given = {"n": n, "p": p, "d": d, "trace_sigma_z": trace_sigma_z, "tail": tail, "r": r}
    return _ffpe(*_checked(given, _FFPE, "ffpe", _FFPE).values())


def _ffpe(n: int, p: int, d: int, trace_sigma_z: float, tail: float, r: int) -> float:
    """ffpe on parsed arguments, as each sweep cell calls it."""
    if n <= p * d + r:
        raise SelectionError(f"criterion undefined: n={n} <= p*d + r={p * d + r}")
    return (n + p * d + r) / (n - p * d - r) * trace_sigma_z + tail


@dataclass(frozen=True)
class FfpeCell:
    """One (p, d) entry of the criterion sweep."""

    p: int
    d: int
    trace: float
    tail: float
    value: float
    status: str
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class FfpeTable:
    """Criterion values over the (p, d) grid, the selected cell, the d_max eigensystem and scores."""

    n: int
    cells: tuple
    p_best: int
    d_best: int
    eig: EigenSystem = field(default=None, compare=False, repr=False)
    scores: np.ndarray = field(default=None, compare=False, repr=False)

    @property
    def best(self) -> tuple:
        return self.p_best, self.d_best

    def best_cell(self) -> FfpeCell:
        return self.cell(self.p_best, self.d_best)

    def cell(self, p: int, d: int) -> FfpeCell:
        for c in self.cells:
            if c.p == p and c.d == d:
                return c
        raise LookupError(f"no cell for p={p}, d={d}")

    def to_csv(self, path) -> None:
        def row(c):
            numbers = [repr(float(v)) for v in (c.trace, c.tail, c.value)] if c.ok else [""] * 3
            return [c.p, c.d, *numbers, c.status, c.message]

        _write_csv(path, ["p", "d", "trace", "tail", "ffpe", "status", "message"],
                   map(row, self.cells))


def select_pd(data, p_max: int, d_max: int, covariate_scores=None) -> FfpeTable:
    """Sweep the criterion over p = 0..p_max and d = 1..d_max.

    The eigensystem is computed once at d_max, or at min(n - 1, T) when
    d_max exceeds it, the curves are projected on it once, and both are
    sliced per cell; the table keeps them as ``eig`` and the (n, eig.d)
    ``scores``, so a fit at the selected d reuses the training scores.
    Each p forms X'X once at that width.  When X'X passes the pivot test,
    one Cholesky factor of it gives the residual sums of every d.  Cells
    that factor does not serve, the order-zero VAR cells among them, get
    the fit of :func:`fit_var_ols`, or of :func:`fit_varx_ols` on the
    sweep's covariate block; its guard names a singular cell's column.
    Unfittable cells (d above min(n - 1, T), too few observations, or a
    rank-deficient design) get a status instead of aborting the sweep.
    Ties in the criterion prefer smaller d, then smaller p.

    Parameters
    ----------
    data : FunctionalDataset
        Observed curves.
    p_max, d_max : int
        Upper corners of the sweep grid.
    covariate_scores : array_like, optional
        (n, r) finite covariate rows; when given the fits include the
        previous covariate row and the criterion charges r parameters.

    Returns
    -------
    FfpeTable
    """
    p_max, d_max = _checked({"p_max": p_max, "d_max": d_max}, _CORNERS, "select_pd", _CORNERS).values()
    n = data.n
    ceiling = min(n - 1, data.T)
    eig = eigensystem(data, min(d_max, ceiling))
    smat = scores(data, eig).scores
    c = smat - smat.mean(axis=0)
    r = extra = block = None
    if covariate_scores is not None:
        block = rc, _, keep = _covariate_block(_check_covariates(covariate_scores, n))
        r, extra = rc.shape[1], rc[:, keep]
    nested = {}
    for p in range(r is None, p_max + 1):  # VAR(0) cells have no design
        x, y = _lag_rows(c, p, extra)
        xx = x.T @ x
        # Each cell's Gram is a principal submatrix of the full one, so by eigenvalue
        # interlacing no better conditioned: a full Gram passing the pivot test with a
        # factor 2 to spare lets one Cholesky factor serve every d of the order.
        if not (xx.size and _is_singular(xx, 2 * PIVOT_RTOL)):
            nested[p] = _nested_traces(p, eig.d, len(y), xx, x.T @ y, np.einsum("ij,ij->j", y, y))
    cells = []
    for d in range(1, d_max + 1):
        tail = eig.tail_variance(d)
        for p in range(0, p_max + 1):
            if d > eig.d:
                why = f"d={d} > min(n - 1, T)={ceiling}"
                cells.append(FfpeCell(p, d, math.nan, math.nan, math.nan, "invalid", why))
                continue
            try:
                if p in nested:
                    _check_rows(n, p, d, r)
                    trace = float(nested[p][d - 1])
                else:
                    trace = float(_fit_ols(smat[:, :d], p, block).sigma_z.trace())
                value = _ffpe(n, p, d, trace, tail, r or 0)
            except (InsufficientDataError, RankDeficiencyError, SelectionError) as err:
                status = "singular" if isinstance(err, RankDeficiencyError) else "invalid"
                cells.append(FfpeCell(p, d, math.nan, math.nan, math.nan, status, str(err)))
                continue
            cells.append(FfpeCell(p, d, trace, tail, value, "ok"))
    fitted = [c for c in cells if c.ok]
    if not fitted:
        raise SelectionError(
            f"no (p, d) cell could be fitted for p_max={p_max}, d_max={d_max}, n={n}"
        )
    winner = min(fitted, key=lambda c: (c.value, c.d, c.p))
    return FfpeTable(n=n, cells=tuple(cells), p_best=winner.p, d_best=winner.d, eig=eig,
                     scores=smat)


def _nested_traces(p, width, rows, xx, xy, yy):
    """Innovation traces of the (p, d) fits, d = 1..width, from one Cholesky factor.

    Covariate columns first, then lags component-major: cell (p, d) is the leading
    k = r' + p d columns, and with X'X = L L', z = L^-1 X'Y, rss_j = y_j'y_j - |z[:k, j]|^2.
    """
    kept = xx.shape[0] - p * width  # the covariate columns
    order = np.r_[p * width : p * width + kept, np.arange(p * width).reshape(p, width).T.ravel()]
    z = np.linalg.solve(np.linalg.cholesky(xx[order[:, None], order]), xy[order])
    explained = np.cumsum(np.vstack([np.zeros(width), z * z]), axis=0)
    rss = np.cumsum(yy - explained[kept + p * np.arange(1, width + 1)], axis=1).diagonal()
    return np.maximum(rss, 0.0) / rows  # an exact fit can round below zero
