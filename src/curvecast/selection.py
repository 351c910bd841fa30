"""Joint order and dimension selection by final prediction error.

The criterion trades the innovation trace of a VAR(p) fit on d score
columns against the variance left outside the first d components, so one
sweep picks p and d together.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, RankDeficiencyError, SelectionError
from .fpca import EigenSystem, eigensystem, scores
from .multivar import (
    PIVOT_RTOL,
    _check_rows,
    _covariate_block,
    _guarded_solve,
    _is_singular,
    _lag_rows,
    fit_var_ols,
)


def ffpe(n: int, p: int, d: int, trace_sigma_z: float, tail: float, r: int = 0) -> float:
    """Final prediction error (n + p d + r)/(n - p d - r) * tr(Sigma_Z) + tail.

    r counts the extra parameters of a covariate block; r = 0 is the plain criterion.
    """
    if n < 2 or p < 0 or d < 1 or r < 0:
        raise ValueError(f"need n >= 2, p >= 0, d >= 1, r >= 0; got n={n}, p={p}, d={d}, r={r}")
    if not (math.isfinite(trace_sigma_z) and trace_sigma_z >= 0.0):
        raise ValueError(f"trace_sigma_z must be finite and >= 0, got {trace_sigma_z}")
    if not (math.isfinite(tail) and tail >= 0.0):
        raise ValueError(f"tail must be finite and >= 0, got {tail}")
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
    """Criterion values over the (p, d) grid, the selected cell and the d_max eigensystem."""

    n: int
    cells: tuple
    p_best: int
    d_best: int
    eig: EigenSystem = field(default=None, compare=False, repr=False)

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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["p", "d", "trace", "tail", "ffpe", "status", "message"])
            for c in self.cells:
                numbers = [repr(float(v)) for v in (c.trace, c.tail, c.value)] if c.ok else [""] * 3
                writer.writerow([c.p, c.d, *numbers, c.status, c.message])


def select_pd(data, p_max: int, d_max: int, covariate_scores=None) -> FfpeTable:
    """Sweep the criterion over p = 0..p_max and d = 1..d_max.

    The eigensystem is computed once at d_max, or at min(n - 1, T) when
    d_max exceeds it, and sliced per cell.  Each p forms X'X, X'Y and Y'Y
    once at that width; each d solves an index submatrix and takes
    tr(Y'Y) - sum(beta * X'Y) over the direct fit's divisor.  Order-zero
    VAR cells, whose criterion is constant in d up to rounding, call
    :func:`fit_var_ols`.  Unfittable cells (d above min(n - 1, T), too few
    observations, or a rank-deficient design) get a status instead of
    aborting the sweep.  Ties in the criterion prefer smaller d, then
    smaller p.

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
    if p_max < 0 or d_max < 1:
        raise ValueError(f"need p_max >= 0 and d_max >= 1, got {p_max}, {d_max}")
    n = data.n
    ceiling = min(n - 1, data.T)
    eig = eigensystem(data, min(d_max, ceiling))
    smat = scores(data, eig).scores
    c = smat - smat.mean(axis=0)
    r = extra = None
    if covariate_scores is not None:
        rc, _, keep = _covariate_block(covariate_scores, n)
        r, extra = rc.shape[1], rc[:, keep]
    moments = []
    for p in range(p_max + 1):
        x, y = _lag_rows(c, p, extra)
        xx = x.T @ x
        # Each cell solves a principal submatrix of the positive semidefinite xx;
        # by eigenvalue interlacing its condition number is at most xx's, so an
        # xx passing the pivot test with a factor 2 to spare passes it in every cell.
        guard = bool(xx.size) and _is_singular(xx, 2 * PIVOT_RTOL)
        moments.append((len(y), xx, x.T @ y, np.einsum("ij,ij->j", y, y), guard))
    cells = []
    for d in range(1, d_max + 1):
        tail = eig.tail_variance(d)
        for p in range(0, p_max + 1):
            if d > eig.d or n <= p * d + (r or 0):
                why = f"d={d} > min(n - 1, T)={ceiling}" if d > eig.d else f"n={n} <= p*d+r"
                cells.append(FfpeCell(p, d, math.nan, math.nan, math.nan, "invalid", why))
                continue
            try:
                if r is None and p == 0:
                    trace = float(fit_var_ols(smat[:, :d], 0).sigma_z.trace())
                else:
                    _check_rows(n, p, d, r)
                    trace = _cell_trace(p, d, eig.d, r, *moments[p])
                value = ffpe(n, p, d, trace, tail, r or 0)
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
    return FfpeTable(n=n, cells=tuple(cells), p_best=winner.p, d_best=winner.d, eig=eig)


def _cell_trace(p, d, width, r, rows, xx, xy, yy, guard):
    """Innovation trace of the (p, d) fit from cross-products of the first width scores."""
    col = np.arange(xx.shape[0])
    idx = col[(col % width < d) | (col >= p * width)]  # d components of each lag, all covariates
    rss = yy[:d].sum()
    if idx.size:
        rhs = xy[idx, :d]
        gram = xx[idx[:, None], idx]
        if guard:
            context = f"{'VAR' if r is None else 'VARX'}({p}) design"
            beta = _guarded_solve(gram, rhs, context=context)
        else:
            beta = np.linalg.solve(gram, rhs)
        rss -= np.vdot(beta, rhs)
    return max(float(rss), 0.0) / rows  # an exact fit can round below zero
