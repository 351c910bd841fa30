"""Principal component analysis for curve datasets.

Estimates the mean curve and covariance kernel, solves the discretized
eigenproblem, projects curves to score vectors, and rebuilds curves from
truncated score expansions.
"""

from dataclasses import dataclass, field

import numpy as np

from .curves import FunctionalDataset, Grid, _readonly
from .errors import (DimensionMismatchError, InsufficientDataError, NumericalDegeneracyError,
                     _argument, _array, _at_least, _in_range)

_PVE = (float, lambda pve: 0.0 < pve <= 1.0, "be in (0, 1]")  # the rule of a share of variance
_TAIL = _at_least(0)  # the rule of a number of leading components, any of them past those held


def sample_mean(data: FunctionalDataset) -> np.ndarray:
    """Pointwise average curve."""
    return data.values.mean(axis=0)


def sample_covariance_kernel(data: FunctionalDataset) -> np.ndarray:
    """Discretized covariance kernel K[i, j] = mean of centered products.

    Uses divisor n.  Requires at least two curves; a single curve has no
    covariance structure to estimate.  A kernel that overflows, or
    underflows while the curves vary, raises NumericalDegeneracyError.
    """
    if data.n < 2:
        raise InsufficientDataError(f"covariance needs n >= 2 curves, got n={data.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = data.values - sample_mean(data)
        kernel = centered.T @ centered
        kernel /= data.n
    if not np.all(np.isfinite(kernel)):
        raise NumericalDegeneracyError("the covariance kernel overflows; rescale the curves")
    if kernel.diagonal().max() < np.finfo(float).tiny and np.any(centered):
        raise NumericalDegeneracyError("the covariance kernel underflows; rescale the curves")
    return kernel


@dataclass(frozen=True)
class EigenSystem:
    """Leading eigenpairs of the sample covariance operator.

    Eigenfunctions are stored as rows, have unit norm under the grid
    inner product, and carry a deterministic sign: the sample point with
    the largest absolute value is positive.  total_variance is the full
    trace of the covariance operator, independent of the truncation d.
    """

    grid: Grid
    mean: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    eigenfunctions: np.ndarray = field(repr=False)
    total_variance: float

    @property
    def d(self) -> int:
        return self.eigenvalues.shape[0]

    def truncate(self, d: int) -> "EigenSystem":
        d = _argument("EigenSystem.truncate", "d", d, _in_range(1, self.d, "the pairs held"))
        return EigenSystem(
            grid=self.grid,
            mean=self.mean,
            eigenvalues=self.eigenvalues[:d],
            eigenfunctions=self.eigenfunctions[:d],
            total_variance=self.total_variance,
        )

    def tail_variance(self, d: int | None = None) -> float:
        """Variance not explained by the first d components, d an int >= 0 (all held if None)."""
        d = self.d if d is None else _argument("EigenSystem.tail_variance", "d", d, _TAIL)
        tail = self.total_variance - float(np.sum(self.eigenvalues[:d]))
        return max(tail, 0.0)


def _fix_signs(funcs: np.ndarray) -> np.ndarray:
    anchors = funcs[np.arange(len(funcs)), np.argmax(np.abs(funcs), axis=1)]
    funcs *= np.where(anchors < 0, -1.0, 1.0)[:, None]  # exact: x * 1.0 keeps every bit
    return funcs


def eigensystem(data: FunctionalDataset, d: int) -> EigenSystem:
    """Solve the discretized eigenproblem (1/T) K v = lambda v.

    Parameters
    ----------
    data : FunctionalDataset
        Sample of n >= 2 curves.
    d : int
        Number of leading eigenpairs to keep, 1 <= d <= min(n - 1, T).

    Returns
    -------
    EigenSystem
        Eigenvalues in nonincreasing order with eigenfunctions scaled to
        unit grid norm.
    """
    kernel = sample_covariance_kernel(data)  # before d, so one curve is InsufficientDataError
    d = _argument("eigensystem", "d", d, _in_range(1, min(data.n - 1, data.T), "min(n - 1, T)"))
    total = float(np.trace(kernel)) / data.T
    kernel /= data.T
    evals, evecs = np.linalg.eigh(kernel)
    order = np.argsort(evals)[::-1][:d]
    lams = np.maximum(evals[order], 0.0)
    # eigh vectors have unit Euclidean norm; rescale to unit grid norm
    funcs = _fix_signs(evecs[:, order].T * np.sqrt(data.T))
    return EigenSystem(
        grid=data.grid,
        mean=_readonly(sample_mean(data)),
        eigenvalues=_readonly(lams),
        eigenfunctions=_readonly(funcs),
        total_variance=total,
    )


def _pve_rank(eig: EigenSystem, threshold: float) -> int:
    """Smallest d whose leading eigenvalues of eig explain >= threshold of its total variance."""
    if eig.total_variance <= 0.0:
        return 1
    ratio = np.cumsum(eig.eigenvalues) / eig.total_variance
    hits = np.nonzero(ratio >= threshold - 1e-12)[0]
    if hits.size == 0:
        raise InsufficientDataError(
            f"even {eig.d} components explain only {ratio[-1]:.4f} < {threshold}"
        )
    return int(hits[0]) + 1


def pve_dimension(data: FunctionalDataset, threshold: float) -> int:
    """Smallest d whose leading eigenvalues explain >= threshold of variance.

    The eigenvalues are those of eigensystem(data, min(n - 1, T)), the solve that
    gives the basis too, so at most min(n - 1, T) components count.
    """
    threshold = _argument("pve_dimension", "threshold", threshold, _PVE)
    return _pve_rank(eigensystem(data, min(data.n - 1, data.T)), threshold)


@dataclass(frozen=True)
class ScoreMatrix:
    """Projections of centered curves onto eigenfunctions, one row per curve."""

    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scores", _readonly(_argument("ScoreMatrix", "scores", self.scores,
                                                               _array(2))))


def scores(data: FunctionalDataset, eig: EigenSystem) -> ScoreMatrix:
    """Score matrix with entries <Y_k - mean, v_l> under the grid inner product."""
    if data.grid.T != eig.grid.T:
        raise DimensionMismatchError(
            f"data grid T={data.grid.T} does not match eigensystem grid T={eig.grid.T}"
        )
    centered = data.values - eig.mean
    return ScoreMatrix(scores=centered @ eig.eigenfunctions.T / data.T)


def reconstruct(score_matrix: ScoreMatrix, eig: EigenSystem) -> FunctionalDataset:
    """Truncated expansion mean + sum_l y_l v_l for each score row."""
    s = score_matrix.scores
    if s.shape[1] != eig.d:
        raise DimensionMismatchError(
            f"scores have d={s.shape[1]} columns but the eigensystem holds {eig.d}"
        )
    return FunctionalDataset._own(eig.grid, eig.mean + s @ eig.eigenfunctions)
