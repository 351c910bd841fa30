"""Turn raw measurement CSVs into curve datasets.

Handles the usual cleanup for daily pollutant-style records: linear
interpolation of missing cells within a curve, a square-root variance
stabilization, and removal of weekday mean profiles.
"""

import numpy as np

from .curves import FunctionalDataset, Grid, _read_rows, _read_table
from .errors import IngestError


def ingest(
    path,
    interpolate_missing: bool = True,
    transform: str = "none",
    weekday_adjust: str = None,
    rows_per_curve: int = None,
) -> FunctionalDataset:
    """Read, clean and reshape a raw CSV of curve samples.

    Parameters
    ----------
    path : str or Path
        CSV with one curve per row, or a flat value stream when
        rows_per_curve is given.
    interpolate_missing : bool
        Fill missing cells by linear interpolation inside each curve,
        extending flat at the ends.  When False, missing cells are an
        error.
    transform : str
        'none' or 'sqrt'.  The square root is applied before any
        centering and rejects negative values.
    weekday_adjust : str, optional
        Name of a label column; the mean curve of each label group is
        subtracted from its members.  Requires a header row and is not
        combined with rows_per_curve.
    rows_per_curve : int, optional
        Reshape the flattened numeric cells into curves of this length,
        an integer >= 2; a whole float such as 2.0 passes.

    Returns
    -------
    FunctionalDataset
        Curves on the midpoint grid matching their sample count.
    """
    if transform not in ("none", "sqrt"):
        raise ValueError(f"transform must be 'none' or 'sqrt', got {transform!r}")
    if weekday_adjust is not None and rows_per_curve is not None:
        raise ValueError("weekday_adjust and rows_per_curve cannot be combined")
    values, labels = _read_table(path, True, weekday_adjust, rows_per_curve)
    _reject_infinite(values, path, weekday_adjust, rows_per_curve)
    missing = np.isnan(values)
    if missing.any():
        if not interpolate_missing:
            rows = sorted(set(np.nonzero(missing)[0].tolist()))
            raise IngestError(f"{path}: missing cells in rows {rows} and interpolation is off")
        _interpolate(values, path)
    if transform == "sqrt":
        neg = np.nonzero(np.any(values < 0.0, axis=1))[0]
        if neg.size:
            raise IngestError(
                f"{path}: sqrt transform needs nonnegative values, rows {neg.tolist()} fail"
            )
        values = np.sqrt(values)
    if labels is not None:
        groups = np.array(labels)
        for label in sorted(set(labels)):
            mask = groups == label
            values[mask] -= values[mask].mean(axis=0)
    return FunctionalDataset._own(Grid(values.shape[1]), values)


def _reject_infinite(values: np.ndarray, path, weekday_adjust, rows_per_curve) -> None:
    """Raise an IngestError naming the first +-inf cell as the file places it.

    Rows count from 1 below the header and columns as in the file, label
    column included; a rows_per_curve stream names the curve and sample.
    """
    bad = np.argwhere(np.isinf(values))
    if not bad.size:
        return
    row, col = bad[0].tolist()
    if rows_per_curve is not None:
        raise IngestError(f"{path}: curve {row + 1}, sample {col + 1} is infinite")
    if weekday_adjust is not None:  # values hold every column but the label column
        header = [c.strip() for c in _read_rows(path)[0][0]]
        col += col >= header.index(weekday_adjust)
    raise IngestError(f"{path}: row {row + 1}, column {col + 1} is infinite")


def _interpolate(values: np.ndarray, path) -> None:
    """Fill the missing cells of each curve in place."""
    idx = np.arange(values.shape[1])
    for i, row in enumerate(values):
        good = ~np.isnan(row)
        if not good.any():
            raise IngestError(f"{path}: curve row {i} is entirely missing")
        if good.all():
            continue
        # np.interp holds the first/last finite value flat past the ends
        values[i] = np.interp(idx, idx[good], row[good])
