"""Turn raw measurement CSVs into curve datasets.

Handles the usual cleanup for daily pollutant-style records: linear
interpolation of missing cells within a curve, a square-root variance
stabilization, and removal of weekday mean profiles.
"""

import warnings

import numpy as np

from .curves import FunctionalDataset, Grid, _read_table
from .errors import IngestError, _argument, _one_of

_TRANSFORMS = ("none", "sqrt")


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
        combined with rows_per_curve.  A label held by one curve leaves
        that curve all zeros and warns.
    rows_per_curve : int, optional
        Reshape the flattened numeric cells into curves of this length,
        an integer >= 2; a whole float such as 2.0 passes.

    Returns
    -------
    FunctionalDataset
        Curves on the midpoint grid matching their sample count.
    """
    transform = _argument("ingest", "transform", transform, _one_of(*_TRANSFORMS))
    if weekday_adjust is not None and rows_per_curve is not None:
        raise ValueError("weekday_adjust and rows_per_curve cannot be combined")
    # curves count from 1: data row k below the header, or the k-th curve of a stream
    values, labels = _read_table(path, True, weekday_adjust, rows_per_curve, True)
    missing = np.isnan(values)
    if missing.any():
        if not interpolate_missing:
            bad = (np.nonzero(missing.any(axis=1))[0] + 1).tolist()
            raise IngestError(f"{path}: missing cells in curves {bad} and interpolation is off")
        _interpolate(values, path)
    if transform == "sqrt":
        neg = np.nonzero(np.any(values < 0.0, axis=1))[0] + 1
        if neg.size:
            raise IngestError(
                f"{path}: sqrt transform needs nonnegative values, curves {neg.tolist()} fail"
            )
        values = np.sqrt(values)
    if labels is not None:
        groups = np.array(labels)
        for label in sorted(set(labels)):
            mask = groups == label
            if mask.sum() == 1:
                warnings.warn(f"{path}: label {label!r} holds only curve "
                              f"{mask.argmax() + 1}, which weekday adjustment sets to zero")
            values[mask] -= values[mask].mean(axis=0)
    return FunctionalDataset._own(Grid(values.shape[1]), values)


def _interpolate(values: np.ndarray, path) -> None:
    """Fill the missing cells of each curve in place."""
    idx = np.arange(values.shape[1])
    for i, row in enumerate(values):
        good = ~np.isnan(row)
        if not good.any():
            raise IngestError(f"{path}: curve {i + 1} is entirely missing")
        if good.all():
            continue
        # np.interp holds the first/last finite value flat past the ends
        values[i] = np.interp(idx, idx[good], row[good])
