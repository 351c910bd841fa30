"""Exception types, and the key and number checks that configs, method dicts
and process specs share; this module imports nothing from the package."""

import math
import numbers


class CurvecastError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(CurvecastError, ValueError):
    """Operands live on incompatible grids or have incompatible shapes."""


class ResolutionError(CurvecastError, ValueError):
    """Grid is too coarse for the requested basis size."""


class InsufficientDataError(CurvecastError, ValueError):
    """Not enough observations for the requested estimate."""


class RankDeficiencyError(CurvecastError, ValueError):
    """A least-squares design matrix is numerically rank deficient."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class NumericalDegeneracyError(CurvecastError, ValueError):
    """A matrix recursion hit a singular intermediate step."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class IllConditionedError(CurvecastError, ValueError):
    """An eigenvalue-weighted inverse would amplify noise beyond use."""


class NonstationaryError(CurvecastError, ValueError):
    """Process specification violates the stationarity guard."""


class SelectionError(CurvecastError, ValueError):
    """Criterion sweep produced no usable cell."""


class IngestError(CurvecastError, ValueError):
    """Raw data file cannot be turned into a curve dataset."""


def _check_keys(given, keys, owner: str, required=()) -> None:
    """Raise a ValueError naming a required key that given lacks, or its first key outside keys."""
    for key in required:
        if key not in given:
            raise ValueError(f"{owner} needs key {key!r}")
    extra = sorted(set(given) - set(keys))
    if extra:
        raise ValueError(f"{owner} has no key {extra[0]!r}; its keys are {', '.join(keys)}")


def _is_number(value, kind=float) -> bool:
    """Whether value is one finite real number of kind, which int narrows to integers; no bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value) and kind(value) == value
    except OverflowError:  # an integer too large for a float
        return False


def _number(given: dict, key: str, default, kind=float, owner: str = "source"):
    """given[key] as a kind, default when it is absent or None.

    A ValueError names owner's key unless the value is one finite number of that kind.
    """
    value = given.get(key)
    value = default if value is None else value
    if not _is_number(value, kind):
        raise ValueError(f"{owner} key {key!r} must be one finite {kind.__name__}, got {value!r}")
    return kind(value)
