"""Exception types, and the one key checker that configs, sources, method dicts,
process specs and presets share; this module imports nothing from the package."""

import math
import numbers

import numpy as np


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


def _is_number(value, kind=float) -> bool:
    """Whether value is one finite real number of kind, which int narrows to integers; no bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value) and kind(value) == value
    except OverflowError:  # an integer too large for a float
        return False


def _numbers(size: int = None, kind=float) -> tuple:
    """The rule for a list of size finite numbers of kind, or of one or more when size is None."""
    def test(value):
        if np.ndim(value) != 1 or not 0 < len(value) == (size or len(value)):
            return False
        if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":  # no bools: test it whole
            return bool(np.isfinite(value).all() and (kind is float or (value % 1 == 0).all()))
        return all(_is_number(v, kind) for v in value)

    return object, test, f"list {size or 'one or more'} {'integers' if kind is int else 'numbers'}"


def _at_least(low: int) -> tuple:
    """The rule for one integer no smaller than low."""
    return (int, lambda value: value >= low, f"be >= {low}")


def _in_range(low: int, high: int, bound: str) -> tuple:
    """The rule for one integer in low..high, where bound names what sets high."""
    return (int, lambda value: low <= value <= high, f"be in {low}..{bound} = {high}")


def _one_of(*choices) -> tuple:
    """The rule for one str from the closed set choices."""
    return (str, choices.__contains__, f"be one of {', '.join(map(repr, choices))}")


def _shown(value) -> str:
    """value as an error message shows it: an array by its shape, anything else by its repr."""
    return f"an array of shape {value.shape}" if isinstance(value, np.ndarray) else repr(value)


def _checked(given: dict, rules: dict, owner: str, needs=(), required=()) -> dict:
    """given's values parsed by rules, one rule per key, with the absent values left out.

    A rule is int or float (one finite number; a whole float becomes an int and a bool is
    neither), another type (checked with isinstance; object takes anything), or
    (kind, test, takes): a value that passes the rule kind and for which test holds, takes
    saying what test wants.  None counts as absent except for the keys in needs, which must
    be given, and in required, which must hold a value.  A ValueError names owner and the
    key: a missing key of needs, then the first value in rules' order that breaks its rule
    (an array shown by its shape), then the first key rules lack; or says given is no dict.
    """
    if not isinstance(given, dict):
        raise ValueError(f"{owner} must be a dict, got {_shown(given)}")
    for key in needs:
        if key not in given:
            raise ValueError(f"{owner} needs key {key!r}")
    checked = {}
    for key, rule in rules.items():
        value = given.get(key)
        if value is None and key not in needs and key not in required:
            continue
        kind, test, takes = rule if isinstance(rule, tuple) else (rule, None, None)
        if kind in (int, float):
            ok, must = _is_number(value, kind), f"be one finite {kind.__name__}"
            value = kind(value) if ok else value
        else:
            ok, must = isinstance(value, kind), f"be a {kind.__name__}"
        if ok and test is not None:
            ok, must = test(value), takes
        if not ok:
            raise ValueError(f"{owner} key {key!r} must {must}, got {_shown(value)}")
        checked[key] = value
    extra = given.keys() - rules.keys()
    if extra:
        raise ValueError(f"{owner} has no key {min(extra)!r}; its keys are {', '.join(rules)}")
    return checked


def _argument(owner: str, name: str, value, rule):
    """value, the argument name of the function owner, parsed by rule as _checked parses a key."""
    return _checked({name: value}, {name: rule}, owner, (name,))[name]
