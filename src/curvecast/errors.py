"""Exception types, and the one key checker that configs, sources, method dicts, process
specs, presets and public arguments share; this module imports nothing from the package."""

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
        cells, bad = _cells(value)
        return (cells.ndim == 1 and bad is None and 0 < len(cells) == (size or len(cells))
                and (kind is float or bool(np.all(cells % 1 == 0))))

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


def _array(*ndims, shape=(), test=None, takes=None) -> tuple:
    """The rule for an array of finite numbers with one of ndims dimensions (see _cells) whose
    last dimensions are shape's, a str in shape naming a length that any value may take."""
    of = f" of shape ({', '.join(map(str, shape))}{',' * (len(shape) == 1)})" if shape else ""
    must = f"be a {' or '.join(f'{ndim}-D' for ndim in ndims)} array of finite numbers{of}"
    return (ndims, shape, must), test, takes


def _cells(value):
    """value as a float array (a float64 one as it is) and the index of its first cell that is
    no finite number, or None; a cell that is no number or ragged rows leave the cells as objects."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):
        try:
            value = np.asarray(value, dtype=object)
        except ValueError:  # rows of unequal lengths
            value = np.fromiter(value, dtype=object)
        if not set(map(type, value.flat)) <= {float}:  # look for a cell that is no finite float
            bad = next((i for i, cell in np.ndenumerate(value) if not _is_number(cell)), None)
            if bad is not None:
                return value, bad
    cells = np.asarray(value, dtype=float)
    finite = np.isfinite(cells)  # whole, as argwhere takes the time of several such passes
    return cells, None if finite.all() else tuple(np.argwhere(~finite)[0])


def _place(index) -> str:
    """A cell's index counted from 1, as 'cell 4', 'row 3, column 2' or 'block 1, row 3, column 2'."""
    names = ("block", "row", "column")[-len(index):] if len(index) > 1 else ("cell",)
    return ", ".join(f"{name} {i + 1}" for name, i in zip(names, index))


def _shown(value) -> str:
    """value as an error message shows it: an array by its shape, anything else by its repr."""
    return f"an array of shape {value.shape}" if isinstance(value, np.ndarray) else repr(value)


def _checked(given: dict, rules: dict, owner: str, needs=(), required=()) -> dict:
    """given's values parsed by rules, one rule per key, with the absent values left out.

    A rule is int or float (one finite number; a whole float becomes an int and a bool is
    neither), another type (checked with isinstance; object takes anything), _array's rule
    (a float array), or (kind, test, takes): a value that passes the rule kind and for which
    test holds, takes saying what test wants.  None counts as absent except for the keys in
    needs, which must be given, and in required, which must hold a value.  A ValueError names
    owner and the key: a missing key of needs, then the first value in rules' order that
    breaks its rule (an array shown by its shape or its first bad cell and that cell's place;
    a wrong shape is a DimensionMismatchError), then the first key rules lack; or says given
    is no dict.
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
        got, error = None, ValueError
        if kind in (int, float):
            ok, must = _is_number(value, kind), f"be one finite {kind.__name__}"
            value = kind(value) if ok else value
        elif isinstance(kind, tuple):  # an array rule's numbers of dimensions, shape and wording
            (ndims, shape, must), (cells, bad) = kind, _cells(value)
            fits = cells.ndim in ndims and all(isinstance(want, str) or want == length
                                               for want, length in zip(shape[::-1], cells.shape[::-1]))
            ok, error = fits and bad is None, ValueError if fits else DimensionMismatchError
            got = f"{cells.item(bad)!r} at {_place(bad)}" if fits and bad is not None else None
            value = cells if cells.ndim else value  # a scalar is shown by its repr
        else:
            ok, must = isinstance(value, kind), f"be a {kind.__name__}"
        if ok and test is not None:
            ok, must = test(value), takes
        if not ok:
            raise error(f"{owner} key {key!r} must {must}, got {got or _shown(value)}")
        checked[key] = value
    extra = given.keys() - rules.keys()
    if extra:
        raise ValueError(f"{owner} has no key {min(extra)!r}; its keys are {', '.join(rules)}")
    return checked


def _argument(owner: str, name: str, value, rule):
    """value, the argument name of the function owner, parsed by rule as _checked parses a key."""
    return _checked({name: value}, {name: rule}, owner, (name,))[name]
