"""Curves on a shared midpoint grid and L2([0, 1]) primitives.

A curve is a row of T samples taken at t_i = (i - 1/2)/T, so integrals
reduce to plain averages and the covariance operator of a dataset becomes
a symmetric T x T matrix problem.
"""

import csv
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import IngestError, ResolutionError, _argument, _array, _at_least

# UTF-8 that drops a leading byte-order mark, as spreadsheet "CSV UTF-8" exports write one
CSV_ENCODING = "utf-8-sig"
_GRID_T, _BASIS_D = _at_least(2), _at_least(1)  # the rules of a grid size T and a basis size D
_UNDECODED = re.compile("[\udc80-\udcff]")  # a byte that is no UTF-8, as surrogateescape reads it


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Grid:
    """Equispaced midpoint grid t_i = (i - 1/2)/T on [0, 1]."""

    T: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "T", _argument("Grid", "T", self.T, _GRID_T))
        pts = (np.arange(self.T) + 0.5) / self.T
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def spacing(self) -> float:
        return 1.0 / self.T


def inner_product(f, g, grid: Grid) -> float:
    """Midpoint-rule inner product (1/T) * sum(f * g)."""
    sample = _array(1, shape=(grid.T,))
    f, g = _argument("inner_product", "f", f, sample), _argument("inner_product", "g", g, sample)
    return float(f @ g) / grid.T


def l2_norm(f, grid: Grid) -> float:
    """Norm induced by :func:`inner_product`."""
    f = _argument("l2_norm", "f", f, _array(1, shape=(grid.T,)))
    return float(np.sqrt(inner_product(f, f, grid)))


@dataclass(frozen=True)
class FunctionalDataset:
    """n curves sampled on a common grid, stored as an (n, T) array."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self, copy: bool = True):
        curves = _array(2, shape=("n", self.grid.T), test=len, takes="hold one or more curves")
        vals = _argument("FunctionalDataset", "values", self.values, curves)
        vals = np.array(vals) if copy else vals
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def _own(cls, grid: Grid, values: np.ndarray) -> "FunctionalDataset":
        """A dataset over a fresh float array that nothing else writes: read-only, not copied."""
        data = object.__new__(cls)
        object.__setattr__(data, "grid", grid)
        object.__setattr__(data, "values", values)
        data.__post_init__(copy=False)
        return data

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def T(self) -> int:
        return self.grid.T


@dataclass(frozen=True)
class FourierBasis:
    """First D elements of the Fourier basis sampled on a grid.

    Row 1 is the constant function, rows 2j and 2j + 1 are
    sqrt(2) sin(2 pi j t) and sqrt(2) cos(2 pi j t).  Unit norms and
    pairwise orthogonality hold under the grid inner product as long as
    T >= 8 D, which the constructor enforces.
    """

    D: int
    grid: Grid
    values: np.ndarray = field(repr=False)


def make_fourier_basis(D: int, grid: Grid) -> FourierBasis:
    """The first D Fourier basis functions (see FourierBasis) on grid; needs T >= 8 D."""
    D = _argument("make_fourier_basis", "D", D, _BASIS_D)
    if grid.T < 8 * D:
        raise ResolutionError(f"T={grid.T} is too coarse for D={D}; need T >= 8*D")
    t = grid.points
    rows = np.empty((D, grid.T))
    rows[0] = 1.0
    for idx in range(1, D):
        j = (idx + 1) // 2
        if idx % 2 == 1:
            rows[idx] = np.sqrt(2.0) * np.sin(2.0 * np.pi * j * t)
        else:
            rows[idx] = np.sqrt(2.0) * np.cos(2.0 * np.pi * j * t)
    return FourierBasis(D=D, grid=grid, values=_readonly(rows))


def synthesize(coeffs, basis: FourierBasis) -> FunctionalDataset:
    """Assemble curves sum_l c_l e_l from coefficient rows (a 1-D array is one row)."""
    coeffs = _argument("synthesize", "coeffs", coeffs, _array(1, 2, shape=("n", basis.D)))
    coeffs = coeffs[None] if coeffs.ndim == 1 else coeffs
    return FunctionalDataset._own(basis.grid, coeffs @ basis.values)


def _write_csv(path, header, rows) -> None:
    """Write a header row and then rows with csv.writer: the one CSV format this package writes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_curves_csv(data: FunctionalDataset, path) -> None:
    """Write a header row t_1,...,t_T, then one curve per row of repr'd floats."""
    # joined here for speed, in the bytes _write_csv would write
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"t_{i + 1}" for i in range(data.T)) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in data.values.tolist())


def load_curves_csv(path) -> FunctionalDataset:
    """Read a curve-per-row CSV written by :func:`save_curves_csv`.

    A single leading header row is detected and skipped.  Missing or
    non-numeric cells are rejected, and so is a file of one column; use
    ingest() for raw files that need cleaning.
    """
    values = _read_table(path, curves=True)[0]
    return FunctionalDataset._own(Grid(values.shape[1]), values)


def load_numeric_csv(path) -> np.ndarray:
    """Read a plain numeric matrix CSV, skipping one header row if present.

    Empty files and ragged rows raise IngestError, and so does the first blank,
    NA, non-finite or non-numeric cell, named by its row and column counted from
    1 below the header; the same reader serves load_curves_csv and ingest.  A file
    that is not UTF-8 text raises IngestError naming the line of its first bad byte.
    """
    return _read_table(path)[0]


def _read_table(path, raw: bool = False, label: str = None, rows_per_curve=None,
                curves: bool = False):
    """A CSV's (values, labels): its header, label column and data lines, found once, then
    the bulk parse of the data lines, else the per-cell reader.

    In a raw file blank cells read as nan, and label names the header column whose stripped
    cells are the labels; rows count from 1 below the header, which a label requires.
    rows_per_curve, a parsed integer >= 2, reshapes the flattened cells into curves of that
    length.  This is the one place that rejects a bad cell, after either reader: every
    returned cell is finite, or nan for a missing marker in a raw file.  The first other
    cell in reading order, text or not, raises an IngestError naming its row and its column
    as in the file, label column included, or under rows_per_curve its curve and sample.
    A byte that is no UTF-8 raises an IngestError naming its line, and with curves so does
    a file of fewer than two columns.
    """
    # read once, so a pipe or FIFO keeps every row; a bad byte is found by its line
    with open(path, encoding=CSV_ENCODING, errors="surrogateescape") as fh:
        lines = fh.readlines()
    if not all(map(str.isascii, lines)):  # isascii takes O(1) time, so an ASCII file costs nothing
        for number, line in enumerate(lines, start=1):
            byte = _UNDECODED.search(line)
            if byte:
                raise IngestError(f"{path}: line {number} holds byte {ord(byte[0]) - 0xDC00:#04x}, "
                                  f"which is not UTF-8; save the file as UTF-8")
    # the header, the label column and the data lines, decided once for both readers
    reader = csv.reader(lines)
    first = [c.strip() for c in next(filter(None, reader), [])]
    if label is not None and label not in first:
        raise IngestError(f"{path}: no column named {label!r} in the header")
    col = None if label is None else first.index(label)
    body = lines[reader.line_num if label is not None or _is_header(first) else 0 :]
    if all(line == "\n" for line in body):  # csv.reader reads only empty rows
        raise IngestError(f"{path}: no data rows found")
    # rows_per_curve streams are rare enough to keep to the per-cell reader, and so is a raw file
    # with a quote anywhere, header included, where a quoted comma would shift the columns
    parsed = (rows_per_curve is None and not (raw and any('"' in line for line in lines))
              and _bulk_parse(body, raw, col))
    values, labels, text = parsed or _read_cells(path, body, label, col, rows_per_curve)
    bad = np.isinf(values) if raw else ~np.isfinite(values)
    bad = np.argwhere(bad if text is None else bad | text)
    if bad.size:
        text = text is not None and text[tuple(bad[0])]
        what = "non-numeric" if text else "infinite" if raw else "missing or non-finite"
        row, cell = bad[0] + 1
        cell += col is not None and cell > col  # values hold every column but the label's
        where = f"curve {row}, sample {cell}" if rows_per_curve else f"row {row}, column {cell}"
        raise IngestError(f"{path}: {where} is {what}")
    if curves and values.shape[1] < 2:
        raise IngestError(f"{path}: a curve needs two or more samples, but each row holds "
                          f"{values.shape[1]}")
    return values, labels


def _read_cells(path, body, label, col, rows_per_curve):
    """The per-cell reader of a CSV's data lines: (values, labels, text mask or None), missing
    markers and text as nan; text skips the shape checks so that _read_table places it."""
    rows = [row for row in csv.reader(body) if row]
    labels = None
    if label is not None:
        for i, row in enumerate(rows, start=1):
            if len(row) <= col:
                raise IngestError(f"{path}: row {i} ends before the {label!r} column")
        labels = [row[col].strip() for row in rows]
        # blank the label cell while parsing so that error columns count as in the file
        cells = _parse_rows([row[:col] + [""] + row[col + 1 :] for row in rows])
        cells = [row[:col] + row[col + 1 :] for row in cells]
    else:
        cells = _parse_rows(rows)
    has_text = any(None in row for row in cells)
    if rows_per_curve is not None:
        flat = [v for row in cells for v in row]
        if len(flat) % rows_per_curve and not has_text:
            raise IngestError(f"{path}: {len(flat)} values do not divide into curves of "
                              f"{rows_per_curve}")
        flat += [0.0] * (-len(flat) % rows_per_curve)
        cells = [flat[i : i + rows_per_curve] for i in range(0, len(flat), rows_per_curve)]
    widths = {len(row) for row in cells}
    if len(widths) != 1:
        if not has_text:
            raise IngestError(f"{path}: inconsistent row lengths {sorted(widths)}")
        cells = [row + [0.0] * (max(widths) - len(row)) for row in cells]
    text = np.array([[c is None for c in row] for row in cells]) if has_text else None
    return np.array(cells, dtype=float), labels, text


def _bulk_parse(body: list, raw: bool = False, col: int = None):
    """A CSV's data lines parsed by numpy's C reader: (values, labels, None), else None.

    Each line keeps its end.  In a raw file blank cells read as nan, and the stripped cells
    of column col are the labels.  None means ragged rows, rows that end before col or a
    cell numpy rejects (NA, spaces, text).
    """
    body = [line for line in body if line != "\n"]  # the data rows, for numpy
    usecols = labels = None
    if raw:
        body = [line.rstrip("\n") for line in body]
        # usecols drops surplus cells without an error, so ragged rows are caught here
        widths = {line.count(",") + 1 for line in body}
        if len(widths) != 1 or col is not None and col >= min(widths):
            return None
        if col is not None:
            labels = [line.split(",", col + 1)[col].strip() for line in body]
            usecols = [c for c in range(widths.pop()) if c != col]
        # blank cells as nan: a run of commas leaves every other gap to the second pass
        body = [f",{line},".replace(",,", ",nan,").replace(",,", ",nan,")[1:-1]
                if ",," in line or line[0] == "," or line[-1] == "," else line for line in body]
    try:
        values = np.loadtxt(body, delimiter=",", comments=None, ndmin=2, usecols=usecols)
    except ValueError:
        return None
    return values, labels, None  # numpy takes numbers only, so no cell is text


def _is_header(row) -> bool:
    """A header holds text and no number; blank and NA cells count as neither."""
    cells = [_parse_cell(c) for c in row]
    return None in cells and all(c is None or np.isnan(c) for c in cells)


def _parse_rows(rows) -> list:
    """Each row's cells as floats, missing markers as nan, text as None."""
    return [[_parse_cell(c) for c in row] for row in rows]


def _parse_cell(cell: str) -> float | None:
    """A cell as a float, a missing marker as nan, text as None."""
    cell = cell.strip()
    if cell == "" or cell.lower() in ("na", "nan"):
        return np.nan
    try:
        return float(cell)
    except ValueError:
        return None
