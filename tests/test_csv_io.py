"""The two CSV read paths agree, and the writer keeps csv.writer's bytes.

Clean numeric files are parsed in bulk by numpy's C reader; everything
else goes through the per-cell path, which maps missing markers and names
the offending cell.  A file the bulk parse accepts must give the per-cell
matrix bit for bit, and a file it rejects must give the per-cell result.
"""

import csv
import re
import warnings

import numpy as np
import pytest

from curvecast import (FunctionalDataset, Grid, IngestError, ingest, load_curves_csv, load_numeric_csv,
                       save_curves_csv)
from curvecast import curves


_read_cells = curves._read_cells


def per_cell(path):
    """The per-cell reading of a file whose cells are all finite numbers."""
    with open(path, encoding=curves.CSV_ENCODING) as fh:
        rows = [row for row in csv.reader(fh) if row]
    return np.array(curves._parse_rows(rows[curves._is_header(rows[0]):]), dtype=float)


def write(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.fixture
def read(monkeypatch):
    """load_numeric_csv of a path (or its IngestError), and whether the per-cell path ran."""
    calls = []

    def spy(*args):
        calls.append(1)
        return _read_cells(*args)

    monkeypatch.setattr(curves, "_read_cells", spy)

    def run(path):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return load_numeric_csv(path), bool(calls)
            except IngestError as err:
                return err, bool(calls)

    return run


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


BULK = {
    "header": "t_1,t_2\n1.0,2.0\n3.0,4.0\n",
    "header with blank and NA cells": "time,,NA\n1.0,2.0,3.0\n",
    "empty lines": "\n\nt_1,t_2\n\n1.0,2.0\n\n\n3.0,4.0\n\n",
    "CR-only line ends": "t_1,t_2\r1.0,2.0\r3.0,4.0\r",
    "CRLF line ends": "t_1,t_2\r\n1.0,2.0\r\n3.0,4.0",
    "blank lines before a CR header": "\r\r\rt_1,t_2\r1.5,-2.0\r",
    "multi-line quoted header": '"t\n1",t_2\n1.0,2.0\n',
    "spaces around cells": " 1.0 ,\t2.0\n3.0  ,  4.0 \n",
    "NBSP and em spaces around cells": "\xa01.0\xa0,2.0\n3.0,\u20034.0\n",
    "leading plus": "+1.0,+2e3\n-3.0,+.5\n",
    "single column": "x\n1.0\n2.0\n3.0\n",
    "single row": "1.0,2.0,3.0\n",
    "single cell": "7",
    "exponents and short forms": "1e5,1E-5,.5,5.\n-0,0e0,10e0,4\n",
}


@pytest.mark.parametrize("name", sorted(BULK))
def test_bulk_parse_equals_per_cell_path(tmp_path, read, name):
    path = write(tmp_path, BULK[name])
    values, fell_back = read(path)
    assert not fell_back
    assert same_bits(values, per_cell(path))


def test_bulk_parse_of_written_doubles_is_exact(tmp_path, read):
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 1 / 3, -2.5e-200]
    wide = rng.normal(size=(40, 16)) * 10.0 ** rng.integers(-300, 300, size=(40, 16))
    values = np.vstack([np.resize(special, (2, 16)), wide])
    path = tmp_path / "doubles.csv"
    save_curves_csv(FunctionalDataset(grid=Grid(16), values=values), path)
    for header in (True, False):
        if not header:  # the same rows without their header line
            path.write_bytes(path.read_bytes().split(b"\n", 1)[1])
        back, fell_back = read(path)
        assert not fell_back
        assert same_bits(back, values)
        assert same_bits(back, per_cell(path))


# files the bulk parse rejects: today's matrix, or today's error
PER_CELL = {
    "quoted cells": ('"1.0","2.0"\n3.0,"4.0"\n', [[1.0, 2.0], [3.0, 4.0]]),
    "digit separators": ("1_0,2\n3,4_5\n", [[10.0, 2.0], [3.0, 45.0]]),
    "Unicode digits": ("\u0661,2\n3,\u0664.5\n", [[1.0, 2.0], [3.0, 4.5]]),
    "whitespace-only line": ("1,2\n   \n3,4\n", "inconsistent row lengths \\[1, 2\\]"),
    "comment line": ("1,2\n# note\n3,4\n", "row 2, column 1 is non-numeric"),
    "trailing commas": ("1,2,\n3,4,\n", "row 1, column 3 is missing or non-finite"),
    "nan cell": ("t_1,t_2\n1,nan\n3,4\n", "row 1, column 2 is missing or non-finite"),
    "NA cell": ("1,2\nNA,4\n", "row 2, column 1 is missing or non-finite"),
    "inf cell": ("1,2\n3,-inf\n", "row 2, column 2 is missing or non-finite"),
    "ragged rows": ("1,2\n3\n", "inconsistent row lengths \\[1, 2\\]"),
    "text cell": ("t_1,t_2\n1,2\n3,abc\n", "row 2, column 2 is non-numeric"),
}


# bulk-parsed non-finite cells reach the per-cell path's finite check without it
BULK_NON_FINITE = {"nan cell", "inf cell"}


@pytest.mark.parametrize("name", sorted(PER_CELL))
def test_rejected_files_keep_the_per_cell_result(tmp_path, read, name):
    text, expected = PER_CELL[name]
    result, fell_back = read(write(tmp_path, text))
    assert fell_back or name in BULK_NON_FINITE
    if isinstance(expected, str):
        assert isinstance(result, IngestError)
        assert re.search(expected, str(result))
    else:
        assert same_bits(result, np.array(expected))


@pytest.mark.parametrize("text", ["", "\n\n", "t_1,t_2\n", "t_1,t_2\n\n\n"])
def test_files_without_data_rows_raise_without_a_numpy_warning(tmp_path, read, text):
    result, _ = read(write(tmp_path, text))
    assert isinstance(result, IngestError)
    assert "no data rows found" in str(result)


def csv_writer_reference(data, path):
    """The writer before it joined lines itself: one csv.writer row per curve."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"t_{i + 1}" for i in range(data.T)])
        for row in data.values:
            writer.writerow([repr(float(v)) for v in row])


def test_save_writes_the_csv_writer_bytes(tmp_path):
    rng = np.random.default_rng(9)
    values = rng.normal(size=(25, 12)) * 10.0 ** rng.integers(-320, 308, size=(25, 12))
    values[0, :4] = [0.0, -0.0, 5e-324, -1e308]
    values[1] = np.round(values[1])
    data = FunctionalDataset(grid=Grid(12), values=values)
    save_curves_csv(data, tmp_path / "new.csv")
    csv_writer_reference(data, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# a UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports start with
BOM = "\ufeff"


def test_headerless_file_with_a_byte_order_mark_reads_in_bulk(tmp_path, read):
    values, fell_back = read(write(tmp_path, BOM + "1,2\n3,4\n"))
    assert not fell_back
    assert same_bits(values, np.array([[1.0, 2.0], [3.0, 4.0]]))


@pytest.mark.parametrize("text", ["t_1,t_2\n1.0,2.0\n3.0,4.0\n", '"t\n1",t_2\n1.0,2.0\n'])
def test_header_after_a_byte_order_mark_reads_as_without_it(tmp_path, read, text):
    plain, _ = read(write(tmp_path, text))
    path = write(tmp_path, BOM + text)
    values, fell_back = read(path)
    assert not fell_back
    assert same_bits(values, plain)
    with open(path, encoding=curves.CSV_ENCODING) as fh:
        header = next(filter(None, csv.reader(fh)))
    assert not header[0].startswith(BOM)


# files that are not UTF-8 text: a Latin-1 cell on line 3, and UTF-16, whose byte-order mark
# is the first bad byte
NOT_UTF8 = [(b"t_1,t_2\n1.0,2.0\n3.0,4\xe9\n", 3, "0xe9"),
            ("t_1,t_2\n1.0,2.0\n3.0,4.0\n".encode("utf-16"), 1, "0xff")]


@pytest.mark.parametrize("raw, line, byte", NOT_UTF8, ids=["latin-1", "utf-16"])
def test_a_file_that_is_not_utf8_names_its_line(tmp_path, raw, line, byte):
    # it used to end in a bare UnicodeDecodeError naming neither the file nor the line
    path = tmp_path / "curves.csv"
    path.write_bytes(raw)
    want = f"{path}: line {line} holds byte {byte}, which is not UTF-8; save the file as UTF-8"
    for load in (load_curves_csv, ingest, load_numeric_csv):
        with pytest.raises(IngestError) as err:
            load(path)
        assert str(err.value) == want


def test_non_ascii_utf8_text_still_reads(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("t_1,t_2,station\n1,2,München\n3,4,Köln\n5,6,München\n7,9,Köln\n",
                    encoding="utf-8")
    assert ingest(path, weekday_adjust="station").values.tolist() == [[-2, -2], [-2, -2.5],
                                                                      [2, 2], [2, 2.5]]


@pytest.mark.parametrize("text", ["t_1\n1.0\n2.0\n3.0\n", "1.0\n2.0\n3.0\n"], ids=["header", "bare"])
def test_a_one_column_curve_file_names_the_file(tmp_path, text):
    # it used to fail in Grid, with "Grid key 'T' must be >= 2, got 1" naming no file
    path = write(tmp_path, text)
    for load in (load_curves_csv, ingest):
        with pytest.raises(IngestError) as err:
            load(path)
        assert str(err.value) == f"{path}: a curve needs two or more samples, but each row holds 1"
    assert load_numeric_csv(path).tolist() == [[1.0], [2.0], [3.0]]  # a one-column covariate file
