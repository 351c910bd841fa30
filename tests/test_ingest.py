import builtins
import importlib
import re
import warnings
from contextlib import nullcontext

import numpy as np
import pytest

from curvecast import IngestError, ingest, load_curves_csv, load_numeric_csv
from curvecast.curves import _read_cells
from curvecast.experiments import make_pm10_analog


def write_csv(path, text):
    path.write_text(text)
    return path


def test_interior_gaps_interpolate_linearly(tmp_path):
    path = write_csv(tmp_path / "raw.csv", "1.0,,3.0,4.0\n2.0,4.0,6.0,8.0\n")
    data = ingest(path)
    assert np.allclose(data.values[0], [1.0, 2.0, 3.0, 4.0])
    assert np.allclose(data.values[1], [2.0, 4.0, 6.0, 8.0])
    assert data.grid.T == 4


def test_edge_gaps_extend_flat(tmp_path):
    path = write_csv(tmp_path / "raw.csv", ",5.0,,9.0\n1.0,1.0,1.0,\n")
    data = ingest(path)
    assert np.allclose(data.values[0], [5.0, 5.0, 7.0, 9.0])
    assert np.allclose(data.values[1], [1.0, 1.0, 1.0, 1.0])


def test_missing_without_interpolation_names_rows(tmp_path):
    path = write_csv(tmp_path / "raw.csv", "1.0,2.0\n,4.0\n5.0,\n")
    with pytest.raises(IngestError, match=r"curves \[2, 3\]"):
        ingest(path, interpolate_missing=False)


def test_fully_missing_curve_rejected(tmp_path):
    path = write_csv(tmp_path / "raw.csv", "1.0,2.0\n,\n")
    with pytest.raises(IngestError, match="entirely missing"):
        ingest(path)


def test_sqrt_transform(tmp_path):
    path = write_csv(tmp_path / "raw.csv", "4.0,9.0,16.0,25.0\n")
    data = ingest(path, transform="sqrt")
    assert np.allclose(data.values[0], [2.0, 3.0, 4.0, 5.0])


def test_sqrt_rejects_negative_rows(tmp_path):
    path = write_csv(tmp_path / "raw.csv", "4.0,9.0\n1.0,-1.0\n-4.0,9.0\n")
    with pytest.raises(IngestError, match=r"curves \[2, 3\]"):
        ingest(path, transform="sqrt")


def test_unknown_transform(tmp_path):
    path = write_csv(tmp_path / "raw.csv", "1.0,2.0\n")
    with pytest.raises(ValueError):
        ingest(path, transform="log")


def test_weekday_adjustment_centers_each_group(tmp_path):
    lines = ["day,t_1,t_2"]
    for k in range(3):
        lines.append(f"mon,{1.0 + k},{2.0 + k}")
        lines.append(f"tue,{10.0 + k},{20.0 + k}")
    path = write_csv(tmp_path / "raw.csv", "\n".join(lines) + "\n")
    data = ingest(path, weekday_adjust="day")
    assert data.n == 6 and data.grid.T == 2
    mon = data.values[0::2]
    tue = data.values[1::2]
    assert np.allclose(mon.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(tue.mean(axis=0), 0.0, atol=1e-12)
    # within-group shape survives: deviations from the group mean
    assert np.allclose(mon[:, 0], [-1.0, 0.0, 1.0])


def test_weekday_needs_matching_header(tmp_path):
    path = write_csv(tmp_path / "raw.csv", "day,t_1\nmon,1.0\n")
    with pytest.raises(IngestError, match="weekday"):
        ingest(path, weekday_adjust="weekday")


def test_weekday_conflicts_with_reshape(tmp_path):
    path = write_csv(tmp_path / "raw.csv", "day,t_1\nmon,1.0\n")
    with pytest.raises(ValueError):
        ingest(path, weekday_adjust="day", rows_per_curve=2)


def test_reshape_flat_stream(tmp_path):
    rows = "\n".join(",".join(str(float(4 * r + c)) for c in range(4)) for r in range(6))
    path = write_csv(tmp_path / "raw.csv", rows + "\n")
    data = ingest(path, rows_per_curve=8)
    assert data.values.shape == (3, 8)
    assert np.allclose(data.values.ravel(), np.arange(24.0))


def test_reshape_needs_divisible_count(tmp_path):
    path = write_csv(tmp_path / "raw.csv", "1.0,2.0,3.0\n4.0,5.0,6.0\n")
    with pytest.raises(IngestError, match="do not divide"):
        ingest(path, rows_per_curve=5)
    with pytest.raises(ValueError, match="^ingest key 'rows_per_curve' must be >= 2, got 1$"):
        ingest(path, rows_per_curve=1)


def test_header_row_skipped(tmp_path):
    path = write_csv(tmp_path / "raw.csv", "t_1,t_2\n1.0,2.0\n3.0,4.0\n")
    data = ingest(path)
    assert data.n == 2
    assert np.allclose(data.values[0], [1.0, 2.0])


def test_non_numeric_cell_rejected(tmp_path):
    path = write_csv(tmp_path / "raw.csv", "1.0,2.0\n3.0,oops\n")
    with pytest.raises(IngestError, match="non-numeric"):
        ingest(path)


def test_empty_file_rejected(tmp_path):
    path = write_csv(tmp_path / "raw.csv", "")
    with pytest.raises(IngestError, match="empty"):
        ingest(path)


def test_sqrt_runs_before_weekday_centering(tmp_path):
    lines = ["day,t_1,t_2", "mon,4.0,16.0", "mon,16.0,36.0"]
    path = write_csv(tmp_path / "raw.csv", "\n".join(lines) + "\n")
    data = ingest(path, transform="sqrt", weekday_adjust="day")
    # sqrt first gives (2,4) and (4,6); centering leaves +/-1 deviations
    assert np.allclose(data.values, [[-1.0, -1.0], [1.0, 1.0]])


@pytest.mark.parametrize(
    "text, weekday, where",
    [
        ("1.0,2.0\n3.0,oops\n", None, "row 2, column 2"),
        ("day,t_1,t_2\nmon,1.0,2.0\ntue,3.0,oops\n", "day", "row 2, column 3"),
        ("t_1,day,t_2\n1.0,mon,oops\n", "day", "row 1, column 3"),
        ("1.0,abc\n2.0,3.0\n4.0,5.0\n", None, "row 1, column 2"),
    ],
)
def test_non_numeric_cell_position_counts_file_columns(tmp_path, text, weekday, where):
    path = write_csv(tmp_path / "raw.csv", text)
    with pytest.raises(IngestError, match=f"{where} is non-numeric"):
        ingest(path, weekday_adjust=weekday)


def test_weekday_label_missing_from_a_short_row(tmp_path):
    path = write_csv(tmp_path / "raw.csv", "a,day\n1.0,mon\n2.0\n")
    with pytest.raises(IngestError, match="row 2 ends before the 'day' column"):
        ingest(path, weekday_adjust="day")


def test_byte_order_mark_before_a_first_label_column(tmp_path):
    text = "weekday,t_1,t_2\nMon,1.0,2.0\nTue,4.0,3.0\nMon,3.0,6.0\n"
    path = tmp_path / "bom.csv"
    path.write_bytes(("\ufeff" + text).encode("utf-8"))
    with pytest.warns(UserWarning, match="holds only curve"):  # 'Tue' labels one curve
        plain = ingest(write_csv(tmp_path / "plain.csv", text), weekday_adjust="weekday")
        data = ingest(path, weekday_adjust="weekday")
    assert data.values.tobytes() == plain.values.tobytes()


# ---------------------------------------------------------------------------
# the bulk parse and the per-cell reader give the same rows, labels and errors

raw_reader = importlib.import_module("curvecast.curves")


def read_raw(path, label, monkeypatch, per_cell):
    """_read_table's raw (values, labels) and whether the per-cell reader ran."""
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(raw_reader, "_read_cells", lambda *args: calls.append(1) or _read_cells(*args))
        if per_cell:
            patch.setattr(raw_reader, "_bulk_parse", lambda *args, **kwargs: None)
        values, labels = raw_reader._read_table(path, True, label)
    return values, labels, bool(calls)


def ingest_per_cell(path, label, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(raw_reader, "_bulk_parse", lambda *args, **kwargs: None)
        return ingest(path, weekday_adjust=label)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# name -> (text, label column, whether the bulk parse takes the file)
RAW_FILES = {
    "blank first, last and consecutive cells": ("t_1,t_2,t_3,t_4\n,2,3,\n1,,,4\n,,,8\n", None, True),
    "NaN marker": ("1,NaN,3\n4,5,nan\n", None, True),
    "NA marker": ("1,NA,3\n4,5,6\n", None, False),
    "na marker": ("day,t_1,t_2\nMon,na,3\nTue,5,6\n", "day", False),
    "whitespace-only cell": ("1, ,3\n4,5,6\n", None, False),
    "quoted label holding a comma": ('day,t_1,t_2\n"Mon, wk1",1,2\n"Tue, wk1",3,\n', "day", False),
    # split at commas and line ends, this file has three rows of equal width that all parse
    "quoted label holding commas and a line end": ('day,t_1,t_2\n"Mon,1,\nwk",5,6\nTue,7,8\n', "day", False),
    "byte-order mark": ("\ufeffday,t_1,t_2\nMon,1,2\nTue,,4\n", "day", True),
    "label column in the middle": ("t_1,day,t_2\n1,Mon,2\n,Tue,4\n3, Mon ,\n", "day", True),
    "blank label cell": ("day,t_1,t_2\n,1,2\nMon,3,\n", "day", True),
    "no header": ("1,2,3\n,5,6\n7,8,\n", None, True),
    "LF endings": ("day,t_1,t_2\nMon,1,\nTue,,4\nMon,5,6\n", "day", True),
    "CRLF endings": ("day,t_1,t_2\r\nMon,1,\r\nTue,,4\r\nMon,5,6\r\n", "day", True),
    "blank lines": ("\n\nday,t_1,t_2\n\nMon,1,\n\n\nTue,,4\n\n", "day", True),
    "header and blank cells, no label": ("t_1,t_2,t_3\n1,,3\n,5,6\n", None, True),
}


@pytest.mark.parametrize("name", sorted(RAW_FILES))
def test_bulk_parse_equals_per_cell_reader(tmp_path, monkeypatch, name):
    text, label, bulk = RAW_FILES[name]
    path = tmp_path / "raw.csv"
    path.write_bytes(text.encode("utf-8"))
    values, labels, fell_back = read_raw(path, label, monkeypatch, per_cell=False)
    expected, expected_labels, _ = read_raw(path, label, monkeypatch, per_cell=True)
    assert fell_back != bulk
    assert same_bits(values, expected)
    assert labels == expected_labels
    # each labelled file here has a label of one curve, which ingest warns about
    with pytest.warns(UserWarning, match="holds only curve") if label else nullcontext():
        assert same_bits(ingest(path, weekday_adjust=label).values,
                         ingest_per_cell(path, label, monkeypatch).values)


# bad files, some of whose columns a bulk parse with usecols could shift or drop unnoticed
@pytest.mark.parametrize("text, label, message", [
    ("day,t_1,t_2\nMon,1,2\nTue,3,4,5\n", "day", "inconsistent row lengths \\[2, 3\\]"),
    ("t_1,t_2,day\n1,2,Mon\n3,4\n", "day", "row 2 ends before the 'day' column"),
    ("t_1,t_2\n1,2\n3,4\n", "day", "no column named 'day' in the header"),
    ('day,t_1,t_2\n"Mon,1",2,3\n"Tue,3",4,x\n', "day", "row 2, column 3 is non-numeric"),
    ("day,t_1,t_2\nMon,1,abc\n", "day", "row 1, column 3 is non-numeric"),
    ("1,2\n3\n", None, "inconsistent row lengths \\[1, 2\\]"),
])
def test_bad_files_keep_their_per_cell_error(tmp_path, monkeypatch, text, label, message):
    path = write_csv(tmp_path / "raw.csv", text)
    with pytest.raises(IngestError, match=message):
        ingest(path, weekday_adjust=label)
    with pytest.raises(IngestError, match=message):
        ingest_per_cell(path, label, monkeypatch)


def test_pm10_analog_file_reads_without_the_per_cell_reader(tmp_path, monkeypatch):
    raw, _ = make_pm10_analog(tmp_path, n_days=60, seed=3)
    expected = ingest_per_cell(raw, "weekday", monkeypatch)

    def refuse(*args):
        raise AssertionError("the per-cell reader ran")

    monkeypatch.setattr(raw_reader, "_read_cells", refuse)
    monkeypatch.setattr(raw_reader, "_parse_rows", refuse)
    data = ingest(raw, transform="sqrt", weekday_adjust="weekday")
    assert data.values.shape == (60, 48)
    assert same_bits(ingest(raw, weekday_adjust="weekday").values, expected.values)


# infinite cells and header-only files are named on both read paths
@pytest.mark.parametrize("text, label, where", [
    ("1,2,3\n4,inf,6\n", None, "row 2, column 2"),
    ("t_1,t_2,t_3\n1,,-inf\n3,4,5\n", None, "row 1, column 3"),
    ("day,t_1,t_2\nMon,1,2\nTue,-inf,4\n", "day", "row 2, column 2"),
    ("t_1,day,t_2\n1,Mon,2\n3,Tue,inf\n", "day", "row 2, column 3"),
    ("day,t_1,t_2\nMon,NA,2\nTue,inf,4\n", "day", "row 2, column 2"),
])
def test_infinite_cells_are_named(tmp_path, monkeypatch, text, label, where):
    path = write_csv(tmp_path / "raw.csv", text)
    message = f"{re.escape(str(path))}: {where} is infinite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # centering an inf used to warn before the error
        with pytest.raises(IngestError, match=message):
            ingest(path, weekday_adjust=label)
        with pytest.raises(IngestError, match=message):
            ingest_per_cell(path, label, monkeypatch)
        with pytest.raises(IngestError, match=message):
            ingest(path, transform="sqrt", weekday_adjust=label)


# the first bad cell in reading order is named, whether it is text or not
@pytest.mark.parametrize("text, kwargs, message", [
    ("1,inf\n2,abc\n", {}, "row 1, column 2 is infinite"),
    ("t_1,t_2\n1,-inf\n# note\n", {}, "row 1, column 2 is infinite"),
    ("1,,x\n2,inf,4\n", {}, "row 1, column 3 is non-numeric"),
    ("day,t_1,t_2\nMon,inf,1\nTue,2,x\n", {"weekday_adjust": "day"},
     "row 1, column 2 is infinite"),
    ("t_1,day,t_2\n1,Mon,inf\nx,Tue,2\n", {"weekday_adjust": "day"},
     "row 1, column 3 is infinite"),
    ("1,2,3\n4,inf,6\n7,x\n", {"rows_per_curve": 2}, "curve 3, sample 1 is infinite"),
    ("1,2,3\n4,x,6\n7,8\n", {"rows_per_curve": 2}, "curve 3, sample 1 is non-numeric"),
])
def test_first_bad_cell_is_named_text_or_not(tmp_path, text, kwargs, message):
    path = write_csv(tmp_path / "raw.csv", text)
    with pytest.raises(IngestError, match=f"{re.escape(str(path))}: {message}"):
        ingest(path, **kwargs)


def test_infinite_cell_of_a_stream_names_curve_and_sample(tmp_path):
    path = write_csv(tmp_path / "raw.csv", "1,2,3,4\n5,6,inf,8\n")
    with pytest.raises(IngestError, match="curve 4, sample 1 is infinite"):
        ingest(path, rows_per_curve=2)


@pytest.mark.parametrize("text, kwargs", [
    ("t_1,t_2,t_3\n", {}),
    ("t_1,t_2,t_3\n\n", {"rows_per_curve": 3}),
    ("day,t_1,t_2\n", {"weekday_adjust": "day"}),
])
def test_header_only_file_has_no_data_rows(tmp_path, monkeypatch, text, kwargs):
    path = write_csv(tmp_path / "raw.csv", text)
    with pytest.raises(IngestError, match="no data rows found"):
        ingest(path, **kwargs)
    monkeypatch.setattr(raw_reader, "_bulk_parse", lambda *args, **kw: None)
    with pytest.raises(IngestError, match="no data rows found"):
        ingest(path, **kwargs)


@pytest.mark.parametrize("rows_per_curve, message", [
    pytest.param(2.5, "ingest key 'rows_per_curve' must be one finite int, got 2.5",
                 id="2.5-rows_per_curve must be an integer >= 2"),
    pytest.param(True, "ingest key 'rows_per_curve' must be one finite int, got True",
                 id="True-rows_per_curve must be an integer >= 2"),
])
def test_rows_per_curve_is_an_integer_of_two_or_more(tmp_path, rows_per_curve, message):
    # 2.5 used to read as a length that 8 values do not divide into
    path = write_csv(tmp_path / "raw.csv", "1,2,3,4\n5,6,7,8\n")
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        ingest(path, rows_per_curve=rows_per_curve)


def test_rows_per_curve_takes_a_whole_float(tmp_path):
    # this used to end in a bare TypeError
    path = write_csv(tmp_path / "raw.csv", "1,2,3,4\n5,6,7,8\n")
    data = ingest(path, rows_per_curve=2.0)
    assert same_bits(data.values, ingest(path, rows_per_curve=2).values)
    assert data.values.shape == (4, 2)


def test_infinite_cell_behind_a_label_opens_the_file_once(tmp_path, monkeypatch):
    # the label column's place comes from the read itself, not from a second read of the header
    path = write_csv(tmp_path / "raw.csv", "day,t_1,t_2\nMon,1,2\nTue,inf,4\n")
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(raw_reader, "_read_cells", lambda *args: pytest.fail("the per-cell reader ran"))
    monkeypatch.setattr(builtins, "open", counting_open)
    with pytest.raises(IngestError, match="row 2, column 2 is infinite"):
        ingest(path, weekday_adjust="day")
    assert opened.count(path) == 1
    # every reader opens a clean file, a clean file that falls back and a raw file that falls
    # back once too, and numpy parses the lines already read, never the path
    fell_back = []
    monkeypatch.setattr(raw_reader, "_read_cells",
                        lambda *args: fell_back.append(1) or _read_cells(*args))
    loadtxt = np.loadtxt

    def lines_only(lines, *args, **kwargs):
        assert isinstance(lines, list)
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", lines_only)
    readers = (load_curves_csv, load_numeric_csv, ingest)
    cases = [(read, "t_1,t_2\n1,2\n3,4\n", False) for read in readers]
    cases += [(read, '"1","2"\n3,"4"\n', True) for read in readers]
    cases += [(ingest, "t_1,t_2\n1,NA\n3,4\n", True)]
    for i, (read, text, per_cell) in enumerate(cases):
        path = write_csv(tmp_path / f"file{i}.csv", text)
        fell_back.clear()
        read(path)
        assert opened.count(path) == 1 and bool(fell_back) == per_cell


# curves count from 1: data row k below the header, or the k-th curve of a stream
@pytest.mark.parametrize("text, kwargs, message", [
    ("t_1,t_2\n,\n1,2\n", {}, "curve 1 is entirely missing"),
    ("day,t_1,t_2\nMon,,\nTue,1,2\n", {"weekday_adjust": "day"}, "curve 1 is entirely missing"),
    ("1,2\n,\n", {"rows_per_curve": 2}, "curve 2 is entirely missing"),
    ("t_1,t_2\n,2\n3,4\n", {"interpolate_missing": False},
     "missing cells in curves [1] and interpolation is off"),
    ("day,t_1,t_2\nMon,1,\nTue,3,4\n", {"interpolate_missing": False, "weekday_adjust": "day"},
     "missing cells in curves [1] and interpolation is off"),
    ("t_1,t_2\n-1,2\n3,4\n", {"transform": "sqrt"},
     "sqrt transform needs nonnegative values, curves [1] fail"),
    ("-1,2,3,4\n", {"transform": "sqrt", "rows_per_curve": 2},
     "sqrt transform needs nonnegative values, curves [1] fail"),
])
def test_first_data_row_is_curve_one(tmp_path, monkeypatch, text, kwargs, message):
    path = write_csv(tmp_path / "raw.csv", text)
    with pytest.raises(IngestError, match=re.escape(f"{path}: {message}")):
        ingest(path, **kwargs)
    monkeypatch.setattr(raw_reader, "_bulk_parse", lambda *args, **kw: None)
    with pytest.raises(IngestError, match=re.escape(f"{path}: {message}")):
        ingest(path, **kwargs)


@pytest.mark.parametrize("per_cell", [False, True])
def test_a_label_of_one_curve_warns(tmp_path, monkeypatch, per_cell):
    # the label's mean is that one curve, so weekday adjustment leaves it all zeros
    path = write_csv(tmp_path / "raw.csv", "day,t_1,t_2\nTue,3,4\nMon,1,2\nTue,5,7\n")
    if per_cell:
        monkeypatch.setattr(raw_reader, "_bulk_parse", lambda *args, **kw: None)
    with pytest.warns(UserWarning) as record:
        data = ingest(path, weekday_adjust="day")
    assert [str(w.message) for w in record] == [
        f"{path}: label 'Mon' holds only curve 2, which weekday adjustment sets to zero"]
    assert data.values[1].tolist() == [0.0, 0.0]
    path.write_text("day,t_1,t_2\nTue,3,4\nMon,1,2\nTue,5,7\nMon,2,2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ingest(path, weekday_adjust="day")
