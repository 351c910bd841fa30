"""A CSV that can be read only once, such as a FIFO or a pipe, reads as the same text in a file.

Each text goes through curves._read_table from a regular file and from a FIFO that a writer
thread fills once; a later open of the FIFO reads nothing, as a pipe whose writer is done.
Both must give the same values, labels, error message and bulk-or-per-cell route.
"""

import os
import threading

import numpy as np
import pytest

import test_csv_io
import test_ingest
from curvecast import IngestError, curves

pytestmark = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")

_read_cells = curves._read_cells


def _params(test):
    """The values of a test's parametrize mark, so that its cases are listed once."""
    return next(mark.args[1] for mark in test.pytestmark if mark.name == "parametrize")


# name -> (text, raw, label)
CASES = {
    **{f"bulk: {name}": (text, False, None) for name, text in test_csv_io.BULK.items()},
    **{f"per-cell: {name}": (text, False, None)
       for name, (text, _) in test_csv_io.PER_CELL.items()},
    **{f"raw: {name}": (text, True, label)
       for name, (text, label, _) in test_ingest.RAW_FILES.items()},
    **{f"bad raw file {i}": (text, True, label) for i, (text, label, _) in
       enumerate(_params(test_ingest.test_bad_files_keep_their_per_cell_error))},
    **{f"no data rows {i}": (text, False, None) for i, text in
       enumerate(_params(test_csv_io.test_files_without_data_rows_raise_without_a_numpy_warning))},
}


def outcome(path, raw, label, monkeypatch):
    """_read_table's values and labels, or its error message, and whether the per-cell
    reader ran."""
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(curves, "_read_cells", lambda *args: calls.append(1) or _read_cells(*args))
        try:
            values, labels = curves._read_table(path, raw, label)
        except IngestError as err:
            return str(err).replace(str(path), "<file>"), None, bool(calls)
    return values, labels, bool(calls)


def through_fifo(path, text, read):
    """read(path) while a writer thread sends text once through a FIFO made at path."""
    os.mkfifo(path)
    done = threading.Event()

    def feed():
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        while not done.wait(0.01):
            try:  # a reader that opens the FIFO again finds no writer: end of file
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader is waiting
                pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read(path)
    finally:
        done.set()
        writer.join(5)


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_fifo_reads_as_a_file(tmp_path, monkeypatch, name):
    text, raw, label = CASES[name]
    path = tmp_path / "file.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(path, raw, label, monkeypatch)
    got = through_fifo(tmp_path / "fifo.csv", text, lambda p: outcome(p, raw, label, monkeypatch))
    if isinstance(expected[0], str):
        assert got == expected
    else:
        assert isinstance(got[0], np.ndarray) and test_csv_io.same_bits(got[0], expected[0])
        assert got[1:] == expected[1:]


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_header_is_classified_once_per_read(tmp_path, monkeypatch, name):
    # both readers used to decide the header, so a per-cell file without a label classified it twice
    text, raw, label = CASES[name]
    path = tmp_path / "file.csv"
    path.write_bytes(text.encode("utf-8"))
    classified = []
    is_header = curves._is_header
    monkeypatch.setattr(curves, "_is_header", lambda row: classified.append(row) or is_header(row))
    outcome(path, raw, label, monkeypatch)
    assert len(classified) <= 1
