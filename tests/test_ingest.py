import numpy as np
import pytest

from curvecast import IngestError, ingest


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
    with pytest.raises(IngestError, match=r"rows \[1, 2\]"):
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
    with pytest.raises(IngestError, match=r"rows \[1, 2\]"):
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
    with pytest.raises(IngestError, match=">= 2"):
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
    plain = ingest(write_csv(tmp_path / "plain.csv", text), weekday_adjust="weekday")
    path = tmp_path / "bom.csv"
    path.write_bytes(("\ufeff" + text).encode("utf-8"))
    data = ingest(path, weekday_adjust="weekday")
    assert data.values.tobytes() == plain.values.tobytes()
