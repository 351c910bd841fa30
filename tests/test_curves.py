import re

import numpy as np
import pytest

from curvecast import (
    DimensionMismatchError,
    FunctionalDataset,
    Grid,
    IngestError,
    ResolutionError,
    inner_product,
    load_curves_csv,
    load_numeric_csv,
    make_fourier_basis,
    save_curves_csv,
    synthesize,
)
from curvecast.curves import l2_norm
from curvecast.forecast import _head


def test_grid_midpoints():
    grid = Grid(4)
    assert np.allclose(grid.points, [0.125, 0.375, 0.625, 0.875])
    assert grid.spacing == 0.25


def test_grid_rejects_nonpositive():
    with pytest.raises(ValueError):
        Grid(0)


def test_inner_product_constant():
    grid = Grid(32)
    ones = np.ones(32)
    assert inner_product(ones, ones, grid) == pytest.approx(1.0)
    assert l2_norm(2.0 * ones, grid) == pytest.approx(2.0)


def test_inner_product_shape_mismatch():
    grid = Grid(8)
    with pytest.raises(DimensionMismatchError):
        inner_product(np.ones(8), np.ones(9), grid)


def test_fourier_basis_orthonormal_to_machine_precision():
    # on the midpoint grid the discrete Gram of the first D rows is exactly
    # the identity as long as T >= 8 D
    grid = Grid(64)
    basis = make_fourier_basis(8, grid)
    gram = basis.values @ basis.values.T / grid.T
    assert np.abs(gram - np.eye(8)).max() < 1e-12


def test_fourier_resolution_guard():
    with pytest.raises(ResolutionError):
        make_fourier_basis(9, Grid(64))
    with pytest.raises(ValueError, match="^make_fourier_basis key 'D' must be >= 1, got 0$"):
        make_fourier_basis(0, Grid(64))


def test_synthesize_round_trip():
    grid = Grid(48)
    basis = make_fourier_basis(5, grid)
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(10, 5))
    data = synthesize(coeffs, basis)
    recovered = data.values @ basis.values.T / grid.T
    assert np.abs(recovered - coeffs).max() < 1e-12
    with pytest.raises(DimensionMismatchError, match=re.escape(
            "synthesize key 'coeffs' must be a 1-D or 2-D array of finite numbers of shape (n, 5), "
            "got an array of shape (10, 4)")):
        synthesize(coeffs[:, :4], basis)


def test_dataset_validation():
    grid = Grid(4)
    with pytest.raises(ValueError):
        FunctionalDataset(grid=grid, values=np.ones((2, 5)))
    bad = np.ones((2, 4))
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        FunctionalDataset(grid=grid, values=bad)
    for shape, must in [((0, 4), "hold one or more curves"),  # no curves
                        ((4,), "be a 2-D array of finite numbers of shape (n, 4)")]:  # not one row per curve
        with pytest.raises(ValueError) as err:
            FunctionalDataset(grid=grid, values=np.ones(shape))
        assert str(err.value) == (f"FunctionalDataset key 'values' must {must}, "
                                  f"got an array of shape {shape}")


def test_dataset_values_read_only():
    data = FunctionalDataset(grid=Grid(4), values=np.ones((2, 4)))
    with pytest.raises(ValueError):
        data.values[0, 0] = 2.0


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(11)
    data = FunctionalDataset(grid=Grid(6), values=rng.normal(size=(5, 6)))
    path = tmp_path / "curves.csv"
    save_curves_csv(data, path)
    back = load_curves_csv(path)
    assert back.grid.T == 6
    assert np.array_equal(back.values, data.values)


def test_load_without_header(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    data = load_curves_csv(path)
    assert data.n == 2 and data.T == 2
    assert np.array_equal(data.values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_rejects_missing_cells(tmp_path):
    path = tmp_path / "holes.csv"
    path.write_text("t_1,t_2\n1.0,\n2.0,3.0\n")
    with pytest.raises(IngestError):
        load_curves_csv(path)


def test_load_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(IngestError):
        load_curves_csv(path)


@pytest.mark.parametrize(
    "text, where",
    [
        ("t_1,t_2\n1.0,2.0\n3.0,abc\n", "row 2, column 2"),
        ("1.0,2.0\n3.0,4.0\n x ,6.0\n", "row 3, column 1"),
        ("1.0,abc\n2.0,3.0\n4.0,5.0\n", "row 1, column 2"),
    ],
)
def test_load_rejects_non_numeric_cells_with_their_position(tmp_path, text, where):
    path = tmp_path / "text.csv"
    path.write_text(text)
    with pytest.raises(IngestError, match=f"{where} is non-numeric"):
        load_curves_csv(path)
    with pytest.raises(IngestError, match=f"{where} is non-numeric"):
        load_numeric_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,inf\n2,abc\n", "row 1, column 2 is missing or non-finite"),
        ("a,b\n1,\n2,abc\n", "row 1, column 2 is missing or non-finite"),
        ("1,2\nNA,3\n4,x\n", "row 2, column 1 is missing or non-finite"),
        ("1,abc\n2,inf\n", "row 1, column 2 is non-numeric"),
        ("1,2\n3,nan\n# note\n", "row 2, column 2 is missing or non-finite"),
    ],
)
def test_load_names_the_first_bad_cell_text_or_not(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(IngestError, match=message):
        load_curves_csv(path)
    with pytest.raises(IngestError, match=message):
        load_numeric_csv(path)


def test_public_constructor_copies_the_callers_array():
    values = np.arange(8.0).reshape(2, 4)
    data = FunctionalDataset(grid=Grid(4), values=values)
    values[0, 0] = 99.0
    assert data.values[0, 0] == 0.0
    assert not data.values.flags.writeable
    assert values.flags.writeable


def test_owned_arrays_are_read_only_and_not_copied():
    values = np.arange(12.0).reshape(3, 4)
    data = FunctionalDataset._own(Grid(4), values)
    assert data.values is values
    assert not data.values.flags.writeable
    assert not synthesize(np.ones((2, 3)), make_fourier_basis(3, Grid(24))).values.flags.writeable


def test_head_is_a_view_of_its_parent():
    data = synthesize(np.arange(15.0).reshape(5, 3), make_fourier_basis(3, Grid(24)))
    head = _head(data, 3)
    assert np.shares_memory(head.values, data.values)
    assert head.n == 3 and not head.values.flags.writeable
    assert np.array_equal(head.values, data.values[:3])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_owned_arrays_are_still_checked(bad):
    values = np.ones((2, 4))
    values[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        FunctionalDataset._own(Grid(4), values)
    with pytest.raises(DimensionMismatchError):
        FunctionalDataset._own(Grid(5), np.ones((2, 4)))
