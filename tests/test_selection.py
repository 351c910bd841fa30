import csv
import re

import numpy as np
import pytest

import curvecast.selection
from curvecast import (
    FunctionalDataset,
    Grid,
    IngestError,
    InsufficientDataError,
    RankDeficiencyError,
    SelectionError,
    eigensystem,
    ffpe,
    scores,
    select_pd,
)
from curvecast.multivar import fit_var_ols, fit_varx_ols


def test_ffpe_frozen_value():
    assert ffpe(100, 1, 2, 2.0, 0.5) == pytest.approx(2.5816326530612246, abs=1e-12)


def test_ffpex_frozen_value():
    assert ffpe(100, 1, 3, 1.5, 0.2, r=2) == pytest.approx(1.8578947368421053, abs=1e-12)


@pytest.mark.parametrize("n, p, d, trace, tail", [(100, 1, 2, 2.0, 0.5), (37, 3, 5, 0.7, 1e-3)])
def test_ffpe_without_covariates_is_the_plain_formula(n, p, d, trace, tail):
    assert ffpe(n, p, d, trace, tail) == (n + p * d) / (n - p * d) * trace + tail


def test_ffpe_reduces_to_trace_plus_tail_at_p0():
    assert ffpe(50, 0, 4, 1.3, 0.7) == pytest.approx(2.0, abs=1e-12)


def test_criterion_guards():
    with pytest.raises(SelectionError):
        ffpe(10, 5, 2, 1.0, 0.0)  # n <= p d
    with pytest.raises(SelectionError, match=r"n=10 <= p\*d \+ r=10"):
        ffpe(10, 2, 2, 1.0, 0.0, r=6)  # n <= p d + r
    with pytest.raises(ValueError):
        ffpe(100, 1, 2, 1.0, 0.0, r=-1)
    with pytest.raises(ValueError):
        ffpe(100, 1, 2, -1.0, 0.0)
    with pytest.raises(ValueError):
        ffpe(100, -1, 2, 1.0, 0.0)
    for tail, must in ((-0.5, "be >= 0"), (float("nan"), "be one finite float")):
        with pytest.raises(ValueError, match=re.escape(f"ffpe key 'tail' must {must}, got {tail}")):
            ffpe(100, 1, 2, 1.0, tail)


def test_select_pd_raises_when_no_cell_can_be_fitted():
    # three curves cannot carry two covariate columns in any (p, d) cell
    rng = np.random.default_rng(0)
    data = FunctionalDataset(grid=Grid(8), values=rng.normal(size=(3, 8)))
    with pytest.raises(SelectionError, match=r"no \(p, d\) cell could be fitted for p_max=1, "
                                             r"d_max=1, n=3"):
        select_pd(data, 1, 1, covariate_scores=rng.normal(size=(3, 2)))


def test_white_noise_selects_order_zero(noise_dataset):
    data = noise_dataset(n=300, T=48, seed=42)
    table = select_pd(data, 2, 4)
    assert table.p_best == 0
    # with p = 0 the criterion equals trace + tail = total variance at any d
    total = eigensystem(data, 1).total_variance
    for cell in table.cells:
        if cell.ok and cell.p == 0:
            assert cell.value == pytest.approx(total, rel=1e-10)


def test_far_data_selects_first_order(make_far1):
    data = make_far1(n=300, T=64, seed=1)
    table = select_pd(data, 3, 4)
    assert table.best == (1, 3)


def test_winner_is_minimal_ok_cell(make_far1):
    data = make_far1(n=150, T=64, seed=3)
    table = select_pd(data, 2, 3)
    best = table.best_cell()
    values = [c.value for c in table.cells if c.ok]
    assert best.value == min(values)
    assert table.cell(*table.best).value == best.value
    with pytest.raises(LookupError, match="no cell for p=3, d=1"):
        table.cell(3, 1)


def test_small_sample_cells_marked_invalid(noise_dataset):
    data = noise_dataset(n=8, T=24, seed=0)
    table = select_pd(data, 3, 4)
    flagged = {(c.p, c.d): c.status for c in table.cells}
    assert flagged[(3, 4)] == "invalid"  # n = 8 <= p d = 12
    assert any(c.ok for c in table.cells)
    bad = table.cell(3, 4)
    assert not bad.ok and np.isnan(bad.value)


@pytest.mark.parametrize("r", [None, 1])
def test_too_few_rows_are_named_by_the_fit_guard(noise_dataset, r):
    # the sweep's own n <= p*d + r check wrote "n=12 <= p*d+r" for these cells
    data = noise_dataset(n=12, T=24, seed=0)
    rmat = None if r is None else np.random.default_rng(1).normal(size=(12, r))
    table = select_pd(data, 3, 4, covariate_scores=rmat)
    suffix = "" if r is None else f", r={r}"
    assert table.cell(3, 4).status == "invalid"
    assert table.cell(3, 4).message == f"n=12 too small to fit p=3, d=4{suffix}"
    for cell in table.cells:
        if 12 <= cell.p * cell.d + (r or 0):
            assert cell.status == "invalid"
            assert cell.message == f"n=12 too small to fit p={cell.p}, d={cell.d}{suffix}"
    assert table.best_cell().ok


@pytest.mark.parametrize("r", [None, 2])
def test_orders_past_the_sample_are_invalid_cells(noise_dataset, r):
    # past p = n the lag slices wrapped around, and the sweep ended in a bare numpy ValueError
    data = noise_dataset(n=12, T=24, seed=0)
    rmat = None if r is None else np.random.default_rng(1).normal(size=(12, r))
    table = select_pd(data, 17, 2, covariate_scores=rmat)
    short = select_pd(data, 10, 2, covariate_scores=rmat)
    assert [repr(table.cell(c.p, c.d)) for c in short.cells] == list(map(repr, short.cells))
    assert table.best == short.best
    suffix = "" if r is None else f", r={r}"
    for cell in table.cells:
        if cell.p > 10:
            assert cell.status == "invalid"
            assert cell.message == f"n=12 too small to fit p={cell.p}, d={cell.d}{suffix}"


def test_table_csv_shape(tmp_path, noise_dataset):
    data = noise_dataset(n=50, T=24, seed=7)
    table = select_pd(data, 1, 3)
    path = tmp_path / "table.csv"
    table.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "d", "trace", "tail", "ffpe", "status", "message"]
    assert len(rows) == 1 + 2 * 3
    for row, cell in zip(rows[1:], table.cells):
        assert row[5] in ("ok", "invalid", "singular")
        assert row[6] == cell.message


def test_table_csv_writes_each_rejection_message(tmp_path, noise_dataset):
    table = select_pd(noise_dataset(n=8, T=24, seed=0), 3, 4)
    path = tmp_path / "table.csv"
    table.to_csv(path)
    with open(path, newline="") as fh:
        rows = {(int(r[0]), int(r[1])): r for r in list(csv.reader(fh))[1:]}
    bad = table.cell(3, 4)
    assert rows[(3, 4)][2:] == ["", "", "", "invalid", bad.message] and bad.message


def test_covariate_cells_match_direct_fit(make_far1):
    data = make_far1(n=200, T=64, seed=11)
    rng = np.random.default_rng(0)
    rmat = rng.normal(size=(200, 2))
    table = select_pd(data, 2, 3, covariate_scores=rmat)
    cell = table.cell(1, 2)
    eig = eigensystem(data, 2)
    smat = scores(data, eig).scores
    model = fit_varx_ols(smat, rmat, 1)
    expected = ffpe(200, 1, 2, float(np.trace(model.sigma_z)), eig.tail_variance(), r=2)
    assert cell.value == pytest.approx(expected, rel=1e-10)


def test_argument_validation(noise_dataset):
    data = noise_dataset(n=40, T=24, seed=5)
    with pytest.raises(ValueError):
        select_pd(data, -1, 3)
    with pytest.raises(ValueError):
        select_pd(data, 2, 0)


def direct_cells(data, p_max, d_max, rmat=None):
    """Reference sweep: one fit_var_ols / fit_varx_ols per (p, d) cell."""
    n = data.n
    eig = eigensystem(data, d_max)
    smat = scores(data, eig).scores
    r = 0 if rmat is None else rmat.shape[1]
    cells = {}
    for d in range(1, d_max + 1):
        tail = eig.tail_variance(d)
        for p in range(p_max + 1):
            if n <= p * d + r:
                cells[p, d] = ("invalid", None, None)
                continue
            try:
                if rmat is None:
                    model = fit_var_ols(smat[:, :d], p)
                else:
                    model = fit_varx_ols(smat[:, :d], rmat, p)
            except InsufficientDataError:
                cells[p, d] = ("invalid", None, None)
                continue
            except RankDeficiencyError:
                cells[p, d] = ("singular", None, None)
                continue
            trace = float(model.sigma_z.trace())
            value = ffpe(n, p, d, trace, tail, r)
            cells[p, d] = ("ok", trace, value)
    return cells


def covariate_input(kind, data):
    """No covariates, two random columns, both constant, one constant of two, or one collinear
    with the first score."""
    if kind is False:
        return None
    rmat = np.random.default_rng(data.n).normal(size=(data.n, 2))
    if kind == "constant":
        rmat[:] = [2.0, -0.5]  # the p = 0 design keeps no column
    elif kind == "one-constant":
        rmat[:, 0] = 1.5
    elif kind == "collinear":  # with the lag-one first score of every design of order p >= 1
        rmat[:, 0] = scores(data, eigensystem(data, 1)).scores[:, 0]
    return rmat


# make_far1's curves span three basis functions, so at d_max > 3 the scores past the third
# are rounding noise and every order p >= 1 fails the full-Gram test: its cells, and the
# VAR(0) cells, are fitted one at a time
@pytest.mark.parametrize("with_covariates", [False, True, "constant", "one-constant", "collinear"])
@pytest.mark.parametrize("n, p_max, d_max", [(200, 3, 6), (25, 3, 8)])
def test_sweep_matches_per_cell_fits(monkeypatch, make_far1, with_covariates, n, p_max, d_max):
    data = make_far1(n=n, T=48, seed=n + p_max)
    rmat = covariate_input(with_covariates, data)
    fitted = set()  # the orders whose cells select_pd fits one at a time
    real = curvecast.selection._fit_ols

    def spy(s, p, block=None):
        fitted.add(p)
        return real(s, p, block)

    monkeypatch.setattr(curvecast.selection, "_fit_ols", spy)
    table = select_pd(data, p_max, d_max, covariate_scores=rmat)
    expected = direct_cells(data, p_max, d_max, rmat)
    assert [(c.p, c.d) for c in table.cells] == list(expected)
    assert fitted == set(range(rmat is not None, p_max + 1))
    for cell in table.cells:
        status, trace, value = expected[cell.p, cell.d]
        assert cell.status == status
        if status != "ok":
            continue
        if cell.p in fitted:  # the same fit as the reference's
            assert cell.trace == trace and cell.value == value
        else:
            assert cell.trace == pytest.approx(trace, rel=1e-12, abs=0)
            assert cell.value == pytest.approx(value, rel=1e-12, abs=0)
    ok = [(v[2], d, p) for (p, d), v in expected.items() if v[0] == "ok"]
    _, d_best, p_best = min(ok)
    assert table.best == (p_best, d_best)


def test_sweep_carries_its_eigensystem(make_far1):
    data = make_far1(n=120, T=32, seed=2)
    table = select_pd(data, 2, 4)
    assert table.eig.d == 4
    assert np.array_equal(table.eig.eigenfunctions, eigensystem(data, 4).eigenfunctions)


def test_sweep_rejects_non_finite_covariates(make_far1):
    data = make_far1(n=80, T=32, seed=6)
    rmat = np.random.default_rng(6).normal(size=(80, 2))
    rmat[11, 1] = np.nan
    with pytest.raises(IngestError, match="row 12, column 2 is"):  # counted from 1
        select_pd(data, 2, 3, covariate_scores=rmat)


def cell_fields(cell):
    return cell.p, cell.d, cell.status, cell.message, repr(cell.trace), repr(cell.value)


@pytest.mark.parametrize("with_covariates", [False, True])
@pytest.mark.parametrize(
    "n, d_max, full_gram_passes", [(200, 3, True), (200, 6, False), (25, 8, False)]
)
def test_one_guard_per_order_matches_per_cell_guards(
    monkeypatch, svd_calls, make_far1, with_covariates, n, d_max, full_gram_passes
):
    p_max = 3
    data = make_far1(n=n, T=48, seed=n + p_max)
    rmat = np.random.default_rng(n).normal(size=(n, 2)) if with_covariates else None
    table = select_pd(data, p_max, d_max, covariate_scores=rmat)
    guards = len(svd_calls)
    # a failed full-Gram test sends every cell through _guarded_solve
    monkeypatch.setattr(curvecast.selection, "_is_singular", lambda gram, rtol: True)
    reference = select_pd(data, p_max, d_max, covariate_scores=rmat)
    # the two runs take different algorithms: nested Cholesky traces against
    # per-cell guarded solves, so p >= 1 and covariate cells agree to rounding
    assert len(table.cells) == len(reference.cells)
    for cell, ref in zip(table.cells, reference.cells):
        assert cell_fields(cell)[:4] == cell_fields(ref)[:4]
        if not cell.ok or (cell.p == 0 and rmat is None):
            assert cell_fields(cell) == cell_fields(ref)
        else:
            assert cell.trace == pytest.approx(ref.trace, rel=1e-12, abs=0)
            assert cell.value == pytest.approx(ref.value, rel=1e-12, abs=0)
    assert table.best == reference.best
    orders_with_gram = p_max + (rmat is not None)  # a VAR(0) cell has no design
    if full_gram_passes:
        assert guards == orders_with_gram
    else:
        assert guards > orders_with_gram


def test_unguarded_sweep_factors_each_order_once(monkeypatch, svd_calls, noise_dataset):
    calls = {"cholesky": [], "solve": []}
    for name, shapes in calls.items():
        def counting(a, *args, _fn=getattr(np.linalg, name), _shapes=shapes, **kwargs):
            _shapes.append(np.shape(a))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    data = noise_dataset(n=200, T=48, seed=3)
    table = select_pd(data, 3, 6)
    assert len(svd_calls) == 3  # one full-Gram test per order, none per cell
    assert calls["cholesky"] == [(6 * p, 6 * p) for p in (1, 2, 3)]
    assert calls["solve"] == calls["cholesky"]  # one z = L^-1 X'Y per order
    expected = direct_cells(data, 3, 6)
    for cell in table.cells:
        assert expected[cell.p, cell.d][0] == cell.status == "ok"
        assert cell.trace == pytest.approx(expected[cell.p, cell.d][1], rel=1e-12, abs=0)


def test_d_max_above_ceiling_marks_cells_invalid(make_far1):
    data = make_far1(n=6, T=48, seed=1)
    table = select_pd(data, 1, 10)
    capped = select_pd(data, 1, 5)
    assert table.eig.d == 5
    high = [c for c in table.cells if c.d > 5]
    assert len(high) == 10
    for cell in high:
        assert cell.status == "invalid" and "min(n - 1, T)=5" in cell.message
    low = [cell_fields(c) for c in table.cells if c.d <= 5]
    assert low == [cell_fields(c) for c in capped.cells]
    assert table.best == capped.best
