import csv
import re

import numpy as np
import pytest

from curvecast import (
    DimensionMismatchError,
    FunctionalDataset,
    Grid,
    InsufficientDataError,
    ProcessSpec,
    RankDeficiencyError,
    eigensystem,
    fixed_psi,
    predict_fts,
    prediction_band,
    reconstruct,
    rolling_residuals,
    run_benchmark,
    scores,
    ScoreMatrix,
    make_fourier_basis,
    simulate,
    synthesize,
)
from curvecast import fpca
from curvecast.multivar import fit_var_ols, predict_var


def scaled_profile_residuals(c, T=16):
    """Residual curves c_k * g(t) with g positive, as a dataset."""
    grid = Grid(T)
    g = 1.0 + grid.points
    return FunctionalDataset(grid=grid, values=np.outer(c, g))


def test_symmetric_band_hand_value():
    c = np.arange(1.0, 11.0)
    band = prediction_band(scaled_profile_residuals(c), 0.8)
    # gamma(t) = sd(c) g(t); sup_t |eps_k| / gamma = c_k / sd(c); the
    # ceil(0.8 * 10) = 8th order statistic is 8 / sd(1..10)
    assert band.M == 10
    assert band.xi_upper == pytest.approx(2.6423130363032654, rel=1e-12)
    assert band.xi_lower == band.xi_upper
    sd = float(np.std(c, ddof=1))
    assert np.allclose(band.gamma, sd * (1.0 + band.grid.points), atol=1e-12)


def test_band_needs_ten_residuals():
    with pytest.raises(InsufficientDataError):
        prediction_band(scaled_profile_residuals(np.arange(1.0, 6.0)), 0.8)


def test_alpha_bounds():
    resid = scaled_profile_residuals(np.arange(1.0, 13.0))
    with pytest.raises(ValueError):
        prediction_band(resid, 0.0)
    with pytest.raises(ValueError):
        prediction_band(resid, 1.1)


def test_band_coverage_count_and_minimality():
    rng = np.random.default_rng(3)
    resid = FunctionalDataset(grid=Grid(12), values=rng.normal(size=(40, 12)))
    alpha = 0.8
    band = prediction_band(resid, alpha)
    zeros = np.zeros(12)
    inside = sum(band.contains(zeros, row) for row in resid.values)
    assert inside >= int(np.ceil(alpha * 40))
    # shrinking the band must drop coverage below the calibrated count
    ratios = np.max(np.abs(resid.values) / band.gamma, axis=1)
    assert np.sum(ratios <= 0.99 * band.xi_upper) < int(np.ceil(alpha * 40))


def test_xi_monotone_in_alpha():
    rng = np.random.default_rng(5)
    resid = FunctionalDataset(grid=Grid(8), values=rng.normal(size=(30, 8)))
    low = prediction_band(resid, 0.5)
    high = prediction_band(resid, 0.9)
    assert high.xi_upper >= low.xi_upper


def test_band_scale_invariance_of_xi():
    rng = np.random.default_rng(6)
    values = rng.normal(size=(25, 10))
    a = prediction_band(FunctionalDataset(grid=Grid(10), values=values), 0.8)
    b = prediction_band(FunctionalDataset(grid=Grid(10), values=3.0 * values), 0.8)
    assert b.xi_upper == pytest.approx(a.xi_upper, rel=1e-12)
    assert np.allclose(b.gamma, 3.0 * a.gamma, atol=1e-12)


def test_asymmetric_band_covers_alpha_fraction():
    rng = np.random.default_rng(7)
    skewed = np.exp(rng.normal(size=(50, 10))) - 1.0
    resid = FunctionalDataset(grid=Grid(10), values=skewed)
    band = prediction_band(resid, 0.8, symmetric=False)
    zeros = np.zeros(10)
    inside = sum(band.contains(zeros, row) for row in resid.values)
    assert inside >= int(np.ceil(0.8 * 50))
    assert band.xi_upper != band.xi_lower


def test_degenerate_grid_point_is_pinned():
    rng = np.random.default_rng(8)
    values = rng.normal(size=(20, 6))
    values[:, 2] = 0.0
    band = prediction_band(FunctionalDataset(grid=Grid(6), values=values), 0.8)
    lower, upper = band.offsets()
    assert band.gamma[2] == 0.0 and upper[2] == 0.0
    center = np.zeros(6)
    good = np.zeros(6)
    assert band.contains(center, good)
    bad = good.copy()
    bad[2] = 0.5
    assert not band.contains(center, bad)


def test_all_zero_residuals_gives_degenerate_band():
    resid = FunctionalDataset(grid=Grid(5), values=np.zeros((12, 5)))
    band = prediction_band(resid, 0.8)
    assert band.xi_upper == 0.0 and band.xi_lower == 0.0


def test_constant_nonzero_residuals_rejected():
    values = np.zeros((12, 5))
    values[:, 1] = 5.0  # zero pointwise spread but nonzero residuals
    with pytest.raises(ValueError):
        prediction_band(FunctionalDataset(grid=Grid(5), values=values), 0.8)


def test_band_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    resid = FunctionalDataset(grid=Grid(7), values=rng.normal(size=(15, 7)))
    band = prediction_band(resid, 0.8)
    path = tmp_path / "band.csv"
    band.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "gamma", "lower_offset", "upper_offset"]
    assert len(rows) == 1 + 7
    lower, upper = band.offsets()
    assert float(rows[1][1]) == band.gamma[0]
    assert float(rows[3][3]) == upper[2]


def test_rolling_residuals_protocol(make_far1):
    data = make_far1(n=80, seed=4)
    resid = rolling_residuals(data, d=2, p=1, L=40)
    assert resid.n == 40 and resid.grid.T == data.grid.T
    # the first residual row must equal the one-step error of a model fit
    # on the first 40 curves, scored with the full-sample eigensystem
    eig = eigensystem(data, 2)
    smat = scores(data, eig).scores
    model = fit_var_ols(smat[:40], 1)
    pred = predict_var(model, smat[39:40], 1)
    curve = reconstruct(ScoreMatrix(scores=pred[None, :]), eig).values[0]
    assert np.allclose(resid.values[0], data.values[40] - curve, atol=1e-10)


def test_rolling_residuals_default_lookback(make_far1):
    data = make_far1(n=120, seed=10)
    resid = rolling_residuals(data, d=2, p=1)
    assert resid.n == 120 - max(1, 20, 30)


def test_rolling_residuals_guards(make_far1):
    data = make_far1(n=50, seed=11)
    with pytest.raises(ValueError):
        rolling_residuals(data, d=2, p=1, L=10)  # below 10 d
    with pytest.raises(InsufficientDataError):
        rolling_residuals(data, d=2, p=1, L=49)
    with pytest.raises(ValueError, match=r"method 'rolling_residuals' key 'p' must be >= 0, got -1"):
        rolling_residuals(data, d=2, p=-1)


@pytest.mark.parametrize("L", [60.5, "60", True])
def test_rolling_residuals_rejects_a_lookback_that_is_not_an_integer(make_far1, L):
    data = make_far1(n=120, seed=10)
    with pytest.raises(ValueError, match="key 'L' must be one finite int"):
        rolling_residuals(data, d=2, p=1, L=L)


def test_rolling_residuals_takes_a_whole_float_lookback(make_far1):
    data = make_far1(n=120, seed=10)
    whole = rolling_residuals(data, d=2, p=1, L=60.0)
    assert np.array_equal(whole.values, rolling_residuals(data, d=2, p=1, L=60).values)


def rolling_residuals_loop(data, d, p, L):
    """Reference: one fit_var_ols, predict_var and reconstruct per origin."""
    eig = eigensystem(data, d)
    smat = scores(data, eig).scores
    rows = []
    for k in range(L, data.n):
        pred = predict_var(fit_var_ols(smat[:k], p), smat[k - max(p, 1) : k], 1)
        curve = reconstruct(ScoreMatrix(scores=pred[None, :]), eig).values[0]
        rows.append(data.values[k] - curve)
    return np.array(rows)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_rolling_residuals_match_per_origin_refits(make_far1, p):
    data = make_far1(n=150, seed=20 + p)
    resid = rolling_residuals(data, d=3, p=p, L=40)
    expected = rolling_residuals_loop(data, 3, p, 40)
    assert resid.values.shape == expected.shape
    assert np.max(np.abs(resid.values - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_rolling_residuals_rank_deficient_origin_names_column():
    # curves of rank two: the third score column is rounding noise
    rng = np.random.default_rng(5)
    grid = Grid(32)
    coeffs = np.zeros((90, 3))
    for k in range(1, 90):
        coeffs[k, :2] = 0.5 * coeffs[k - 1, :2] + rng.normal(size=2)
    data = synthesize(coeffs, make_fourier_basis(3, grid))
    with pytest.raises(RankDeficiencyError) as loop:
        rolling_residuals_loop(data, 3, 1, 30)
    with pytest.raises(RankDeficiencyError) as batched:
        rolling_residuals(data, d=3, p=1, L=30)
    assert batched.value.column == loop.value.column
    assert str(batched.value).startswith("VAR(1) design: matrix is numerically singular")


def test_rolling_residuals_too_short_first_fit(make_far1):
    data = make_far1(n=60, seed=12)
    with pytest.raises(InsufficientDataError, match="n=20 too small to fit p=20, d=1"):
        rolling_residuals(data, d=1, p=20, L=20)


# ---------------------------------------------------------------------------
# whole-grid checks of one curve or a stack of curves


def band_slack(band, center):
    """The roundoff slack of contains: 1e-12 times the band's largest |bound|."""
    lower, upper = band.offsets()
    return 1e-12 * max(np.abs(center - lower).max(), np.abs(center + upper).max())


def ref_contains(band, center, curve):
    """PredictionBand.contains as it was for one curve at a time, kept as the oracle."""
    center = np.asarray(center, dtype=float)
    curve = np.asarray(curve, dtype=float)
    lower, upper = band.offsets()
    slack = band_slack(band, center)
    return bool(
        np.all(curve >= center - lower - slack) and np.all(curve <= center + upper + slack)
    )


@pytest.mark.parametrize("symmetric", [True, False])
def test_stacked_contains_equals_the_row_loop(symmetric):
    rng = np.random.default_rng(12)
    T = 9
    band = prediction_band(
        FunctionalDataset(grid=Grid(T), values=np.exp(rng.normal(size=(30, T))) - 1.0),
        0.8, symmetric=symmetric,
    )
    center = rng.normal(size=T)
    lower, upper = band.offsets()
    hi = center + upper + band_slack(band, center)
    lo = center - lower - band_slack(band, center)
    mixed = np.where(np.arange(T) % 2 == 0, hi, lo)
    rows = [hi, lo, mixed, np.nextafter(hi, np.inf), np.nextafter(lo, -np.inf), center]
    for j in (0, T // 2, T - 1):
        rows += [np.where(np.arange(T) == j, np.nextafter(hi, np.inf), hi),
                 np.where(np.arange(T) == j, np.nextafter(lo, -np.inf), mixed)]
    rows += list(center + band.gamma * rng.normal(scale=band.xi_upper, size=(40, T)))
    stack = np.array(rows)
    expected = [ref_contains(band, center, row) for row in stack]
    assert expected[:3] == [True, True, True] and not any(expected[3:5])
    inside = band.contains(center, stack)
    assert inside.dtype == bool and inside.shape == (len(rows),)
    assert inside.tolist() == expected
    for row, want in zip(stack, expected):
        got = band.contains(center, row)
        assert type(got) is bool and got == want


def test_contains_does_not_depend_on_the_scale():
    # an absolute 1e-12 slack let a band of tiny curves contain every probe
    rng = np.random.default_rng(14)
    T = 16
    resid = rng.normal(size=(120, T))
    center = rng.normal(size=T)
    probes = np.vstack([center + 2.0 * rng.normal(size=(40, T)), center + resid])
    answers = []
    for k in (-60, -40, 0, 40, 60):
        band = prediction_band(FunctionalDataset(grid=Grid(T), values=resid * 2.0**k), 0.8)
        answers.append(band.contains(center * 2.0**k, probes * 2.0**k).tolist())
        assert band.contains(np.zeros(T), resid * 2.0**k).mean() == 0.8
    assert all(a == answers[2] for a in answers)


def test_contains_rejects_curves_off_the_band_grid():
    rng = np.random.default_rng(13)
    band = prediction_band(FunctionalDataset(grid=Grid(4), values=rng.normal(size=(12, 4))), 0.8)
    # a length-1 curve or center used to broadcast against every grid point
    with pytest.raises(DimensionMismatchError, match=re.escape("'curve' must be a 1-D or 2-D array "
                                                               "of finite numbers of shape (M, 4)")):
        band.contains(np.zeros(4), [0.5])
    with pytest.raises(DimensionMismatchError, match=re.escape("'center' must be a 1-D array of "
                                                               "finite numbers of shape (4,)")):
        band.contains([0.0], np.zeros(4))
    for center, curve in [(np.zeros(4), np.zeros((3, 5))), (np.zeros(4), 0.0),
                          (np.zeros((1, 4)), np.zeros(4)), (np.zeros(5), np.zeros((3, 4)))]:
        with pytest.raises(DimensionMismatchError):
            band.contains(center, curve)
    assert band.contains(np.zeros(4), np.zeros((3, 4))).tolist() == [True] * 3


# ---------------------------------------------------------------------------
# the bands-coverage preset against its two-fit form


def ref_bands_coverage(reps, seed, n=400, alpha=0.8, p=1, d=3, L=None, grid_T=256):
    """The preset's records and aggregates as computed with one fit for the residuals
    and another for the forecast, and one containment check per residual curve."""
    grid = Grid(grid_T)
    spec = ProcessSpec(kind="far", D=3, sigma=np.ones(3), ar=(fixed_psi("psi1"),), burn_in=200)
    records = []
    for idx in range(reps):
        rng = np.random.default_rng([seed, idx])
        full = simulate(spec, n + 1, grid, rng)
        fit = FunctionalDataset(grid=grid, values=full.values[:n])
        resid = rolling_residuals(fit, d, p, L)
        band = prediction_band(resid, alpha)
        fc = predict_fts(fit, p=p, d=d)
        covered = ref_contains(band, fc.curve, full.values[n])
        zeros = np.zeros(grid.T)
        inside = [ref_contains(band, zeros, row) for row in resid.values]
        records.append({
            "idx": idx, "seed": [seed, idx],
            "errors": {"bands": [float(covered)]},
            "selected": {},
            "in_sample_coverage": float(np.mean(inside)),
        })
    aggregates = {
        "coverage": float(np.mean([rec["errors"]["bands"][0] for rec in records])),
        "min_in_sample_coverage": float(min(rec["in_sample_coverage"] for rec in records)),
    }
    return records, aggregates


@pytest.mark.parametrize("seed", [4, 31])
@pytest.mark.parametrize("p, L", [(1, None), (1, 40), (0, None), (0, 35), (2, 45)])
def test_bands_preset_matches_the_two_fit_reference(seed, p, L):
    kw = dict(n=90, alpha=0.8, p=p, d=3, L=L, grid_T=48)
    report = run_benchmark("bands-coverage", reps=3, seed=seed, **kw)
    records, aggregates = ref_bands_coverage(3, seed, **kw)
    assert report.replications == records
    assert report.aggregates == aggregates


@pytest.fixture
def kernel_calls(monkeypatch):
    """Number of covariance kernels built during the test."""
    calls = []
    original = fpca.sample_covariance_kernel

    def count(data):
        calls.append(data.n)
        return original(data)

    monkeypatch.setattr(fpca, "sample_covariance_kernel", count)
    return calls


def test_bands_preset_builds_one_kernel_per_replication(kernel_calls):
    run_benchmark("bands-coverage", reps=2, seed=4, n=80, grid_T=48, L=40)
    assert kernel_calls == [80, 80]


@pytest.mark.parametrize(
    "kw, error, message",
    [
        ({"L": 20}, ValueError, "L=20 below the warm-up floor max(p, 10*d)=30"),
        ({"L": 79}, InsufficientDataError, "L=79 leaves fewer than two of n=80 curves"),
        ({"L": 30, "p": 10}, InsufficientDataError, "n=30 too small to fit p=10, d=3"),
    ],
)
def test_bands_preset_rejects_a_bad_lookback_before_any_fit(kernel_calls, kw, error, message):
    kw = dict(dict(n=80, grid_T=48, p=1, d=3), **kw)
    with pytest.raises(error) as ref:
        ref_bands_coverage(1, 4, **kw)
    assert str(ref.value) == message
    kernel_calls.clear()
    with pytest.raises(error) as got:
        run_benchmark("bands-coverage", reps=1, seed=4, **kw)
    assert str(got.value) == message
    assert kernel_calls == []
