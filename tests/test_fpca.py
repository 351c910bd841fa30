import re
import warnings

import numpy as np
import pytest

from curvecast import (
    DimensionMismatchError,
    FunctionalDataset,
    Grid,
    InsufficientDataError,
    NumericalDegeneracyError,
    RankDeficiencyError,
    ScoreMatrix,
    eigensystem,
    make_fourier_basis,
    predict_fts,
    pve_dimension,
    reconstruct,
    rolling_residuals,
    scores,
    synthesize,
)
from curvecast.curves import l2_norm
from curvecast.fpca import _fix_signs, _pve_rank, sample_covariance_kernel, sample_mean


def rank3_dataset(T=48):
    """Exact-rank dataset with known component variances 4, 1, 0."""
    grid = Grid(T)
    basis = make_fourier_basis(3, grid)
    coeffs = np.array(
        [[2.0, 1.0, 0.0], [-2.0, 1.0, 0.0], [2.0, -1.0, 0.0], [-2.0, -1.0, 0.0]]
    )
    return synthesize(coeffs, basis), basis


def test_sample_mean_hand():
    data = FunctionalDataset(grid=Grid(2), values=np.array([[1.0, 3.0], [3.0, 1.0]]))
    assert np.array_equal(sample_mean(data), [2.0, 2.0])


def test_covariance_kernel_hand():
    data = FunctionalDataset(grid=Grid(2), values=np.array([[1.0, 3.0], [3.0, 1.0]]))
    kernel = sample_covariance_kernel(data)
    assert np.allclose(kernel, [[1.0, -1.0], [-1.0, 1.0]])


def test_covariance_needs_two_curves():
    data = FunctionalDataset(grid=Grid(2), values=np.array([[1.0, 2.0]]))
    with pytest.raises(InsufficientDataError):
        sample_covariance_kernel(data)


def test_known_spectrum():
    data, basis = rank3_dataset()
    eig = eigensystem(data, 3)
    assert np.allclose(eig.eigenvalues, [4.0, 1.0, 0.0], atol=1e-10)
    # leading eigenfunctions match the generating basis up to sign
    for row, ref in zip(eig.eigenfunctions[:2], basis.values[:2]):
        align = abs(float(row @ ref) / data.grid.T)
        assert align == pytest.approx(1.0, abs=1e-8)


def test_eigenfunctions_orthonormal(noise_dataset):
    data = noise_dataset(n=40, T=32, seed=5)
    eig = eigensystem(data, 10)
    gram = eig.eigenfunctions @ eig.eigenfunctions.T / data.grid.T
    assert np.abs(gram - np.eye(10)).max() < 1e-8


def test_score_covariance_is_diagonal(noise_dataset):
    data = noise_dataset(n=60, T=32, seed=9)
    eig = eigensystem(data, 8)
    smat = scores(data, eig).scores
    assert np.abs(smat.mean(axis=0)).max() < 1e-10
    cov = smat.T @ smat / data.n
    assert np.allclose(cov, np.diag(eig.eigenvalues), atol=1e-8)


def test_variance_decomposition(noise_dataset):
    data = noise_dataset(n=30, T=24, seed=2)
    full = min(data.n - 1, data.T)
    eig = eigensystem(data, full)
    assert eig.eigenvalues.sum() == pytest.approx(eig.total_variance, abs=1e-10)
    assert eig.tail_variance() == pytest.approx(0.0, abs=1e-10)


def test_reconstruction_error_equals_tail(noise_dataset):
    data = noise_dataset(n=40, T=32, seed=4)
    eig = eigensystem(data, 5)
    smat = scores(data, eig)
    approx = reconstruct(smat, eig)
    err = np.mean([l2_norm(r, data.grid) ** 2 for r in data.values - approx.values])
    assert err == pytest.approx(eig.tail_variance(), abs=1e-8)


def test_exact_rank_reconstruction():
    data, _ = rank3_dataset()
    eig = eigensystem(data, 2)
    approx = reconstruct(scores(data, eig), eig)
    assert np.abs(approx.values - data.values).max() < 1e-8
    with pytest.raises(ValueError, match=re.escape("scores must be an (n, d) array, got shape")):
        ScoreMatrix(scores=np.ones(2))
    with pytest.raises(DimensionMismatchError, match="data grid T=24 does not match eigensystem "
                                                     "grid T=48"):
        scores(rank3_dataset(T=24)[0], eig)
    with pytest.raises(DimensionMismatchError, match="scores have d=3 columns but the eigensystem "
                                                     "holds 2"):
        reconstruct(ScoreMatrix(scores=np.ones((4, 3))), eig)


def test_truncate_matches_smaller_fit(noise_dataset):
    data = noise_dataset(n=25, T=24, seed=8)
    big = eigensystem(data, 6)
    small = eigensystem(data, 2)
    cut = big.truncate(2)
    assert np.allclose(cut.eigenvalues, small.eigenvalues, atol=1e-12)
    assert np.allclose(cut.eigenfunctions, small.eigenfunctions, atol=1e-12)
    assert cut.total_variance == small.total_variance
    for d in (0, 7):
        with pytest.raises(ValueError, match=f"cannot truncate to d={d}, system holds 6 pairs"):
            big.truncate(d)


def test_eigensystem_determinism(noise_dataset):
    data = noise_dataset(n=30, T=24, seed=3)
    a = eigensystem(data, 4)
    b = eigensystem(data, 4)
    assert np.array_equal(a.eigenfunctions, b.eigenfunctions)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_sign_convention(noise_dataset):
    data = noise_dataset(n=30, T=24, seed=6)
    eig = eigensystem(data, 4)
    for row in eig.eigenfunctions:
        assert row[int(np.argmax(np.abs(row)))] > 0.0


def test_dimension_bounds(noise_dataset):
    data = noise_dataset(n=10, T=24, seed=1)
    with pytest.raises(ValueError):
        eigensystem(data, 0)
    with pytest.raises(ValueError):
        eigensystem(data, 10)  # exceeds n - 1


def test_pve_dimension_thresholds():
    data, _ = rank3_dataset()
    # variance split is 4 / 1 / 0, so one component explains exactly 80%
    assert pve_dimension(data, 0.8) == 1
    assert pve_dimension(data, 0.8 + 1e-6) == 2
    assert pve_dimension(data, 1.0) == 2
    with pytest.raises(ValueError):
        pve_dimension(data, 0.0)
    with pytest.raises(ValueError):
        pve_dimension(data, 1.2)
    # one component of the 4 / 1 split falls short of 90%, and curves that do not vary take one
    with pytest.raises(InsufficientDataError, match="even 1 components explain only 0.8000 < 0.9"):
        _pve_rank(eigensystem(data, 1), 0.9)
    flat = FunctionalDataset(grid=data.grid, values=np.ones((4, data.T)))
    assert pve_dimension(flat, 0.9) == 1


def loop_fix_signs(funcs):
    """The per-row sign rule: negate a row whose largest |value| is negative."""
    for row in funcs:
        if np.sign(row[np.argmax(np.abs(row))]) < 0:
            row *= -1.0
    return funcs


def test_fix_signs_equals_the_per_row_rule():
    rows = np.array([
        [0.1, -0.9, 0.5],  # negative anchor
        [0.5, -0.5, 0.2],  # a tie in |max|: the first index, positive, wins
        [-0.5, 0.5, 0.2],  # the same tie with the first index negative
        [-0.3, -0.0, 0.1],  # a -0.0 in a flipped row
        [0.3, -0.0, 0.1],  # a -0.0 in a kept row
        [-0.0, 0.0, -0.0],  # a -0.0 anchor is not negative
    ])
    wide = np.random.default_rng(4).normal(size=(255, 256))
    for funcs in (rows, wide):
        want = loop_fix_signs(funcs.copy())
        got = funcs.copy()
        assert _fix_signs(got) is got
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(_fix_signs(rows.copy())[3:]),
                          [[0, 0, 1], [0, 1, 0], [1, 0, 1]])


def test_truncate_equals_direct_eigensystem(make_far1):
    data = make_far1(n=90, T=40, seed=8)
    full = eigensystem(data, 6)
    for d in range(1, 7):
        cut, direct = full.truncate(d), eigensystem(data, d)
        assert np.array_equal(cut.eigenvalues, direct.eigenvalues)
        assert np.array_equal(cut.eigenfunctions, direct.eigenfunctions)
        assert np.array_equal(cut.mean, direct.mean)
        assert cut.total_variance == direct.total_variance


def test_huge_scale_fails_early_without_warnings():
    rng = np.random.default_rng(0)
    data = FunctionalDataset(grid=Grid(16), values=rng.normal(size=(30, 16)) * 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: eigensystem(data, 2), lambda: pve_dimension(data, 0.9)):
            with pytest.raises(NumericalDegeneracyError, match="overflows; rescale"):
                call()


@pytest.mark.parametrize("scale", [1e-155, 1e-160, 1e-165])
def test_tiny_scale_fails_early_without_warnings(make_far1, scale):
    # a kernel below the smallest normal float used to give inf scores, a bare ValueError
    # or a RankDeficiencyError that read 0.000e+00/0.000e+00
    data = make_far1()
    tiny = FunctionalDataset(grid=data.grid, values=data.values * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: predict_fts(tiny, p=1, d=2), lambda: rolling_residuals(tiny, 2, 1),
                     lambda: eigensystem(tiny, 2), lambda: pve_dimension(tiny, 0.9)):
            with pytest.raises(NumericalDegeneracyError, match="underflows; rescale"):
                call()


def test_small_scale_still_fits(make_far1):
    data = make_far1()
    small = FunctionalDataset(grid=data.grid, values=data.values * 1e-150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = predict_fts(small, p=1, d=2)
        assert rolling_residuals(small, 2, 1).n == rolling_residuals(data, 2, 1).n
    want = predict_fts(data, p=1, d=2)
    np.testing.assert_allclose(got.scores, want.scores * 1e-150, rtol=1e-6)
    np.testing.assert_allclose(got.curve, want.curve * 1e-150, rtol=1e-6)


def test_constant_curves_keep_a_zero_kernel():
    # the underflow check leaves curves that do not vary as they were
    data = FunctionalDataset(grid=Grid(16), values=np.full((30, 16), 2.5))
    assert not np.any(sample_covariance_kernel(data))
    assert eigensystem(data, 2).total_variance == 0.0
    with pytest.raises(RankDeficiencyError, match="numerically singular"):
        predict_fts(data, p=1, d=2)
