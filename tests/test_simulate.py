import json

import numpy as np
import pytest

from curvecast import (
    Grid,
    NonstationaryError,
    ProcessSpec,
    bias_bound,
    fixed_psi,
    make_fourier_basis,
    random_operator,
    sigma_scheme,
    simulate,
)
from curvecast.simulate import _coefficients, spectral_norm


def coefficients_of(data, D):
    basis = make_fourier_basis(D, data.grid)
    return data.values @ basis.values.T / data.grid.T


def test_fixed_psi_entries():
    psi1 = fixed_psi("psi1")
    assert psi1[0, 2] == 0.76
    assert psi1[1, 0] == 0.80
    assert psi1[2, 1] == 0.76
    assert np.array_equal(fixed_psi("psi2"), 0.8 * np.eye(3))
    with pytest.raises(ValueError):
        fixed_psi("psi3")


def test_fixed_psi_near_orthogonal_norm():
    # both published operators are scaled orthogonal matrices with norm 0.8,
    # up to the two-decimal rounding of the entries
    for name in ("psi1", "psi2"):
        assert spectral_norm(fixed_psi(name)) == pytest.approx(0.8, abs=0.01)


def test_sigma_schemes():
    assert np.allclose(sigma_scheme("s1", 4), [1.0, 1 / 2, 1 / 3, 1 / 4])
    assert np.allclose(sigma_scheme("s2", 3), [1 / 1.2, 1.2**-2, 1.2**-3])
    with pytest.raises(ValueError):
        sigma_scheme("s3", 3)


def test_spectral_norm_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.normal(size=(6, 6))
        assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectral_norm_rejects_non_finite(bad):
    a = np.eye(3)
    a[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        spectral_norm(a)


def test_random_operator_unit_norm_and_deterministic():
    sig = sigma_scheme("s1", 8)
    a = random_operator(8, sig, np.random.default_rng(5))
    b = random_operator(8, sig, np.random.default_rng(5))
    c = random_operator(8, sig, np.random.default_rng(6))
    assert spectral_norm(a) == pytest.approx(1.0, abs=1e-9)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_spec_validation():
    sig = np.ones(3)
    with pytest.raises(NonstationaryError):
        ProcessSpec(kind="far", D=3, sigma=sig, ar=(1.2 * np.eye(3),))
    with pytest.raises(ValueError):
        ProcessSpec(kind="far", D=3, sigma=sig, ar=(), ma={})
    with pytest.raises(ValueError):
        ProcessSpec(kind="far", D=3, sigma=sig, ar=(0.5 * np.eye(3),), ma={1: np.eye(3)})
    with pytest.raises(ValueError):
        ProcessSpec(kind="fma", D=3, sigma=sig, ma={0: np.eye(3)})
    with pytest.raises(ValueError):
        ProcessSpec(kind="far", D=3, sigma=np.ones(2), ar=(0.5 * np.eye(3),))


def test_spec_json_round_trip():
    spec = ProcessSpec(
        kind="farma",
        D=3,
        sigma=sigma_scheme("s2", 3),
        ar=(0.1 * fixed_psi("psi1"),),
        ma={1: 0.1 * fixed_psi("psi1"), 2: 0.9 * fixed_psi("psi1")},
        burn_in=77,
    )
    back = ProcessSpec.from_json(spec.to_json())
    assert back.kind == spec.kind and back.burn_in == 77
    assert np.array_equal(back.sigma, spec.sigma)
    assert np.array_equal(back.ar[0], spec.ar[0])
    assert set(back.ma) == {1, 2}
    assert json.loads(spec.to_json())["D"] == 3


def test_simulate_shape_and_determinism():
    spec = ProcessSpec(kind="far", D=3, sigma=np.ones(3), ar=(fixed_psi("psi2"),))
    a = simulate(spec, 50, Grid(32), np.random.default_rng(3))
    b = simulate(spec, 50, Grid(32), np.random.default_rng(3))
    assert a.values.shape == (50, 32)
    assert np.array_equal(a.values, b.values)


def loop_simulate(spec, n, grid, rng):
    """Curve values from the per-step recursion simulate replaced, kept as its oracle."""
    basis = make_fourier_basis(spec.D, grid)
    p = spec.p
    ma_lags = sorted(spec.ma)
    q = max(ma_lags) if ma_lags else 0
    steps = spec.burn_in + n
    noise = rng.normal(size=(steps + q, spec.D)) * spec.sigma
    coeffs = np.zeros((steps + p, spec.D))
    for k in range(steps):
        c = noise[k + q].copy()
        for j, psi in enumerate(spec.ar, start=1):
            c += psi @ coeffs[k + p - j]
        for lag in ma_lags:
            c += spec.ma[lag] @ noise[k + q - lag]
        coeffs[k + p] = c
    return coeffs[p + spec.burn_in :] @ basis.values


OPERATOR_CASES = [
    ((0.0, 0.8), {}),  # zero operator at lag 1
    ((0.8, 0.0), {}),  # zero operator at lag 2
    ((0.4, 0.4), {}),
    ((), {2: 0.8}),
    ((0.1,), {1: 0.1, 2: 0.9}),
    ((0.5,), {1: 0.0, 2: 0.9}),  # zero moving-average operator
]


@pytest.mark.parametrize("ar, ma", OPERATOR_CASES)
def test_simulate_bitwise_equals_per_step_recursion(ar, ma):
    D = 7
    sig = sigma_scheme("s1", D)
    psi = random_operator(D, sig, np.random.default_rng(3))
    kind = "farma" if ar and ma else ("far" if ar else "fma")
    spec = ProcessSpec(
        kind=kind, D=D, sigma=sig, ar=tuple(k * psi for k in ar),
        ma={lag: s * psi for lag, s in ma.items()}, burn_in=60,
    )
    got = simulate(spec, 150, Grid(64), np.random.default_rng(9)).values
    want = loop_simulate(spec, 150, Grid(64), np.random.default_rng(9))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("B", [1, 3, 16])
@pytest.mark.parametrize("ar, ma", OPERATOR_CASES)
def test_stacked_coefficients_bitwise_equal_per_step_recursion(ar, ma, B):
    D = 7
    sig = sigma_scheme("s1", D)
    kind = "farma" if ar and ma else ("far" if ar else "fma")
    specs = []
    for b in range(B):  # a distinct operator per replication, zero terms kept zero
        psi = random_operator(D, sig, np.random.default_rng([3, b]))
        specs.append(ProcessSpec(kind=kind, D=D, sigma=sig, ar=tuple(k * psi for k in ar),
                                 ma={lag: s * psi for lag, s in ma.items()}, burn_in=60))
    grid = Grid(64)
    basis = make_fourier_basis(D, grid)
    got = _coefficients(specs, 150, [np.random.default_rng([9, b]) for b in range(B)])
    assert [block.shape for block in got] == [(150, D)] * B
    for b, spec in enumerate(specs):
        want = loop_simulate(spec, 150, grid, np.random.default_rng([9, b]))
        assert (got[b] @ basis.values).tobytes() == want.tobytes()


def test_stacked_specs_must_share_their_lags():
    psi = fixed_psi("psi2")
    far1 = ProcessSpec(kind="far", D=3, sigma=np.ones(3), ar=(psi,))
    far2 = ProcessSpec(kind="far", D=3, sigma=np.ones(3), ar=(psi, 0.1 * psi))
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    with pytest.raises(ValueError, match="share"):
        _coefficients([far1, far2], 10, rngs)


def test_burn_in_changes_draws():
    sig = np.ones(3)
    quick = ProcessSpec(kind="far", D=3, sigma=sig, ar=(fixed_psi("psi2"),), burn_in=0)
    slow = ProcessSpec(kind="far", D=3, sigma=sig, ar=(fixed_psi("psi2"),), burn_in=10)
    a = simulate(quick, 20, Grid(32), np.random.default_rng(1))
    b = simulate(slow, 20, Grid(32), np.random.default_rng(1))
    assert not np.array_equal(a.values, b.values)


def test_far1_operator_recovered_by_lag_regression():
    spec = ProcessSpec(kind="far", D=3, sigma=np.ones(3), ar=(fixed_psi("psi2"),))
    data = simulate(spec, 4000, Grid(32), np.random.default_rng(8))
    coeffs = coefficients_of(data, 3)
    centered = coeffs - coeffs.mean(axis=0)
    g0 = centered.T @ centered / 4000
    g1 = centered[1:].T @ centered[:-1] / 4000
    assert np.abs(g1 @ np.linalg.inv(g0) - 0.8 * np.eye(3)).max() < 0.1


def test_fma2_autocovariance_signature():
    # moving-average at lag 2 only: the lag-2 autocovariance dominates lag 1
    psi = fixed_psi("psi1")
    spec = ProcessSpec(kind="fma", D=3, sigma=np.ones(3), ma={2: 0.8 * psi})
    data = simulate(spec, 4000, Grid(32), np.random.default_rng(12))
    coeffs = coefficients_of(data, 3)
    centered = coeffs - coeffs.mean(axis=0)
    g1 = centered[1:].T @ centered[:-1] / 4000
    g2 = centered[2:].T @ centered[:-2] / 4000
    assert np.linalg.norm(g2) > 3 * np.linalg.norm(g1)
    assert np.abs(g2 - 0.8 * psi).max() < 0.15


def test_bias_bound_frozen_value():
    value = bias_bound([0.8 * np.eye(3)], np.array([1.0, 0.25, 0.1]), 2)
    assert value == pytest.approx(0.164, abs=1e-12)


def test_bias_bound_full_dimension_vanishes():
    assert bias_bound([0.8 * np.eye(3)], np.array([1.0, 0.25, 0.1]), 3) == 0.0


def test_bias_bound_validation():
    lam = np.array([1.0, 0.5])
    with pytest.raises(ValueError):
        bias_bound([np.eye(2)], lam, 3)
    with pytest.raises(ValueError):
        bias_bound([np.eye(3)], lam, 1)
