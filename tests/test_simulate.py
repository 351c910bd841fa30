import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import curvecast
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
from curvecast.simulate import _coefficients, _coupled_far1, spectral_norm


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
    with pytest.raises(ValueError, match="sigma_scheme key 'D' must be >= 1, got 0"):
        sigma_scheme("s1", 0)


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
    for bad in (sig[:7], np.r_[sig[:7], 0.0]):  # one short, or one not positive
        with pytest.raises(ValueError, match=re.escape("random_operator key 'sigma' must")):
            random_operator(8, bad, np.random.default_rng(5))


@pytest.mark.parametrize("sigma, top", [("[1e-200, 1e-200]", "1e-200"), ("[1e200, 1.0]", "1e+200")])
def test_random_operator_refuses_a_sigma_whose_products_underflow_or_overflow(sigma, top):
    # products that all underflow used to redraw forever, and one that overflows ended in a
    # RuntimeWarning and spectral_norm's error; a subprocess keeps a hang out of the suite
    root = Path(curvecast.__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root), os.environ.get("PYTHONPATH")]))
    script = ("import numpy as np\nfrom curvecast import random_operator\n"
              f"random_operator(2, {sigma}, np.random.default_rng(1))")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=pythonpath), timeout=30)
    assert proc.stderr.splitlines()[-1] == ("ValueError: random_operator key 'sigma' must have its "
                                            f"largest entry in 1e-150..1e150, got {top}")


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


# each case used to construct and then fail in simulate, or fail with numpy's message
@pytest.mark.parametrize("change, message", [
    ({"D": 3.5}, "process spec key 'D' must be one finite int, got 3.5"),
    ({"burn_in": 2.5}, "process spec key 'burn_in' must be one finite int, got 2.5"),
    ({"D": True}, "process spec key 'D' must be one finite int, got True"),
    ({"D": 0}, "process spec key 'D' must be >= 1, got 0"),
    ({"burn_in": -1}, "process spec key 'burn_in' must be >= 0, got -1"),
    # a non-finite cell is named by its place, so the message stays on one line; the ids
    # are those of the messages the hand-written operator and sigma checks wrote
    pytest.param({"ar": (np.full((3, 3), np.nan),)},
                 "process spec key 'ar' must be a 2-D array of finite numbers of shape (3, 3), "
                 "got nan at row 1, column 1",
                 id="change5-process spec key 'ar' holds array("),
    pytest.param({"kind": "farma", "ma": {1: np.full((3, 3), np.inf)}},
                 "process spec key 'ma' must be a 2-D array of finite numbers of shape (3, 3), "
                 "got inf at row 1, column 1",
                 id="change6-process spec key 'ma' holds array("),
    pytest.param({"kind": "fma", "ar": (), "ma": {2: [[0.5, 0, 0], [0, np.nan, 0], [0, 0, 0.5]]}},
                 "process spec key 'ma' must be a 2-D array of finite numbers of shape (3, 3), "
                 "got nan at row 2, column 2",
                 id="change7-process spec key 'ma' holds [[0.5, 0, 0], [0, nan, 0], [0, 0, 0.5]], "
                    "not a 3 x 3 matrix of finite numbers"),
    pytest.param({"sigma": np.ones(2)}, "process spec key 'sigma' must be a 1-D array of finite "
                 "numbers of shape (3,), got an array of shape (2,)",
                 id="change8-process spec key 'sigma' must list 3 positive numbers, "
                    "got an array of shape (2,)"),
    pytest.param({"sigma": np.array([1.0, np.nan, 1.0])},
                 "process spec key 'sigma' must be a 1-D array of finite numbers of shape (3,), "
                 "got nan at cell 2",
                 id="change9-process spec key 'sigma' must list one or more numbers, "
                    "got an array of shape (3,)"),
    pytest.param({"sigma": np.ones(3, dtype=bool)},
                 "process spec key 'sigma' must be a 1-D array of finite numbers of shape (3,), "
                 "got True at cell 1",
                 id="change10-process spec key 'sigma' must list one or more numbers, "
                    "got an array of shape (3,)"),
    ({"ar": (np.eye(2),)}, "process spec key 'ar' must be a 2-D array of finite numbers of shape "
                           "(3, 3), got an array of shape (2, 2)"),
    ({"sigma": [1.0, -1.0, 1.0]}, "process spec key 'sigma' must be positive, got an array of shape (3,)"),
])
def test_spec_checks_its_fields_at_construction(change, message):
    args = {"kind": "far", "D": 3, "sigma": np.ones(3), "ar": (0.5 * np.eye(3),), **change}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy RuntimeWarning on the way
        with pytest.raises(ValueError, match=re.escape(message)):
            ProcessSpec(**args)


def test_spec_json_rejects_a_non_finite_operator():
    text = '{"kind": "fma", "D": 1, "sigma": [1.0], "ma": {"1": [[NaN]]}}'
    with pytest.raises(ValueError, match=re.escape(
            "process spec key 'ma' must be a 2-D array of finite numbers of shape (1, 1), "
            "got nan at row 1, column 1")):
        ProcessSpec.from_json(text)


def test_spec_takes_whole_floats_as_integers():
    whole = ProcessSpec(kind="far", D=3.0, sigma=np.ones(3), ar=(0.5 * np.eye(3),), burn_in=20.0)
    spec = ProcessSpec(kind="far", D=3, sigma=np.ones(3), ar=(0.5 * np.eye(3),), burn_in=20)
    assert (whole.D, whole.burn_in) == (3, 20) and type(whole.D) is type(whole.burn_in) is int
    assert whole.to_json() == spec.to_json()
    ints = ProcessSpec(kind="far", D=3, sigma=np.ones(3, dtype=int), ar=(0.5 * np.eye(3),),
                       burn_in=20)
    assert ints.to_json() == spec.to_json()
    got = simulate(whole, 30, Grid(32), np.random.default_rng(1)).values
    assert got.tobytes() == simulate(spec, 30, Grid(32), np.random.default_rng(1)).values.tobytes()


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


@pytest.mark.parametrize("change, message", [
    ({"D": 3.7}, "process spec key 'D' must be one finite int, got 3.7"),
    ({"D": "3"}, "process spec key 'D' must be one finite int, got '3'"),
    ({"burn_in": 2.5}, "process spec key 'burn_in' must be one finite int, got 2.5"),
    ({"burn_in": True}, "process spec key 'burn_in' must be one finite int, got True"),
    ({"burnin": 50}, "process spec has no key 'burnin'; its keys are kind, D, sigma, ar, ma, "
                     "burn_in"),
    pytest.param({"kind": "fma", "ar": [], "ma": {"1.5": [[0.5]]}},
                 "process spec key 'ma' must be one finite int, got '1.5'",
                 id="change5-process spec ma lag '1.5' must be an integer"),
    # these were taken as empty, or failed with numpy's message naming no key
    ({"ar": 0}, "process spec key 'ar' must be a list, got 0"),
    ({"ma": ""}, "process spec key 'ma' must be a dict, got ''"),
    ({"ma": False}, "process spec key 'ma' must be a dict, got False"),
    pytest.param({"sigma": "a"}, "process spec key 'sigma' must be a 1-D array of finite numbers of "
                 "shape (1,), got 'a'", id="change9-process spec key 'sigma' must list one or more numbers, got 'a'"),
])
def test_spec_json_takes_integers_and_only_its_fields(change, message):
    # these used to be truncated, ignored or fail with int()'s own message
    text = json.dumps({"kind": "far", "D": 1, "sigma": [1.0], "ar": [[[0.5]]], **change})
    with pytest.raises(ValueError, match=re.escape(message)):
        ProcessSpec.from_json(text)


def test_spec_json_takes_whole_floats_and_absent_values():
    text = json.dumps({"kind": "far", "D": 1.0, "sigma": [1.0], "ar": [[[0.5]]], "ma": None,
                       "burn_in": None})
    spec = ProcessSpec.from_json(text)
    assert (spec.D, spec.burn_in, spec.ma) == (1, 200, {}) and type(spec.D) is int


EYE = np.eye(3).tolist()


# one bad value per field; a lag of 1.5 or True used to be truncated to lag 1
@pytest.mark.parametrize("change, key", [
    ({"kind": "arma"}, "kind"),
    ({"kind": None}, "kind"),
    ({"ma": {1: EYE}}, "kind"),  # 'far' takes no ma operators
    ({"D": 0}, "D"),
    ({"D": 2.5}, "D"),
    ({"sigma": [1.0, -1.0, 1.0]}, "sigma"),
    ({"sigma": [1.0, 1.0]}, "sigma"),
    ({"sigma": "abc"}, "sigma"),
    ({"ar": 0.5}, "ar"),
    ({"ar": [[[0.5]]]}, "ar"),
    ({"ar": [(1.5 * np.eye(3)).tolist()]}, "ar"),  # not stationary
    ({"kind": "farma", "ma": {1.5: EYE}}, "ma"),
    ({"kind": "farma", "ma": {True: EYE}}, "ma"),
    ({"kind": "farma", "ma": {0: EYE}}, "ma"),
    ({"kind": "farma", "ma": [EYE]}, "ma"),
    ({"burn_in": -1}, "burn_in"),
    ({"burn_in": "200"}, "burn_in"),
])
@pytest.mark.parametrize("route", ["python", "json"])
def test_every_spec_error_is_one_line_naming_its_key(route, change, key):
    args = {"kind": "far", "D": 3, "sigma": [1.0] * 3, "ar": [(0.5 * np.eye(3)).tolist()], **change}
    with pytest.raises(ValueError) as err:
        ProcessSpec(**args) if route == "python" else ProcessSpec.from_json(json.dumps(args))
    message = str(err.value)
    assert message.startswith(f"process spec key {key!r} ") and "\n" not in message


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


def dispatched_coefficients(specs, n, rngs):
    """The recursion as it stepped through np.dot (B = 1) or np.matmul (B > 1) on each call."""
    spec, B = specs[0], len(specs)
    p, lags = spec.p, sorted(spec.ma)
    q, steps = max(lags, default=0), spec.burn_in + n
    noise = np.stack([rng.normal(size=(steps + q, spec.D)) * s.sigma
                      for s, rng in zip(specs, rngs)], axis=1)
    coeffs = np.zeros((steps + p, B, spec.D))
    coeffs[p:] = noise[q:]
    if B == 1:
        mult, rows, shocks, ar, ma = np.dot, coeffs[:, 0], noise[:, 0], spec.ar, spec.ma
    else:
        mult, rows, shocks = np.matmul, coeffs[..., None], noise[..., None]
        ar = [np.stack([s.ar[j] for s in specs]) for j in range(p)]
        ma = {lag: np.stack([s.ma[lag] for s in specs]) for lag in lags}
    for k in range(steps):
        for j in range(1, p + 1):
            if np.any(ar[j - 1]):
                rows[k + p] += mult(ar[j - 1], rows[k + p - j])
        for lag in lags:
            if np.any(ma[lag]):
                rows[k + p] += mult(ma[lag], shocks[k + q - lag])
    return [coeffs[p + spec.burn_in :, b] for b in range(B)]


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("ar, ma", [((0.4, 0.4), {}), ((0.1,), {1: 0.1, 2: 0.9}), ((), {2: 0.8})])
def test_bound_products_bitwise_equal_dispatched_products(ar, ma, B):
    D = 7
    sig = sigma_scheme("s1", D)
    kind = "farma" if ar and ma else ("far" if ar else "fma")
    specs = []
    for b in range(B):
        psi = random_operator(D, sig, np.random.default_rng([5, b]))
        specs.append(ProcessSpec(kind=kind, D=D, sigma=sig, ar=tuple(k * psi for k in ar),
                                 ma={lag: s * psi for lag, s in ma.items()}, burn_in=40))
    got = _coefficients(specs, 120, [np.random.default_rng([2, b]) for b in range(B)])
    want = dispatched_coefficients(specs, 120, [np.random.default_rng([2, b]) for b in range(B)])
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_stacked_specs_must_share_their_lags():
    psi = fixed_psi("psi2")
    far1 = ProcessSpec(kind="far", D=3, sigma=np.ones(3), ar=(psi,))
    far2 = ProcessSpec(kind="far", D=3, sigma=np.ones(3), ar=(psi, 0.1 * psi))
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    with pytest.raises(ValueError, match="share"):
        _coefficients([far1, far2], 10, rngs)
    with pytest.raises(ValueError, match="simulate key 'n' must be >= 1, got 0"):
        simulate(far1, 0, Grid(32), rngs[0])


def coupled_loop(n, rng, psi, b, sigma_y, rho, sigma_r, burn_in=200):
    """The per-step covariate-driven recursion _coupled_far1 replaced, kept as its oracle."""
    psi, b, sigma_y = (np.asarray(a, dtype=float) for a in (psi, b, sigma_y))
    D, r = b.shape
    steps = burn_in + n
    coeffs = np.zeros((steps + 1, D))
    rvals = np.zeros((steps + 1, r))
    for k in range(1, steps + 1):
        rvals[k] = rho * rvals[k - 1] + rng.normal(size=r) * sigma_r
        coeffs[k] = psi @ coeffs[k - 1] + b @ rvals[k - 1] + rng.normal(size=D) * sigma_y
    return coeffs[1 + burn_in :], rvals[1 + burn_in :]


# the covariate-far1 source's constants, which are _coupled_far1's defaults, and pm10-analog's
COUPLED_CONSTANTS = {
    "defaults": {"psi": np.diag([0.6, 0.5, 0.4]), "b": [[0.9, 0.0], [0.0, 0.7], [0.35, 0.35]],
                 "sigma_y": [1.0, 0.7, 0.5], "rho": 0.5, "sigma_r": 0.8},
    "pm10-analog": {"psi": np.diag([0.55, 0.45, 0.4]), "b": [[0.5, 0.0], [0.0, 0.35], [0.2, 0.2]],
                    "sigma_y": [0.3, 0.2, 0.15], "rho": 0.5, "sigma_r": 0.6},
}


@pytest.mark.parametrize("burn_in", [0, 200])
@pytest.mark.parametrize("name", sorted(COUPLED_CONSTANTS))
def test_coupled_far1_equals_the_per_step_recursion(name, burn_in):
    constants = COUPLED_CONSTANTS[name]
    given = {} if name == "defaults" else constants
    for seed in range(5):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        [(coeffs, covariates)] = _coupled_far1(150, [rng], burn_in=burn_in, **given)
        want, want_covariates = coupled_loop(150, oracle_rng, burn_in=burn_in, **constants)
        assert covariates.tobytes() == want_covariates.tobytes()
        # one product over [B Psi] rounds apart from Psi c + B r by about an ulp
        assert np.max(np.abs(coeffs - want)) <= 1e-13 * np.max(np.abs(want))
        assert rng.random() == oracle_rng.random()  # the same normals were drawn


def test_coupled_far1_stack_equals_each_generator_alone():
    stacked = _coupled_far1(120, [np.random.default_rng([4, b]) for b in range(16)], burn_in=50)
    assert [(c.shape, r.shape) for c, r in stacked] == [((120, 3), (120, 2))] * 16
    for b, (coeffs, covariates) in enumerate(stacked):
        [(alone, alone_covariates)] = _coupled_far1(120, [np.random.default_rng([4, b])], burn_in=50)
        assert coeffs.tobytes() == alone.tobytes()
        assert covariates.tobytes() == alone_covariates.tobytes()


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
    must = "bias_bound key 'ar_operators' must "
    with pytest.raises(ValueError, match=re.escape(f"{must}be a 3-D array of finite numbers, "
                                                   "got an array of shape (0,)")):
        bias_bound([], lam, 1)
    with pytest.raises(ValueError, match=re.escape(f"{must}list square matrices, "
                                                   "got an array of shape (1, 2, 3)")):
        bias_bound([np.ones((2, 3))], lam, 1)
    with pytest.raises(ValueError, match=re.escape(f"{must}be a 3-D array of finite numbers, "
                                                   "got an array of shape (2,)")):
        bias_bound([np.eye(2), np.eye(3)], lam, 1)  # two operators of different sizes
    with pytest.raises(ValueError, match="bias_bound key 'eigenvalues' must list 2 or more values >= 0"):
        bias_bound([np.eye(2)], np.array([1.0, -0.5]), 1)
