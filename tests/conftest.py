import numpy as np
import pytest

from curvecast import FunctionalDataset, Grid, ProcessSpec, fixed_psi, simulate


def far1_dataset(n=120, T=64, seed=0, operator="psi1", burn_in=100):
    rng = np.random.default_rng(seed)
    spec = ProcessSpec(
        kind="far", D=3, sigma=np.ones(3), ar=(fixed_psi(operator),), burn_in=burn_in
    )
    return simulate(spec, n, Grid(T), rng)


@pytest.fixture
def make_far1():
    return far1_dataset


@pytest.fixture
def noise_dataset():
    def make(n=100, T=48, seed=0):
        rng = np.random.default_rng(seed)
        return FunctionalDataset(grid=Grid(T), values=rng.normal(size=(n, T)))

    return make


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices handed to np.linalg.svd during the test."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls
