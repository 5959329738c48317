import numpy as np
import pytest

from spinnet.dynamics import PureState


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_single_excitation_state(rng, n_sites: int) -> PureState:
    amp = rng.normal(size=n_sites) + 1j * rng.normal(size=n_sites)
    return PureState(amp / np.linalg.norm(amp))


def random_hermitian(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0
