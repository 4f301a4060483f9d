import numpy as np
import pytest

from pairinglab import BipartiteState, DensityMatrix, RngState
from pairinglab.constructions import MCSpec, make_mc_state

MC_COEFFS = np.array([[0.5, 0.3], [0.3, 0.5]])


def random_hermitian(seed, d):
    g = np.random.Generator(np.random.Philox(seed))
    x = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    return (x + x.conj().T) / 2


def own_part(x):
    """x's Hermitian part (x + x^dag) / 2, taken again until it is its own
    Hermitian part bit for bit."""
    for _ in range(4):
        h = (x + x.conj().swapaxes(-1, -2)) / 2
        if h.tobytes() == x.tobytes():
            return h
        x = h
    raise AssertionError("the Hermitian part did not settle")


def random_density(seed, d):
    """Full-rank random density matrix from an independent Philox stream."""
    g = np.random.Generator(np.random.Philox(seed))
    x = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    m = x @ x.conj().T
    return DensityMatrix(m / m.trace().real, 1e-9)


@pytest.fixture
def plus_rho():
    return DensityMatrix(np.ones((2, 2)) / 2)


@pytest.fixture
def bell_state():
    return make_mc_state(MCSpec(np.ones((2, 2)) / 2, (0, 1), (0, 1)), 2, 2)


@pytest.fixture
def mc_state():
    """The running example: canonical MC state with c = [[0.5,0.3],[0.3,0.5]]."""
    return make_mc_state(MCSpec(MC_COEFFS, (0, 1), (0, 1)), 2, 2)


@pytest.fixture
def diagonal_state():
    return BipartiteState(
        DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)), 2, 2
    )


@pytest.fixture
def rng():
    return RngState(12345)


@pytest.fixture
def decompositions(monkeypatch):
    """Shapes of the arrays passed to numpy's eigvalsh, eigh and svd
    while the test runs."""
    shapes = []
    for name in ("eigvalsh", "eigh", "svd"):
        def counted(a, *args, _orig=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return shapes
