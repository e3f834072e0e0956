import numpy as np
import pytest

from smplab.linalg import Mat2, MatrixPair


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def random_pair(rng: np.random.Generator) -> MatrixPair:
    e = rng.standard_normal(8)
    return MatrixPair(Mat2(*e[:4]), Mat2(*e[4:]))


def conjugated(p: MatrixPair, g: Mat2) -> MatrixPair:
    """Simultaneous conjugation (g A g^-1, g B g^-1)."""
    gi = g.inverse()
    return MatrixPair(g @ p.A @ gi, g @ p.B @ gi)
