import numpy as np
import pytest

from epspline import BandedMatrix, ExpSpace, build_basis, collocation_matrix


@pytest.fixture(scope="session")
def space2():
    return ExpSpace(2.0)


@pytest.fixture(scope="session")
def basis8(space2):
    return build_basis(np.linspace(-1.0, 1.0, 8), space2)


@pytest.fixture(scope="session")
def colloc8(basis8):
    return collocation_matrix(basis8)


@pytest.fixture(scope="session")
def grid400():
    return np.linspace(-1.0, 1.0, 400)


@pytest.fixture
def forbid_dense(monkeypatch):
    """Make ``BandedMatrix.to_dense`` raise, to show a code path never calls it."""
    def refuse(self):
        raise AssertionError("a BandedMatrix was made dense")

    monkeypatch.setattr(BandedMatrix, "to_dense", refuse)
