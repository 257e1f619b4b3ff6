import numpy as np
import pytest

from epspline import BandedMatrix, InvalidInputError, SingularSystemError, factorize


def random_tridiagonal(n, seed=0):
    """A diagonally dominant tridiagonal matrix and its dense oracle, built apart."""
    rng = np.random.default_rng(seed)
    upper, diag, lower = rng.normal(size=n - 1), rng.normal(size=n) + 4.0, rng.normal(size=n - 1)
    mat = BandedMatrix(lower, diag, upper)
    dense = np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)
    return mat, dense


@pytest.mark.parametrize("n", [1, 2, 9])
def test_to_dense_layout(n):
    mat, dense = random_tridiagonal(n, seed=n)
    assert np.array_equal(mat.to_dense(), dense)


def test_norm_inf_matches_dense():
    mat, dense = random_tridiagonal(10, seed=5)
    assert mat.norm_inf() == pytest.approx(np.abs(dense).sum(axis=1).max(), rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 25, 50])
def test_solve_matches_dense_solve(n):
    mat, dense = random_tridiagonal(n, seed=n)
    lu = factorize(mat)
    rng = np.random.default_rng(n + 1)
    b = rng.normal(size=n)
    assert np.allclose(lu.solve(b), np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)


def test_transpose_solve_matches_dense():
    mat, dense = random_tridiagonal(20, seed=9)
    lu = factorize(mat)
    b = np.random.default_rng(10).normal(size=20)
    assert np.allclose(lu.solve(b, transpose=True), np.linalg.solve(dense.T, b),
                       rtol=1e-10, atol=1e-12)


def test_multiple_rhs():
    mat, dense = random_tridiagonal(15, seed=11)
    lu = factorize(mat)
    b = np.random.default_rng(12).normal(size=(15, 4))
    assert np.allclose(lu.solve(b), np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_smallest_orders(n):
    mat, dense = random_tridiagonal(n, seed=20 + n)
    assert mat.norm_inf() == pytest.approx(np.abs(dense).sum(axis=1).max(), rel=1e-15)
    lu = factorize(mat)
    b = np.random.default_rng(n).normal(size=(n, 3))
    assert np.allclose(lu.solve(b), np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
    assert np.allclose(lu.solve(b[:, 0], transpose=True), np.linalg.solve(dense.T, b[:, 0]),
                       rtol=1e-10, atol=1e-12)
    mat.diag[-1] = mat.upper[-1:] = 0.0  # zero last column
    with pytest.raises(SingularSystemError):
        factorize(mat)


def test_singular_matrix_rejected():
    mat, _ = random_tridiagonal(6, seed=13)
    mat.lower[2] = mat.diag[3] = mat.upper[3] = 0.0  # zero row 3
    with pytest.raises(SingularSystemError):
        factorize(mat)


def test_dependent_rows_rejected():
    # rows 2 and 3 agree up to a few rounding units and are decoupled from the
    # other rows: every pivot is positive, but the one of row 3, about 4 eps * b,
    # falls below the floor
    mat, _ = random_tridiagonal(6, seed=14)
    a, b = np.random.default_rng(15).uniform(1.0, 2.0, size=2)
    mat.upper[1], mat.diag[2], mat.lower[2] = 0.0, a, a  # (1, 2), (2, 2), (3, 2)
    # (2, 3), (3, 3), (4, 3)
    mat.upper[2], mat.diag[3], mat.lower[3] = b, b * (1 + 4 * np.finfo(float).eps), 0.0
    mat.lower[1] = mat.upper[3] = 0.0  # (2, 1), (3, 4)
    with pytest.raises(SingularSystemError,
                       match=r"row 3: forward pivot \d\S* without row exchanges is not above"):
        factorize(mat)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", [("diag", 1), ("upper", 1), ("lower", 0)],
                         ids=["diagonal", "upper", "lower"])
def test_non_finite_entry_rejected(value, slot):
    # a NaN compares false against the pivot floor, and an infinite entry makes
    # the floor infinite: both must be named as such, not factored
    mat = BandedMatrix(np.zeros(2), np.ones(3), np.zeros(2))
    name, i = slot
    getattr(mat, name)[i] = value
    with pytest.raises(SingularSystemError, match="non-finite entry"):
        factorize(mat)


@pytest.mark.parametrize("lengths", [(0, 0, 0), (1, 3, 2), (2, 3, 1), (3, 3, 3), (0, 1, 1)])
def test_bad_diagonal_lengths_rejected(lengths):
    lower, diag, upper = (np.ones(k) for k in lengths)
    with pytest.raises(InvalidInputError, match="bad tridiagonal diagonals"):
        BandedMatrix(lower, diag, upper)


def test_diagonals_are_copied():
    lower, diag, upper = np.zeros(1), np.ones(2), np.zeros(1)
    mat = BandedMatrix(lower, diag, upper)
    diag[0] = 0.0
    assert np.array_equal(mat.to_dense(), np.eye(2))


def test_empty_rhs():
    mat, _ = random_tridiagonal(5)
    for transpose in (False, True):
        assert factorize(mat).solve(np.empty((5, 0)), transpose).shape == (5, 0)


def test_rhs_size_checked():
    lu = factorize(random_tridiagonal(5)[0])
    with pytest.raises(InvalidInputError):
        lu.solve(np.ones(6))


@pytest.mark.parametrize("rhs", [3.0, np.float64(3.0), np.array(3.0)])
def test_scalar_rhs_rejected(rhs):
    lu = factorize(random_tridiagonal(5)[0])
    for transpose in (False, True):
        with pytest.raises(InvalidInputError, match=r"rhs of shape \(\), expected leading "
                                                    r"dimension 5"):
            lu.solve(rhs, transpose)
