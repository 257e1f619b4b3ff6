import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from epspline import DomainError, ExpSpace, InvalidInputError
from epspline.space import segment_basis_eval
from oracle import raw_generators, segment_functions


def test_values_at_zero():
    got = raw_generators(2.0, 0.0, 0)
    assert np.allclose(got, [1.0, 0.0, 1.0, 0.0], atol=0.0)


def test_first_derivative_at_zero():
    got = raw_generators(2.0, 0.0, 1)
    assert np.allclose(got, [2.0, 1.0, -2.0, 1.0], atol=0.0)


def test_values_at_one_alpha_one():
    e = np.e
    got = raw_generators(1.0, 1.0, 0)
    assert np.allclose(got, [e, e, 1 / e, 1 / e], rtol=1e-15)


def test_vectorized_shape():
    t = np.linspace(-1, 1, 7)
    assert raw_generators(0.5, t, 2).shape == (7, 4)


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("deriv", [1, 2])
def test_derivatives_match_finite_differences(alpha, deriv):
    h = 1e-6
    ts = np.array([-2.0, -0.7, 0.0, 0.4, 1.9])
    analytic = raw_generators(alpha, ts, deriv)
    fd = (raw_generators(alpha, ts + h, deriv - 1)
          - raw_generators(alpha, ts - h, deriv - 1)) / (2 * h)
    assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("alpha", [0.5, 2.0, 7.0])
@pytest.mark.parametrize("t", [-1.3, 0.0, 0.8])
def test_generators_independent(alpha, t):
    # values and first three derivative rows form a nonsingular 4x4 system;
    # third derivatives obtained by finite differences of the second
    h = 1e-5
    rows = [raw_generators(alpha, t, d) for d in range(3)]
    third = (raw_generators(alpha, t + h, 2) - raw_generators(alpha, t - h, 2)) / (2 * h)
    mat = np.stack(rows + [third])
    assert abs(np.linalg.det(mat)) > 1e-10


def test_alpha_must_be_positive():
    with pytest.raises(InvalidInputError):
        ExpSpace(0.0)
    with pytest.raises(InvalidInputError):
        ExpSpace(-1.0)
    with pytest.raises(InvalidInputError):
        ExpSpace(float("nan"))


@pytest.mark.parametrize("alpha", ["2", True, np.bool_(True), None, [2.0], 2 + 0j, 10 ** 400],
                         ids=["str", "bool", "numpy-bool", "None", "list", "complex", "huge-int"])
def test_alpha_must_be_a_real_number(alpha):
    with pytest.raises(InvalidInputError, match="alpha must be a positive finite real"):
        ExpSpace(alpha)


@pytest.mark.parametrize("alpha", [2, 2.0, np.int64(2), np.float32(2.0), np.float64(2.0)])
def test_python_and_numpy_reals_accepted(alpha):
    assert ExpSpace(alpha).alpha == 2.0


def test_overflow_guard():
    with pytest.raises(DomainError):
        segment_basis_eval(800.0, 0.9)


@given(z=st.floats(1e-8, 700.0))
def test_rows_at_zero_are_exact(z):
    # build_basis writes these rows as constants instead of evaluating them
    rows = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [z * z, 0.0, 2.0, 0.0]]
    for d, row in enumerate(rows):
        got = segment_functions(z, 0.0, d)
        assert np.array_equal(got.view(np.uint64), np.array(row).view(np.uint64)), (d, got)


class TestSegmentBasis:
    # 40-digit reference values for the fourth function, which switches
    # between a series and a closed form around |z*tau| = 0.1
    B4_REFERENCE = [
        (0.09, 1.0, 1.0008102343565800211),
        (0.11, 1.0, 1.0012105230100399876),
        (0.1, 0.999, 0.99799836370590178919),
        (1e-06, 0.5, 0.125000000000003125),
        (2.0, 0.5, 0.1379547904392908706),
        (8.0, 1.0, 61.132936313835202283),
        (0.05, 0.3, 0.027000607504881713771),
    ]

    @pytest.mark.parametrize("z,tau,expected", B4_REFERENCE)
    def test_fourth_function_matches_high_precision_reference(self, z, tau, expected):
        got = float(segment_basis_eval(z, tau)[3])
        assert got == pytest.approx(expected, rel=1e-14)

    def test_polynomial_limit_for_tiny_rate(self):
        tau = np.linspace(0.0, 1.0, 11)
        got = segment_basis_eval(1e-8, tau)
        expect = np.stack([np.ones_like(tau), tau, tau**2, tau**3])
        assert np.allclose(got, expect, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("z", [1e-4, 0.09, 0.11, 1.0, 6.0])
    @pytest.mark.parametrize("deriv", [1, 2])
    def test_derivatives_match_finite_differences(self, z, deriv):
        taus = np.array([0.15, 0.5, 0.85])
        h = 1e-6
        analytic = segment_functions(z, taus, deriv)
        fd = (segment_functions(z, taus + h, deriv - 1)
              - segment_functions(z, taus - h, deriv - 1)) / (2 * h)
        assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("alpha,h", [(2.0, 0.25), (0.7, 1.3)])
    def test_spans_the_exponential_segment_space(self, alpha, h):
        # every stabilized function must be an exact linear combination of
        # the raw generators over the same interval (t = h * tau)
        z = alpha * h
        tau_fit = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
        tau_check = np.array([0.1, 0.45, 0.77, 0.93])
        raw_fit = raw_generators(alpha, h * tau_fit, 0)
        raw_check = raw_generators(alpha, h * tau_check, 0)
        seg_fit = segment_basis_eval(z, tau_fit).T
        seg_check = segment_basis_eval(z, tau_check).T
        transform = np.linalg.solve(raw_fit, seg_fit)
        predicted = raw_check @ transform
        assert np.allclose(predicted, seg_check, rtol=1e-6, atol=1e-9)

    def test_spans_the_segment_space_at_tiny_scale(self):
        # at z ~ 1e-4 the raw-generator route is too ill-conditioned to
        # verify the span in doubles; use extended precision instead
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        z = mpmath.mpf("1e-4")
        taus = [mpmath.mpf(v) for v in ("0", "0.25", "0.5", "0.75")]
        checks = [mpmath.mpf(v) for v in ("0.1", "0.45", "0.77", "0.93")]

        def raw_row(tau):
            t = tau  # interval length folded into z: t in units of h
            return [mpmath.exp(z * t), t * mpmath.exp(z * t),
                    mpmath.exp(-z * t), t * mpmath.exp(-z * t)]

        def seg_row(tau):
            ch, sh = mpmath.cosh(z * tau), mpmath.sinh(z * tau)
            return [ch, sh / z, tau * sh / z, 3 * (tau * ch - sh / z) / z**2]

        fit = mpmath.matrix([raw_row(t) for t in taus])
        seg = mpmath.matrix([seg_row(t) for t in taus])
        for col in range(4):
            transform = mpmath.lu_solve(fit, seg[:, col])
            for tau in checks:
                predicted = mpmath.fdot(raw_row(tau), transform)
                seg_val = seg_row(tau)[col]
                got = float(segment_basis_eval(1e-4, float(tau))[col])
                assert abs(predicted - seg_val) < mpmath.mpf("1e-25")
                assert got == pytest.approx(float(seg_val), rel=1e-13)
