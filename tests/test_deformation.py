import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvne.deformation import CoefficientSeries, PowerLaw
from nvne.errors import DomainError


class TestPowerLaw:
    def test_endpoints(self):
        for q in (0.5, 1.0, 2.0, 3.7):
            f = PowerLaw(q=q)
            assert f.f(0.0) == 0.0
            assert f.f(1.0) == 1.0

    def test_q_must_be_positive(self):
        with pytest.raises(DomainError):
            PowerLaw(q=0.0)
        with pytest.raises(DomainError):
            PowerLaw(q=-2.0)
        # non-finite exponents: f and the divided differences take int(q)
        for q in (np.inf, np.nan):
            with pytest.raises(DomainError):
                PowerLaw(q=q)

    def test_negative_argument_noninteger_q(self):
        with pytest.raises(DomainError):
            PowerLaw(q=1.5).f(-0.1)

    def test_negative_argument_integer_q_ok(self):
        assert PowerLaw(q=2.0).f(-0.5) == pytest.approx(0.25)

    def test_tiny_negative_clipped(self):
        assert PowerLaw(q=1.5).f(-1e-15) == 0.0

    def test_derivative_matches_finite_difference(self):
        f = PowerLaw(q=2.5)
        for x in (0.1, 0.5, 0.9):
            fd = (f.f(x + 1e-7) - f.f(x - 1e-7)) / 2e-7
            assert f.divided_difference(x, x) == pytest.approx(fd, rel=1e-6)

    def test_integer_exponent_equals_float(self):
        # PowerLaw(q=2) from a Python caller behaves as the q = 2.0 the CLI builds
        x = np.linspace(0.0, 1.0, 11)
        as_int, as_float = PowerLaw(q=2), PowerLaw(q=2.0)
        assert as_int.q == 2.0
        assert np.array_equal(as_int.f(x), as_float.f(x))
        assert np.array_equal(as_int.divided_difference(x[:, None], x[None, :]),
                              as_float.divided_difference(x[:, None], x[None, :]))


class TestDividedDifference:
    @settings(max_examples=60, deadline=None)
    @given(
        q=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
        a=st.floats(0.0, 1.0),
        b=st.floats(0.0, 1.0),
    )
    def test_symmetry(self, q, a, b):
        f = PowerLaw(q=q)
        assert f.divided_difference(a, b) == pytest.approx(f.divided_difference(b, a), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.floats(0.1, 5.0),
        b=st.floats(1e-3, 1.0),
        gap=st.one_of(st.just(0.0), st.floats(1e-12, 1e-2)),
    )
    def test_close_pairs_match_high_precision(self, q, b, gap):
        # no cancellation near the diagonal: the ratio branch used to lose
        # up to 5e-7 relative just above the old degeneracy threshold
        mpmath = pytest.importorskip("mpmath")
        a = b + gap
        with mpmath.workdps(40):
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            exact = q * mb ** (q - 1) if a == b else (ma**q - mb**q) / (ma - mb)
            rel = abs((PowerLaw(q=q).divided_difference(a, b) - exact) / exact)
        assert rel < 1e-12

    def test_separated_pair_is_ratio(self):
        f = PowerLaw(q=2.0)
        assert f.divided_difference(0.75, 0.25) == pytest.approx(1.0)

    def test_degenerate_pair_is_derivative(self):
        f = PowerLaw(q=2.0)
        assert f.divided_difference(0.3, 0.3) == pytest.approx(0.6)

    def test_degenerate_zero_with_small_q_is_zero(self):
        f = PowerLaw(q=0.5)
        assert f.divided_difference(0.0, 0.0) == 0.0

    def test_extreme_q_takes_the_limit_silently(self):
        # q log1p(r) overflows to -inf, whose expm1 is the limit -1
        f = PowerLaw(q=1e308)
        assert f.divided_difference(0.1, 0.9) == 0.0
        assert f.divided_difference(1.0, 0.1) == pytest.approx(1.0 / 0.9, rel=1e-15)

    def test_identity_everywhere(self):
        f = PowerLaw(q=1.0)
        grid = np.linspace(0, 1, 7)
        dd = f.divided_difference(grid[:, None], grid[None, :])
        assert np.allclose(dd, 1.0)

    def test_array_broadcast(self):
        f = PowerLaw(q=3.0)
        a = np.array([0.2, 0.5])
        dd = f.divided_difference(a[:, None], a[None, :])
        assert dd[0, 0] == pytest.approx(3 * 0.04)
        assert dd[0, 1] == pytest.approx((0.125 - 0.008) / 0.3)


class TestCoefficientSeries:
    def test_requires_unit_sum(self):
        with pytest.raises(DomainError):
            CoefficientSeries(coeffs=(0.5, 0.4))

    def test_matches_power_law_for_pure_term(self):
        series = CoefficientSeries(coeffs=(0.0, 1.0))
        power = PowerLaw(q=2.0)
        x = np.linspace(0, 1, 11)
        assert np.allclose(series.f(x), power.f(x))
        assert np.allclose(series.divided_difference(x, x), power.divided_difference(x, x))

    @settings(max_examples=200, deadline=None)
    @given(
        b=st.floats(1e-3, 1.0),
        gap=st.one_of(st.just(0.0), st.floats(1e-12, 1e-2)),
    )
    @example(b=0.618, gap=1.01e-10)
    def test_close_pairs_match_high_precision(self, b, gap):
        # sum_k c_k sum_j a^j b^(k-1-j) has no cancellation at any gap; a
        # ratio with a derivative limit below 1e-10 lost 4e-7 relative at
        # the example's gap
        mpmath = pytest.importorskip("mpmath")
        coeffs = (0.2, 0.3, 0.5)
        a = b + gap
        with mpmath.workdps(40):
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            if a == b:
                exact = sum(k * c * mb ** (k - 1) for k, c in enumerate(coeffs, start=1))
            else:
                exact = sum(c * (ma**k - mb**k) for k, c in enumerate(coeffs, start=1)) / (ma - mb)
            rel = abs((CoefficientSeries(coeffs=coeffs).divided_difference(a, b) - exact) / exact)
        assert rel < 1e-12

    def test_mixture(self):
        f = CoefficientSeries(coeffs=(0.25, 0.75))
        assert f.f(0.0) == 0.0
        assert f.f(1.0) == pytest.approx(1.0)
        assert f.f(0.5) == pytest.approx(0.25 * 0.5 + 0.75 * 0.25)
        assert f.divided_difference(0.5, 0.5) == pytest.approx(0.25 + 0.75 * 2 * 0.5)
