"""Tests for the continuous-domain reference functions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reluqubo.oracle import (
    Grid1D,
    legendre_conjugate_num,
    qloss_min_form,
    qloss_reference,
    relu_reference,
    wolfe_dual_analytic,
)


class TestGrid1D:
    def test_point_cap(self):
        assert Grid1D(0.0, 999_999.0, 1.0).n_points == 10 ** 6
        for lo, hi, step in ((0.0, 1e6, 1.0), (0.0, 1.0, 1e-10),
                             (-1e308, 1e308, 1e-300), (0.0, 1.0, 5e-324)):
            with pytest.raises(ValueError, match="more than 1000000 points"):
                Grid1D(lo, hi, step)

    def test_point_count_and_endpoints(self):
        g = Grid1D(-4.0, 4.0, 0.5)
        pts = g.points()
        assert len(pts) == 17
        assert pts[0] == -4.0
        assert pts[-1] == 4.0

    def test_non_divisible_span_truncates(self):
        pts = Grid1D(0.0, 1.0, 0.3).points()
        assert np.allclose(pts, [0.0, 0.3, 0.6, 0.9])

    def test_single_point(self):
        assert list(Grid1D(2.0, 2.0, 1.0).points()) == [2.0]

    def test_symmetric_centimeter_grid_contains_exact_zero(self):
        pts = Grid1D(-10.0, 10.0, 0.01).points()
        assert pts[1000] == 0.0

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
    def test_non_finite_endpoint_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="^grid endpoints must be finite$"):
            Grid1D(lo, hi, 0.1)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 0.0)


class TestReluReference:
    def test_negative_branch(self):
        assert relu_reference(-2.0) == 2.0

    def test_kink(self):
        assert relu_reference(0.0) == 0.0

    def test_positive_branch(self):
        assert relu_reference(3.0) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            relu_reference(math.nan)

    def test_default_interval_is_the_hinge_to_the_bit(self):
        rng = np.random.default_rng(7)
        scales = 10.0 ** rng.integers(-320, 308, 10 ** 4)
        ms = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, *(rng.standard_normal(10 ** 4) * scales)]
        for m in map(float, ms):
            assert repr(relu_reference(m)) == repr(max(0.0, -m))


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_any_interval_gives_max_am_bm_and_never_negative_zero(m, a, b):
    a, b = sorted((a, b))
    if a == b:
        b = math.nextafter(a, math.inf)
    f = relu_reference(m, a, b)
    assert f == max(a * m, b * m)
    assert math.copysign(1.0, f) == 1.0 or f != 0.0


class TestQLossReference:
    def test_plateau_for_large_negative_m(self):
        assert qloss_reference(-10.0, -2.0) == 9.0

    def test_zero_beyond_margin(self):
        assert qloss_reference(1.0, -2.0) == 0.0

    def test_quadratic_region(self):
        assert qloss_reference(0.0, -2.0) == 1.0

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_non_finite_m_rejected(self, m):
        with pytest.raises(ValueError, match=f"^m must be finite, got {m!r}$"):
            qloss_reference(m, -2.0)

    def test_nonnegative_q_rejected(self):
        with pytest.raises(ValueError):
            qloss_reference(0.0, 0.0)
        with pytest.raises(ValueError):
            qloss_reference(0.0, 1.5)


class TestQLossMinForm:
    GRID = Grid1D(-6.0, 6.0, 0.001)

    def test_large_m_reaches_zero(self):
        assert qloss_min_form(2.0, -2.0, self.GRID) == pytest.approx(0.0, abs=1e-9)

    def test_plateau(self):
        wide = Grid1D(-12.0, 7.0, 0.001)
        assert qloss_min_form(-10.0, -2.0, wide) == 9.0

    @pytest.mark.parametrize("q", [-0.5, -1.0, -2.0, -4.0])
    def test_agreement_with_reference(self, q):
        step = self.GRID.step
        for m in np.arange(-5.0, 5.0 + 1e-12, 0.25):
            bound = 2 * step * (abs(m) + 5)
            diff = abs(qloss_min_form(float(m), q, self.GRID) - qloss_reference(float(m), q))
            assert diff <= bound

    def test_negative_q_required(self):
        with pytest.raises(ValueError):
            qloss_min_form(0.0, 0.5, self.GRID)


class TestLegendreConjugate:
    GRID = Grid1D(-10.0, 10.0, 0.01)

    def test_flat_on_interior_of_domain(self):
        assert legendre_conjugate_num(-0.5, self.GRID) == 0.0

    def test_flat_at_left_edge(self):
        assert legendre_conjugate_num(-1.0, self.GRID) == 0.0

    def test_grows_with_radius_outside_domain(self):
        v10 = legendre_conjugate_num(0.5, self.GRID)
        assert v10 == 0.5 * 10
        v20 = legendre_conjugate_num(0.5, Grid1D(-20.0, 20.0, 0.01))
        assert v20 == 2 * v10

    def test_below_domain_grows_too(self):
        # for t < -1 the sup runs to the negative grid edge
        assert legendre_conjugate_num(-2.0, self.GRID) == pytest.approx(10.0)

    def test_biconjugation_recovers_hinge(self):
        t_grid = Grid1D(-2.0, 1.0, 0.01)
        conj = {float(t): legendre_conjugate_num(float(t), self.GRID)
                for t in t_grid.points()}

        def biconjugate(m):
            return max(m * t - c for t, c in conj.items())

        for m in np.arange(-5.0, 5.0 + 1e-12, 0.5):
            assert biconjugate(float(m)) == pytest.approx(
                relu_reference(float(m)), abs=2 * 0.01)


class TestWolfeDualAnalytic:
    def test_negative_m(self):
        assert wolfe_dual_analytic(-3.0) == (3.0, 0.0, -3.0)

    def test_zero(self):
        assert wolfe_dual_analytic(0.0) == (0.0, 0.0, 0.0)

    def test_positive_m(self):
        assert wolfe_dual_analytic(2.0) == (0.0, 2.0, 0.0)

    @pytest.mark.parametrize("m", [math.nan, -math.inf])
    def test_non_finite_m_rejected(self, m):
        with pytest.raises(ValueError, match=f"^m must be finite, got {m!r}$"):
            wolfe_dual_analytic(m)

    def test_negated_value_equals_hinge_exactly(self):
        rng = np.random.default_rng(23)
        for m in rng.uniform(-1e6, 1e6, size=1000):
            assert -wolfe_dual_analytic(float(m)).value == relu_reference(float(m))

    @pytest.mark.parametrize("m", [-2.7, -0.3, 0.4, 3.1])
    def test_grid_search_confirms_optimum(self, m):
        # maximize the dual objective at t = 0 (feasible, value -z1) over a
        # 2-variable grid restricted to near-feasible residuals
        step = 0.01
        span = math.ceil(abs(m)) + 1
        z = np.arange(0.0, span + step / 2, step)
        z1g, z2g = np.meshgrid(z, z, indexing="ij")
        feasible = np.abs(-m - z1g + z2g) <= step / 2 + 1e-12
        objective = np.where(feasible, -z1g, -np.inf)
        best = np.unravel_index(np.argmax(objective), objective.shape)
        z1_hat, z2_hat = z[best[0]], z[best[1]]
        opt = wolfe_dual_analytic(m)
        assert abs(z1_hat - opt.z1) <= step + 1e-12
        assert abs(z2_hat - opt.z2) <= step + 1e-12
        assert abs(-z1_hat - opt.value) <= step + 1e-12
