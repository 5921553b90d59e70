"""Tests for the uniform binary expansion of continuous variables."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import all_assignments

from reluqubo.encoding import BinaryExpansion


class TestDelta:
    """The bit weights alpha * delta(k), delta(k) = 2^(k-1) / (2^d - 1) for
    k = 1..d, as BinaryExpansion.weights lists them from the LSB."""

    def test_depth_three_weights(self):
        assert BinaryExpansion(3, 1.0, 0.0).weights == pytest.approx((1 / 7, 2 / 7, 4 / 7))

    def test_depth_one(self):
        assert BinaryExpansion(1, 1.0, 0.0).weights == (1.0,)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16, 53])
    def test_weights_sum_to_one(self, d):
        # every weight is 2^k / (2^d - 1) rounded once, so each is within
        # half an ulp of exact and their sum within d ulps of 1
        assert sum(BinaryExpansion(d, 1.0, 0.0).weights) == pytest.approx(1.0, abs=d * 2 ** -52)

    @pytest.mark.parametrize("depth, alpha", [(1, 1.0), (3, 2.0), (6, 8.0), (7, 0.3),
                                              (33, 2.225073858507e-311), (53, 1e300)])
    def test_the_old_formula_floats_summing_to_alpha(self, depth, alpha):
        exp = BinaryExpansion(depth, alpha, -1.0)
        old = tuple(alpha * (float(1 << (k - 1)) / float((1 << depth) - 1))
                    for k in range(1, depth + 1))
        assert exp.weights == old
        # a subnormal weight is rounded to a multiple of 2^-1074
        assert math.isclose(sum(exp.weights), alpha, rel_tol=depth * 2 ** -52,
                            abs_tol=depth * 2 ** -1074)


class TestConstruction:
    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            BinaryExpansion(3, -1.0, 0.0)

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            BinaryExpansion(0, 1.0, 0.0)

    @pytest.mark.parametrize("depth", [True, 2.0, "3"])
    def test_depth_of_another_type_rejected(self, depth):
        with pytest.raises(ValueError, match="depth must be a positive integer"):
            BinaryExpansion(depth, 1.0, 0.0)

    @pytest.mark.parametrize("alpha, beta", [(math.inf, 0.0), (math.nan, 0.0), (1.0, -math.inf),
                                             (1.0, math.nan)])
    def test_non_finite_alpha_or_beta_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="^alpha and beta must be finite$"):
            BinaryExpansion(3, alpha, beta)

    def test_depth_capped_at_double_precision(self):
        top = BinaryExpansion(53, 1.0, 0.0)
        assert top.resolution > 0.0
        assert top.decode([0] + [1] * 52) < top.decode([1] * 53) == 1.0
        for depth in (54, 1100):
            with pytest.raises(ValueError, match="at most 53"):
                BinaryExpansion(depth, 1.0, 0.0)

    def test_bounds_and_resolution(self):
        t = BinaryExpansion(4, 1.0, -1.0)
        assert t.bounds == (-1.0, 0.0)
        w = BinaryExpansion(3, 2.0, 1.0 - 2.0 / 2)
        assert w.bounds == (0.0, 2.0)
        z = BinaryExpansion(6, 4.0, 0.0)
        assert z.resolution == pytest.approx(4 / 63)


class TestDecode:
    def test_all_ones_hits_upper_endpoint(self):
        exp = BinaryExpansion(6, 4.0, 0.0)
        assert exp.decode([1] * 6) == 4.0

    def test_all_zeros_hits_beta(self):
        exp = BinaryExpansion(5, 3.0, -7.0)
        assert exp.decode([0] * 5) == -7.0

    def test_lsb_is_one_resolution_step(self):
        exp = BinaryExpansion(4, 2.0, 0.5)
        pattern = [1] + [0] * 3
        assert exp.decode(pattern) == pytest.approx(0.5 + 2.0 / 15)

    def test_t_interval_stays_in_range(self):
        exp = BinaryExpansion(4, 1.0, -1.0)
        for pattern in all_assignments(4):
            v = exp.decode(pattern)
            assert -1.0 <= v <= 0.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            BinaryExpansion(3, 1.0, 0.0).decode([0, 1])

    @pytest.mark.parametrize("bit", [2, -1, 0.5])
    def test_non_binary_bit_rejected(self, bit):
        with pytest.raises(ValueError, match=f"^bits must be 0 or 1, got {bit!r}$"):
            BinaryExpansion(3, 1.0, 0.0).decode([0, bit, 1])


class TestGridProperties:
    @pytest.mark.parametrize("exp", [
        BinaryExpansion(1, 1.0, 0.0),
        BinaryExpansion(3, 2.0, -1.0),
        BinaryExpansion(6, 4.0, 0.0),
        BinaryExpansion(5, 0.5, 10.0),
    ])
    def test_decode_enumerates_uniform_grid_once(self, exp):
        decoded = sorted(exp.decode(p) for p in all_assignments(exp.depth))
        assert len(set(decoded)) == exp.n_levels
        assert np.array_equal(np.array(decoded), exp.grid())
        assert decoded[0] == exp.bounds[0]
        assert decoded[-1] == exp.bounds[1]

    def test_decode_monotone_in_integer_value(self):
        exp = BinaryExpansion(6, 3.0, -2.0)
        values = [exp.decode([(j >> k) & 1 for k in range(6)]) for j in range(64)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestQuantize:
    def test_endpoints(self):
        exp = BinaryExpansion(4, 2.0, -3.0)
        assert exp.quantize(-3.0) == (0, 0, 0, 0)
        assert exp.quantize(-1.0) == (1, 1, 1, 1)

    def test_clamps_out_of_range(self):
        exp = BinaryExpansion(3, 1.0, 0.0)
        assert exp.quantize(-5.0) == (0, 0, 0)
        assert exp.quantize(99.0) == (1, 1, 1)

    def test_grid_points_roundtrip_exactly(self):
        exp = BinaryExpansion(6, 4.0, -4.0)
        for j in range(64):
            pattern = tuple((j >> k) & 1 for k in range(6))
            assert exp.quantize(exp.decode(pattern)) == pattern

    def test_nearest_within_half_resolution(self):
        rng = np.random.default_rng(17)
        exp = BinaryExpansion(6, 4.0, 0.0)
        grid = exp.grid()
        for v in rng.uniform(0.0, 4.0, size=200):
            snapped = exp.decode(exp.quantize(float(v)))
            # scan all grid points: snapped must be a nearest one
            best = grid[np.argmin(np.abs(grid - v))]
            assert abs(snapped - v) <= abs(best - v) + 1e-12
            assert abs(snapped - v) <= exp.resolution / 2 + 1e-12

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValueError, match=f"^value must be finite, got {value!r}$"):
            BinaryExpansion(3, 1.0, 0.0).quantize(value)

    def test_midpoint_ties_round_down(self):
        exp = BinaryExpansion(2, 3.0, 0.0)  # grid 0, 1, 2, 3
        assert exp.decode(exp.quantize(0.5)) == 0.0
        assert exp.decode(exp.quantize(1.5)) == 1.0

    def test_degenerate_alpha_zero(self):
        # a grid of one point, whose bits drop out of every model
        with pytest.raises(ValueError, match="nonzero coefficient, got 0.0"):
            BinaryExpansion(2, 0.0, 5.0)

    @pytest.mark.parametrize("depth, alpha", [(6, 5e-324), (53, 1e-308)])
    def test_alpha_whose_bit_coefficient_rounds_to_zero(self, depth, alpha):
        with pytest.raises(ValueError, match="nonzero coefficient"):
            BinaryExpansion(depth, alpha, 5.0)

    @pytest.mark.parametrize("depth, beta, value", [(2, -1e308, 1.7e308),
                                                    (2, 1e308, -1.7e308),
                                                    (53, 0.0, 99.0)])
    def test_far_values_clamp_to_an_endpoint(self, depth, beta, value):
        # value - beta overflows to +-inf at depth 2; at depth 53 the top
        # index less 0.5 rounds to an even integer below it
        exp = BinaryExpansion(depth, 3.0, beta)
        assert exp.quantize(value) == (int(value > 0),) * depth


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 53), st.one_of(st.floats(0.0, 1e300), st.floats(0.0, 1e-300)),
       st.floats(-1e300, 1e300), st.integers(0, 2 ** 53 - 1))
# grid values the first guess alone missed: at depth 52-53 it is off by
# about 2^(depth - 53) steps, and by far more on a subnormal step
@example(52, 3.0, -1.0, 2300846720580677)
@example(53, 1.0, 0.0, 2 ** 53 - 1)
@example(53, 1.0, 0.0, 6859123960276392)
@example(33, 2.225073858507e-311, 0.0, 912)
@example(33, 2.225073858507e-311, 0.0, 6970309701)
def test_quantize_decode_roundtrip(depth, alpha, beta, draw):
    try:
        exp = BinaryExpansion(depth, alpha, beta)
    except ValueError:
        return
    assert exp.resolution > 0.0
    assert np.count_nonzero(exp.to_affine(range(depth)).coeffs) == depth
    j = draw % exp.n_levels
    pattern = tuple((j >> k) & 1 for k in range(depth))
    value = exp.decode(pattern)
    assert exp.decode(exp.quantize(value)) == value
    neighbours = [exp.decode(tuple((i >> k) & 1 for k in range(depth)))
                  for i in (j - 1, j + 1) if 0 <= i < exp.n_levels]
    if value not in neighbours:  # p's grid value is its own
        assert exp.quantize(value) == pattern


class TestToAffine:
    @staticmethod
    def value(expr, pattern):
        return expr.constant + sum(c for c, b in zip(expr.coeffs, pattern) if b)

    def test_upper_endpoint_evaluation(self):
        exp = BinaryExpansion(2, 1.0, -1.0)
        expr = exp.to_affine(range(2))
        assert self.value(expr, (1, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_all_zero_gives_beta(self):
        exp = BinaryExpansion(3, 2.0, 0.25)
        assert self.value(exp.to_affine(range(3)), (0, 0, 0)) == 0.25

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_decode_exhaustively(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        start = int(rng.integers(0, 3))
        exp = BinaryExpansion(d, float(rng.uniform(0.1, 5)), float(rng.uniform(-3, 3)))
        expr = exp.to_affine(range(start, start + d))
        assert len(expr.coeffs) == start + d
        for pattern in all_assignments(d):
            assert self.value(expr, (0,) * start + pattern) == pytest.approx(
                exp.decode(pattern), abs=1e-12)

    def test_wrong_bit_count_rejected(self):
        with pytest.raises(ValueError):
            BinaryExpansion(3, 1.0, 0.0).to_affine(range(2))
