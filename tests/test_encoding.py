"""Tests for the uniform binary expansion of continuous variables."""

import numpy as np
import pytest
from helpers import all_assignments

from reluqubo.encoding import BinaryExpansion, delta


class TestDelta:
    def test_depth_three_weights(self):
        assert delta(1, 3) == pytest.approx(1 / 7)
        assert delta(2, 3) == pytest.approx(2 / 7)
        assert delta(3, 3) == pytest.approx(4 / 7)

    def test_depth_one(self):
        assert delta(1, 1) == 1.0

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
    def test_weights_sum_to_one(self, d):
        assert sum(delta(k, d) for k in range(1, d + 1)) == pytest.approx(1.0, abs=1e-14)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            delta(0, 3)
        with pytest.raises(ValueError):
            delta(4, 3)


class TestConstruction:
    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            BinaryExpansion(3, -1.0, 0.0)

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            BinaryExpansion(0, 1.0, 0.0)

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

    def test_midpoint_ties_round_down(self):
        exp = BinaryExpansion(2, 3.0, 0.0)  # grid 0, 1, 2, 3
        assert exp.decode(exp.quantize(0.5)) == 0.0
        assert exp.decode(exp.quantize(1.5)) == 1.0

    def test_degenerate_alpha_zero(self):
        exp = BinaryExpansion(2, 0.0, 5.0)
        assert exp.quantize(123.0) == (0, 0)
        assert exp.decode((0, 0)) == 5.0


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
