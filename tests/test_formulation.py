"""Tests for the penalty/cost model builders.

The independent oracle throughout is plain float arithmetic on decoded
variable values, enumerated over every bit assignment; the checked path
is the coefficient algebra inside the built expressions and models.
"""

import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import all_assignments, qubo, readme_config

from reluqubo import formulation
from reluqubo.algebra import (
    AffineExpr,
    QuboModel,
    affine_mul,
    energy,
    export_qubo,
    quadratic_to_model,
)
from reluqubo.encoding import BinaryExpansion
from reluqubo.formulation import (
    LinearModelSpec,
    ReluPenaltySpec,
    build_cost_plus_relu,
    build_from_config,
    read_config,
    recommend_M,
    ConfigError,
)
from reluqubo.oracle import relu_reference
from reluqubo.solvers import exhaustive_solve, exhaustive_solve_many

T2 = BinaryExpansion(2, 1.0, -1.0)
Z_UNIT = BinaryExpansion(3, 1.0, 0.0)     # grid step 1/7, hits 0 and 1
Z_PAIR = BinaryExpansion(2, 2.0, 0.0)     # grid 0, 2/3, 4/3, 2


def penalty_bits(spec, start=0):
    t = range(start, start + spec.t_exp.depth)
    z1 = range(t.stop, t.stop + spec.z1_exp.depth)
    z2 = range(z1.stop, z1.stop + spec.z2_exp.depth)
    return t, z1, z2


def penalty_model(m, spec):
    """The gadget alone at a constant m: m has no bits, so t, z1 and z2
    start at bit 0, as penalty_bits(spec) lays them out."""
    built = build_cost_plus_relu(spec, m)
    assert [built.var_ranges[g] for g in ("t", "z1", "z2")] == list(penalty_bits(spec))
    return built.model


def value(expr, pattern):
    """An affine form's value at a {0, 1} assignment: its constant plus
    every coefficient whose bit is set, in plain float arithmetic."""
    return expr.constant + sum(c for i, c in enumerate(expr.coeffs) if pattern[i])


def small_config():
    """8 variables: w of depth 2 on [0, 2] with inputs [1], t, z1, z2 of depth 2."""
    return {
        "cost": {"kind": "quadratic", "target": 0.0, "scale": 0.0},
        "model": {"inputs": [1.0],
                  "w": {"depth": 2, "alpha": 2.0, "beta": 0.0}},
        "penalty": {"t": {"depth": 2, "alpha": 1.0, "beta": -1.0},
                    "z1": {"depth": 2, "alpha": 2.0, "beta": 0.0},
                    "z2": {"depth": 2, "alpha": 2.0, "beta": 0.0},
                    "M": 4.0},
    }


def direct_build(cfg):
    """cfg built through the library's specs alone, without read_config."""
    pen = cfg["penalty"]
    spec = ReluPenaltySpec(*(BinaryExpansion(**pen[k]) for k in ("t", "z1", "z2")), pen["M"])
    lin = LinearModelSpec(cfg["model"]["inputs"], BinaryExpansion(**cfg["model"]["w"]))
    return build_cost_plus_relu(spec, lin)


def changing(section, key, value):
    def change(cfg):
        cfg[section][key] = value
    return change


# id, change to small_config(), the key refused and its message
REFUSALS = [
    ("M-zero", changing("penalty", "M", 0.0), "penalty.M",
     "penalty weight M must be finite and positive, got 0.0"),
    ("M-negative", changing("penalty", "M", -3.0), "penalty.M",
     "penalty weight M must be finite and positive, got -3.0"),
    ("z1-beta", changing("penalty", "z1", {"depth": 2, "alpha": 2.0, "beta": 1.0}), "penalty.z1",
     "z1 expansion must have lower bound exactly 0, got beta = 1.0"),
    ("z2-beta", changing("penalty", "z2", {"depth": 2, "alpha": 2.0, "beta": -0.5}),
     "penalty.z2", "z2 expansion must have lower bound exactly 0, got beta = -0.5"),
    ("zero-input", changing("model", "inputs", [1.0, 0.0]), "model.inputs[1]",
     "must be nonzero, got 0.0"),
    ("negative-zero-input", changing("model", "inputs", [-0.0, 1.0]), "model.inputs[0]",
     "must be nonzero, got -0.0"),
    ("underflowing-input", lambda cfg: cfg["model"].update(
        inputs=[1.0, 5e-324], w={"depth": 6, "alpha": 4.0, "beta": -4.0}), "model.inputs[1]",
     "5e-324 times the weight step 0.06349206349206349 is 0, so its weight bits drop out of m"),
    ("over-the-cap", changing("model", "inputs", [1.0] * 2046), "model.inputs",
     "the model would have 4098 variables, more than the cap of 4096"),
    ("empty-inputs", changing("model", "inputs", []), "model.inputs",
     "expected a non-empty array of numbers"),
    ("nan-input", changing("model", "inputs", [1.0, float("nan")]), "model.inputs[1]",
     "must be finite"),
    ("infinite-input", changing("model", "inputs", [-float("inf")]), "model.inputs[0]",
     "must be finite"),
]


class TestSpecValidation:
    def test_z_lower_bound_zero(self):
        with pytest.raises(ValueError):
            ReluPenaltySpec(T2, BinaryExpansion(2, 1.0, 0.5), Z_UNIT, 1.0)

    def test_positive_m_required(self):
        with pytest.raises(ValueError):
            ReluPenaltySpec(T2, Z_UNIT, Z_UNIT, 0.0)

    def test_linear_model_needs_inputs(self):
        with pytest.raises(ValueError):
            LinearModelSpec((), Z_UNIT)
        with pytest.raises(ValueError):
            LinearModelSpec((float("nan"),), Z_UNIT)

    @pytest.mark.parametrize("case", REFUSALS, ids=[c[0] for c in REFUSALS])
    def test_refusal_names_one_key_from_config_or_spec(self, case):
        # read_config reads the config; direct_build builds its specs with no
        # product allowed, so the cap, too, is refused before any is formed
        _, change, path, message = case
        cfg = small_config()
        change(cfg)
        with pytest.raises(ConfigError) as from_config:
            read_config(cfg)
        with mock.patch.object(formulation, "affine_mul", side_effect=AssertionError("built")):
            with pytest.raises(ConfigError) as from_spec:
                direct_build(cfg)
        assert from_config.value.path == from_spec.value.path == path
        assert str(from_config.value) == str(from_spec.value) == \
            f"config error at '{path}': {message}"


class TestBuildReluPenalty:
    def test_zero_m_zero_z_vanishes(self):
        spec = ReluPenaltySpec(T2, Z_UNIT, Z_UNIT, 8.0)
        model = penalty_model(0.0, spec)
        for t_pattern in all_assignments(2):
            assert energy(model, t_pattern + (0,) * 6) == 0.0

    def test_hand_value_at_minus_one(self):
        # t = -1, z1 = 1, z2 = 0 gives (-1)(-1) + 1*0 - 0 + M*0^2 = 1 = f(-1)
        spec = ReluPenaltySpec(T2, Z_UNIT, Z_UNIT, 8.0)
        pattern = (0, 0) + (1, 1, 1) + (0, 0, 0)
        assert energy(penalty_model(-1.0, spec), pattern) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value_at_two(self):
        # t = 0, z1 = 0, z2 = 2 gives 0 + 0 - 0 + M*(-2 + 2)^2 = 0 = f(2)
        spec = ReluPenaltySpec(T2, Z_UNIT, Z_PAIR, 8.0)
        pattern = (1, 1) + (0, 0, 0) + (1, 1)
        assert energy(penalty_model(2.0, spec), pattern) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m", [-1.3, -0.5, 0.0, 0.7, 2.0])
    def test_closed_form_identity(self, m):
        # every assignment satisfies E = z1 - t*r + M*r^2 with r = -m - z1 + z2
        spec = ReluPenaltySpec(T2, Z_UNIT, Z_PAIR, 16.0)
        model = penalty_model(m, spec)
        nbits = 2 + 3 + 2
        for pattern in all_assignments(nbits):
            t_val = spec.t_exp.decode(pattern[0:2])
            z1_val = spec.z1_exp.decode(pattern[2:5])
            z2_val = spec.z2_exp.decode(pattern[5:7])
            r = -m - z1_val + z2_val
            expected = z1_val - t_val * r + spec.M * r * r
            assert energy(model, pattern) == pytest.approx(expected, abs=1e-9)

    def test_t_flip_free_at_zero_residual(self):
        # m on the z grid: z1 = 1, z2 = 0 makes r = 0, so any t is optimal
        spec = ReluPenaltySpec(T2, Z_UNIT, Z_UNIT, 100.0)
        model = penalty_model(-1.0, spec)
        energies = []
        for t_pattern in all_assignments(2):
            energies.append(energy(model, t_pattern + (1, 1, 1) + (0, 0, 0)))
        assert max(energies) - min(energies) <= 1e-12

    def test_degree_bound_structural(self):
        spec = ReluPenaltySpec(T2, Z_UNIT, Z_PAIR, 8.0)
        t, z1, z2 = penalty_bits(spec, start=3)
        built = build_cost_plus_relu(spec, LinearModelSpec((1.0,), BinaryExpansion(3, 4.0, -2.0)))
        assert [built.var_ranges[g] for g in ("t", "z1", "z2")] == [t, z1, z2]
        assert isinstance(built.model, QuboModel)
        assert built.model.n_vars == z2.stop
        i, j, _ = built.model.terms  # linear terms and pairs only
        assert (i <= j).all()


class TestBuildLinearModelExpr:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_decoded_sum(self, seed):
        rng = np.random.default_rng(seed)
        d_w = int(rng.integers(1, 4))
        dims = int(rng.integers(1, 4))
        w = BinaryExpansion(d_w, float(rng.uniform(0.5, 3)), float(rng.uniform(-2, 2)))
        xs = tuple(float(x) for x in rng.uniform(-2, 2, size=dims))
        n = dims * d_w
        groups = [range(d * d_w, (d + 1) * d_w) for d in range(dims)]
        table = formulation._layout(LinearModelSpec(xs, w))
        assert table == {f"w[{d}]": (w, g) for d, g in enumerate(groups)}
        terms = zip(xs, table.values())
        expr = sum((formulation._placed(exp, bits, n).scaled(x) for x, (exp, bits) in terms),
                   AffineExpr(np.zeros(n)))
        for pattern in all_assignments(n):
            expected = sum(x * w.decode(pattern[g.start:g.stop]) for x, g in zip(xs, groups))
            assert value(expr, pattern) == pytest.approx(expected, abs=1e-12)

    def test_m_range_interval_arithmetic(self):
        w = BinaryExpansion(4, 4.0, -2.0)
        spec = LinearModelSpec((1.0, -0.5), w)
        lo, hi = spec.m_range()
        assert lo == pytest.approx(-2.0 - 1.0)
        assert hi == pytest.approx(2.0 + 1.0)


def decoded_objective(spec, m, cost):
    """Independent oracle: C(m) + penalty from decoded values."""
    r = -m - spec["z1"] + spec["z2"]
    return cost(m) + spec["z1"] - spec["t"] * r + spec["M"] * r * r


class TestBuildCostPlusRelu:
    def test_zero_cost_reduces_to_penalty(self):
        spec = ReluPenaltySpec(T2, Z_UNIT, Z_PAIR, 8.0)
        t, z1, z2 = penalty_bits(spec)
        built = build_cost_plus_relu(spec, -0.75)
        assert (built.m, built.cost_params) == (-0.75, (0.0, 0.0))
        n = built.model.n_vars
        assert n == 2 + 3 + 2
        for pattern in all_assignments(n):
            penalty = decoded_objective(
                {"t": spec.t_exp.decode(pattern[t.start:t.stop]),
                 "z1": spec.z1_exp.decode(pattern[z1.start:z1.stop]),
                 "z2": spec.z2_exp.decode(pattern[z2.start:z2.stop]),
                 "M": spec.M},
                -0.75, lambda m: 0.0)
            assert energy(built.model, pattern) == pytest.approx(penalty, abs=1e-12)

    def test_constant_m_has_no_w_bits_to_pin(self):
        built = build_cost_plus_relu(ReluPenaltySpec(T2, Z_UNIT, Z_PAIR, 8.0), -0.75)
        with pytest.raises(ValueError, match="no w bits"):
            built.pins([-0.75])

    def test_quadratic_cost_minimum_at_representable_m(self):
        # C(m) = (m - 1)^2 over w grid [-1, 2] (step 0.2); both m = 1 and
        # z2 = 1 are representable, so the joint minimum is 0 at m = 1
        w = BinaryExpansion(4, 3.0, -1.0)
        spec = ReluPenaltySpec(
            BinaryExpansion(2, 1.0, -1.0),
            BinaryExpansion(2, 3.0, 0.0),
            BinaryExpansion(2, 3.0, 0.0),
            M=24.0)
        built = build_cost_plus_relu(spec, LinearModelSpec((1.0,), w), (1.0, 1.0))
        result = exhaustive_solve(built.model)

        # independent oracle: enumerate decoded values
        best = min(
            decoded_objective(
                {"t": spec.t_exp.decode(p[4:6]),
                 "z1": spec.z1_exp.decode(p[6:8]),
                 "z2": spec.z2_exp.decode(p[8:10]),
                 "M": spec.M},
                w.decode(p[0:4]),
                lambda m: (m - 1.0) ** 2)
            for p in all_assignments(10))
        assert result.energy == pytest.approx(best, abs=1e-9)
        assert result.energy == pytest.approx(0.0, abs=1e-9)
        assert built.decode(result.assignment)[0] == pytest.approx(1.0, abs=1e-12)

    def test_tradeoff_cost_against_penalty(self):
        # C(m) = (m + 1)^2: the continuous optimum is 0.75 at m = -0.5
        w = BinaryExpansion(4, 4.0, -2.0)
        spec = ReluPenaltySpec(
            BinaryExpansion(2, 1.0, -1.0),
            BinaryExpansion(6, 4.0, 0.0),
            BinaryExpansion(6, 4.0, 0.0),
            M=252.0)
        built = build_cost_plus_relu(spec, LinearModelSpec((1.0,), w), (-1.0, 1.0))
        result = exhaustive_solve(built.model)
        assert result.energy == pytest.approx(0.75, abs=0.15)
        m_hat = built.decode(result.assignment)[0]
        assert abs(m_hat - (-0.5)) <= w.resolution

    # with both M and the cost scale overflowing, the gadget's stage, checked
    # first, is named
    @pytest.mark.parametrize("M, cost, path", [(1.7e308, (0.0, 0.0), "penalty.M"),
                                               (8.0, (0.0, 1.7e308), "cost.scale"),
                                               (1.7e308, (0.0, 1.7e308), "penalty.M")])
    def test_overflow_is_config_error_not_warning(self, M, cost, path):
        spec = ReluPenaltySpec(T2, Z_UNIT, Z_PAIR, M)
        lin = LinearModelSpec((1.0,), BinaryExpansion(2, 4.0, -2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as err:
                build_cost_plus_relu(spec, lin, cost)
        assert err.value.path == path

    @pytest.mark.parametrize("m", [-2.0, -0.5, 0.0, 0.25, 3.0])
    def test_minimizer_decodes_to_dual_optimum(self, m):
        # the winning z assignment tracks z1 = max(0, -m), z2 = max(0, m)
        # within one grid step
        from reluqubo.oracle import wolfe_dual_analytic

        z = BinaryExpansion(6, 4.0, 0.0)
        spec = ReluPenaltySpec(BinaryExpansion(3, 1.0, -1.0), z, z, 252.0)
        built = build_cost_plus_relu(spec, m)
        result = exhaustive_solve(built.model)
        m_hat, _, z1_hat, z2_hat, r = built.decode(result.assignment)
        assert (m_hat, r) == (m, -m - z1_hat + z2_hat)
        opt = wolfe_dual_analytic(m)
        assert abs(z1_hat - opt.z1) <= z.resolution + 1e-9
        assert abs(z2_hat - opt.z2) <= z.resolution + 1e-9

    def test_var_ranges_cover_model(self):
        w_bits = range(3)
        spec = ReluPenaltySpec(T2, Z_UNIT, Z_PAIR, 8.0)
        built = build_cost_plus_relu(spec, LinearModelSpec((1.0,), BinaryExpansion(3, 2.0, 0.0)))
        covered = sorted(i for r in built.var_ranges.values() for i in r)
        assert covered == list(range(built.model.n_vars))
        assert built.var_ranges["w[0]"] == w_bits
        assert built.var_ranges["t"] == range(3, 5)
        assert built.var_ranges["z1"] == range(5, 8)
        assert built.var_ranges["z2"] == range(8, 10)
        assert built.model.labels[:4] == ["w[0][0]", "w[0][1]", "w[0][2]", "t[0]"]

    def test_decode_refuses_bad_assignments(self):
        # the README quickstart model: m a constant, 16 bits of t, z1, z2
        z = BinaryExpansion(6, 4.0, 0.0)
        spec = ReluPenaltySpec(BinaryExpansion(4, 1.0, -1.0), z, z, 252.0)
        built = build_cost_plus_relu(spec, -1.5)
        for n in (3, 21):
            with pytest.raises(ValueError, match=f"^assignment length {n} != n_vars 16$"):
                built.decode([0] * n)
        with pytest.raises(ValueError, match="^assignment entries must be 0 or 1, got 2$"):
            built.decode([2] + [0] * 15)


class TestRecommendations:
    def test_recommend_m_reference_case(self):
        z = BinaryExpansion(6, 4.0, 0.0)
        assert recommend_M(-4.0, 4.0, z, z) == pytest.approx(252.0)

    def test_recommend_m_floor(self):
        z = BinaryExpansion(6, 4.0, 0.0)
        assert recommend_M(0.0, 0.0, z, z) == 1.0

    @pytest.mark.parametrize("lo,hi", [(-4, 4), (0, 0), (-0.1, 0.2), (-100, 5)])
    def test_recommend_m_positive(self, lo, hi):
        z = BinaryExpansion(4, 2.0, 0.0)
        assert recommend_M(lo, hi, z, z) > 0


class TestBuildAbsQubo:
    def build(self, m, z1_exp, z2_exp, M=64.0, d_t=2):
        spec = ReluPenaltySpec(BinaryExpansion(d_t, 2.0, -1.0), z1_exp, z2_exp, M)
        return exhaustive_solve(penalty_model(m, spec))

    def test_zero(self):
        z = BinaryExpansion(3, 2.0, 0.0)
        assert self.build(0.0, z, z).energy == pytest.approx(0.0, abs=1e-9)

    def test_positive_off_grid(self):
        z = BinaryExpansion(4, 2.0, 0.0)
        assert self.build(1.5, z, z).energy == pytest.approx(1.5, abs=0.2)

    def test_negative_on_grid(self):
        z = BinaryExpansion(3, 2.0, 0.0)   # grid hits 2 exactly
        assert self.build(-2.0, z, z).energy == pytest.approx(2.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(-8, 7), st.integers(1, 8), st.data())
def test_any_t_interval_gives_max_am_bm(a4, width4, data):
    # t on [a, b] gives max(a*m, b*m) at every m on the z grid, with r = 0
    # at the argmin, once M * res_z > b - a (the smallest nonzero |r| is res_z)
    a, b = a4 / 4, min(a4 + width4, 8) / 4
    t_exp = BinaryExpansion(2, b - a, a)
    z = BinaryExpansion(3, 2.0, 0.0)
    spec = ReluPenaltySpec(t_exp, z, z, 2 * (b - a) / z.resolution + 1)
    m = data.draw(st.sampled_from(sorted({*z.grid(), *-z.grid()})))
    t, z1, z2 = penalty_bits(spec)
    best = exhaustive_solve(penalty_model(float(m), spec))
    assert best.energy == pytest.approx(max(a * m, b * m), abs=1e-9)
    bits = best.assignment
    r = -m - spec.z1_exp.decode(bits[z1.start:z1.stop]) + spec.z2_exp.decode(bits[z2.start:])
    assert r == pytest.approx(0.0, abs=1e-12)


@st.composite
def sound_pinned_builds(draw):
    """Hinge builds of D = 1 on dyadic grids where the paper's claim holds
    at every w grid point: z1 = z2 with step s = 2^p on [0, s(2^d - 1)],
    w on a grid of step k*s inside +-z_top, so r = 0 is reachable at
    every m and the smallest nonzero |r| is s, and M = margin / s > 1/s."""
    s = 2.0 ** draw(st.integers(-3, 1))
    depth_z = draw(st.integers(2, 4))
    top = (1 << depth_z) - 1  # z_top / s
    z = BinaryExpansion(depth_z, s * top, 0.0)
    depth_w = draw(st.integers(1, depth_z))
    levels = (1 << depth_w) - 1
    k = draw(st.integers(1, 2 * top // levels))
    low = draw(st.integers(-top, top - k * levels))  # the w grid's lowest point / s
    w = BinaryExpansion(depth_w, k * s * levels, low * s)
    t = BinaryExpansion(draw(st.integers(1, 3)), 1.0, -1.0)
    spec = ReluPenaltySpec(t, z, z, draw(st.floats(1.01, 4.0)) / s)
    return build_cost_plus_relu(spec, LinearModelSpec((1.0,), w))


@settings(max_examples=60, deadline=None)
@given(sound_pinned_builds())
def test_pinned_minimum_is_f_with_r_zero_at_every_w_grid_point(built):
    w_range = built.var_ranges["w[0]"]
    patterns = list(itertools.product((0, 1), repeat=len(w_range)))
    results = exhaustive_solve_many(built.model, [dict(zip(w_range, p)) for p in patterns])
    for pattern, result in zip(patterns, results):
        m, _, _, _, r = built.decode(result.assignment)
        assert m == built.m.w_exp.decode(pattern)
        f = relu_reference(m)
        assert abs(result.energy - f) <= 1e-9 * max(1.0, abs(f))
        assert abs(r) <= 1e-12 * max(1.0, abs(m))


class TestBuildFromConfig:
    def config(self):
        return small_config()

    def test_minimal_config_builds_eight_vars(self):
        built = build_from_config(self.config())
        assert built.model.n_vars == 8
        assert built.penalty_spec.M == 4.0

    def test_auto_m_applies_recommendation(self):
        cfg = self.config()
        cfg["penalty"]["M"] = "auto"
        built = build_from_config(cfg)
        z = BinaryExpansion(2, 2.0, 0.0)
        assert built.penalty_spec.M == recommend_M(0.0, 2.0, z, z)

    def test_missing_penalty_names_path(self):
        cfg = self.config()
        del cfg["penalty"]
        with pytest.raises(ConfigError) as err:
            build_from_config(cfg)
        assert err.value.path == "penalty"

    def test_bad_expansion_names_nested_path(self):
        cfg = self.config()
        cfg["penalty"]["z1"]["depth"] = "six"
        with pytest.raises(ConfigError) as err:
            build_from_config(cfg)
        assert err.value.path == "penalty.z1"
        assert "depth must be a positive integer, got 'six'" in str(err.value)

    def test_t_off_the_hinge_interval_builds_with_auto_m_times_its_width(self):
        # t on [a, b] is max(a*m, b*m); auto M keeps ReluPenaltySpec's bound M * res > b - a
        cfg = self.config()
        cfg["penalty"]["M"] = "auto"
        hinge_M = build_from_config(cfg).penalty_spec.M
        for alpha, beta in [(1.0, 0.0), (2.0, -1.0), (0.5, -1.0)]:
            cfg["penalty"]["t"] = {"depth": 2, "alpha": alpha, "beta": beta}
            built = build_from_config(cfg)
            assert built.penalty_spec.t_exp.bounds == (beta, beta + alpha)
            assert built.penalty_spec.M == alpha * hinge_M
            assert built.model.n_vars == 8

    def test_multi_dim_allocates_per_dimension(self):
        cfg = self.config()
        cfg["model"]["inputs"] = [1.0, -1.0, 0.5]
        built = build_from_config(cfg)
        assert built.model.n_vars == 3 * 2 + 6
        assert set(built.var_ranges) == {"w[0]", "w[1]", "w[2]", "t", "z1", "z2"}
        assert built.model.labels[0] == "w[0][0]"
        assert built.model.labels[2] == "w[1][0]"


def unreachable_r_config():
    """m = x . w on inputs (1, 2, -3) with w depth 3 on [-1, 1]: 43 reachable m,
    2/7 apart, of which only -4, 0 and 4 lie on the z grid (step 4/31)."""
    def expansion(depth, alpha, beta):
        return {"depth": depth, "alpha": alpha, "beta": beta}

    return {"cost": {"kind": "quadratic", "target": 0.7, "scale": 0.3},
            "model": {"inputs": [1.0, 2.0, -3.0], "w": expansion(3, 2.0, -1.0)},
            "penalty": {"t": expansion(3, 1.0, -1.0), "z1": expansion(5, 4.0, 0.0),
                        "z2": expansion(5, 4.0, 0.0), "M": "auto"}}


def reachable_cost_plus_f_min(lin, target, scale):
    """min over every weight assignment of scale*(m - target)^2 + f(m)."""
    ms = [sum(x * w for x, w in zip(lin.inputs, ws))
          for ws in itertools.product(lin.w_exp.grid().tolist(), repeat=lin.dim)]
    return min(scale * (m - target) ** 2 + relu_reference(m) for m in ms)


def test_unreachable_r_config_reachable_minimum():
    cfg = unreachable_r_config()
    lin = LinearModelSpec(cfg["model"]["inputs"], BinaryExpansion(**cfg["model"]["w"]))
    z = BinaryExpansion(**cfg["penalty"]["z1"])
    assert recommend_M(*lin.m_range(), z, z) == 186.0
    # the minimum sits at m = 4/7, where r = 0 is out of reach
    target, scale = cfg["cost"]["target"], cfg["cost"]["scale"]
    assert reachable_cost_plus_f_min(lin, target, scale) == pytest.approx(
        scale * (4 / 7 - target) ** 2, abs=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="r = 0 is unreachable at the best m: the ground state has "
                          "energy 0.12204 at m = 8/7, r = 0.0184 (ROADMAP items 1, 14)")
def test_unreachable_r_build_is_refused_or_exact():
    try:
        built = build_from_config(unreachable_r_config())
    except ConfigError:
        return
    best = reachable_cost_plus_f_min(built.m, *built.cost_params)
    assert abs(exhaustive_solve(built.model).energy - best) <= 1e-9


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the greedy pins reach only 8 of the 43 lattice m, at 27 distinct "
                          "m_hat (ROADMAP item 21)")
def test_pins_reach_every_lattice_m():
    built = build_from_config(unreachable_r_config())
    lin, ranges = built.m, built.var_ranges
    ms = [-6 + 2 * k / 7 for k in range(43)]
    m_hats = [sum(x * lin.w_exp.decode([pins[i] for i in ranges[f"w[{d}]"]])
                  for d, x in enumerate(lin.inputs)) for pins in built.pins(ms)]
    assert [(m, m_hat) for m, m_hat in zip(ms, m_hats)
            if abs(m_hat - m) > 1e-9 * max(1.0, abs(m))] == []


@st.composite
def small_builds(draw):
    """Builds of 1-3 inputs or of a constant m, every group of depth 1-3."""
    def expansion(alpha, beta):
        return BinaryExpansion(draw(st.integers(1, 3)), alpha, beta)

    spec = ReluPenaltySpec(expansion(1.0, -1.0), expansion(2.0, 0.0), expansion(3.0, 0.0), 4.0)
    if draw(st.booleans()):
        return build_cost_plus_relu(spec, draw(st.floats(-2.0, 2.0)))
    inputs = draw(st.lists(st.floats(-3.0, 3.0).filter(lambda x: abs(x) > 0.01),
                           min_size=1, max_size=3))
    return build_cost_plus_relu(spec, LinearModelSpec(inputs, expansion(4.0, -2.0)))


@settings(max_examples=80, deadline=None)
@given(small_builds(), st.data())
def test_group_table_readers_agree(built, data):
    # the builder's labels, var_ranges, decode and pins all read one table
    spec, lin, n = built.penalty_spec, built.m, built.model.n_vars
    dim = lin.dim if isinstance(lin, LinearModelSpec) else 0
    own = {**{f"w[{d}]": lin.w_exp for d in range(dim)},
           "t": spec.t_exp, "z1": spec.z1_exp, "z2": spec.z2_exp}
    ranges = built.var_ranges
    assert list(ranges) == list(own)
    assert [i for bits in ranges.values() for i in bits] == list(range(n))
    labels = built.model.labels
    assert {label: i for i, label in enumerate(labels)} == {
        f"{g}[{k}]": i for g, bits in ranges.items() for k, i in enumerate(bits)}

    bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    values = {g: own[g].decode([bits[i] for i in ranges[g]]) for g in own}
    m = lin
    if dim:
        m = 0.0
        for d, x in enumerate(lin.inputs):
            m += x * values[f"w[{d}]"]
    r = -m - values["z1"] + values["z2"]
    assert built.decode(bits) == (m, values["t"], values["z1"], values["z2"], r)

    ms = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4))
    if not dim:
        with pytest.raises(ValueError, match="has no w bits to pin"):
            built.pins(ms)
        return
    w_bits = {i for d in range(dim) for i in ranges[f"w[{d}]"]}
    assert all(fix.keys() == w_bits for fix in built.pins(ms))


# --- reference: the dict-keyed float algebra -------------------------------
#
# Kept here, apart from the library, as the byte guard for the builder.  An
# affine form is (terms, constant) and a quadratic one (pairs, linear,
# constant), keyed by model bit index; every form drops its zero terms.
# Each operation makes its float additions in the order the builder's
# algebra promises, so every exported byte must agree.

def _clean(terms):
    return {k: float(c) for k, c in terms.items() if c != 0.0}


def reference_add(a, b):
    terms = dict(a[0])
    for v, c in b[0].items():
        terms[v] = terms.get(v, 0.0) + c
    return _clean(terms), a[1] + b[1]


def reference_scaled(a, scale):
    if scale == 0.0:
        return {}, 0.0
    return _clean({v: c * scale for v, c in a[0].items()}), a[1] * scale


def reference_expansion(exp, start):
    """exp's affine form over bits start .. start + depth - 1, LSB first."""
    top = float((1 << exp.depth) - 1)
    terms = {start + k: exp.alpha * (float(1 << k) / top) for k in range(exp.depth)}
    return _clean(terms), float(exp.beta)


def reference_affine_mul(a, b):
    pairs, linear = {}, {}
    for u, cu in a[0].items():
        for v, cv in b[0].items():
            c = cu * cv
            if u == v:
                linear[u] = linear.get(u, 0.0) + c
            else:
                k = (min(u, v), max(u, v))
                pairs[k] = pairs.get(k, 0.0) + c
    if b[1] != 0.0:
        for u, cu in a[0].items():
            linear[u] = linear.get(u, 0.0) + cu * b[1]
    if a[1] != 0.0:
        for v, cv in b[0].items():
            linear[v] = linear.get(v, 0.0) + a[1] * cv
    return _clean(pairs), _clean(linear), a[1] * b[1]


def reference_quad_scale_add(dst, src, scale):
    if scale == 0.0:
        return dst
    pairs, linear = dict(dst[0]), dict(dst[1])
    for k, c in src[0].items():
        pairs[k] = pairs.get(k, 0.0) + scale * c
    for v, c in src[1].items():
        linear[v] = linear.get(v, 0.0) + scale * c
    return _clean(pairs), _clean(linear), dst[2] + scale * src[2]


def reference_build(cfg):
    """cfg's model built with the reference algebra from the specs its
    build records, the cost product formed even at cost scale 0."""
    built = build_from_config(cfg)
    return reference_gadget(built.m, built.penalty_spec, built.cost_params)


def reference_gadget(lin, spec, cost_params=(0.0, 0.0)):
    """The gadget for any t interval over lin's weight bits, in the primal
    penalty form and the reference algebra, plus the cost
    scale * (m - target)^2 of cost_params = (target, scale)."""
    labels, m = [], ({}, 0.0)
    for d, x in enumerate(lin.inputs):
        m = reference_add(m, reference_scaled(reference_expansion(lin.w_exp, len(labels)), x))
        labels += [f"w[{d}][{k}]" for k in range(lin.w_exp.depth)]
    forms = []
    for name, exp in (("t", spec.t_exp), ("z1", spec.z1_exp), ("z2", spec.z2_exp)):
        forms.append(reference_expansion(exp, len(labels)))
        labels += [f"{name}[{k}]" for k in range(exp.depth)]
    t, z1, z2 = forms
    a, b = spec.t_exp.bounds
    target, scale = cost_params
    shifted = reference_add(m, reference_scaled(({}, target), -1.0))
    cost = reference_quad_scale_add(({}, {}, 0.0), reference_affine_mul(shifted, shifted), scale)
    residual = reference_add(reference_add(reference_scaled(m, -1.0),
                                           reference_scaled(z1, -1.0)), z2)
    t_minus_a = reference_add(t, reference_scaled(({}, a), -1.0))
    b_minus_t = reference_add(({}, b), reference_scaled(t, -1.0))
    penalty = reference_affine_mul(m, t)
    penalty = reference_quad_scale_add(penalty, reference_affine_mul(z1, t_minus_a), 1.0)
    penalty = reference_quad_scale_add(penalty, reference_affine_mul(z2, b_minus_t), 1.0)
    penalty = reference_quad_scale_add(penalty, reference_affine_mul(residual, residual),
                                       spec.M)
    pairs, linear, offset = reference_quad_scale_add(cost, penalty, 1.0)
    return qubo(len(labels), linear, pairs, offset, labels=labels)


def exhaustive_full_config():
    """perfbench's exhaustive_full config: a nonzero cost over 24 bits."""
    cfg = readme_config()
    cfg["cost"].update(target=-1.0, scale=1.0)
    cfg["model"]["w"]["depth"] = 7
    cfg["penalty"]["t"]["depth"] = 3
    cfg["penalty"]["z1"]["depth"] = cfg["penalty"]["z2"]["depth"] = 7
    return cfg


@st.composite
def build_configs(draw):
    """Valid build configs: 1-6 nonzero inputs, none subnormal (a zero input,
    or one whose product with the weight step underflows to 0, drops its
    weight bits from m, which the builder rejects), depths 1-6, integer or
    real inputs and alphas, cost scale 0 (also -0.0) or not, M auto or
    manual."""
    def expansion(alpha, beta):
        return {"depth": draw(st.integers(1, 6)), "alpha": alpha, "beta": beta}

    real = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)
    number = st.one_of(st.integers(-3, 3).map(float), real)
    positive = st.one_of(st.sampled_from([1.0, 2.0, 4.0, 8.0]), st.floats(0.1, 9.0))
    scale = st.one_of(st.sampled_from([0.0, -0.0]), number)
    return {
        "cost": {"kind": "quadratic", "target": draw(number), "scale": draw(scale)},
        "model": {"inputs": draw(st.lists(number.filter(bool), min_size=1, max_size=6)),
                  "w": expansion(draw(positive), draw(number))},
        "penalty": {"t": expansion(1.0, -1.0),
                    "z1": expansion(draw(positive), 0.0),
                    "z2": expansion(draw(positive), 0.0),
                    "M": draw(st.one_of(st.just("auto"), st.floats(0.5, 300.0)))},
    }


class TestReferenceAlgebra:
    @settings(max_examples=150, deadline=None)
    @given(build_configs())
    @example(readme_config(1))
    @example(readme_config(4))
    @example(readme_config(32))
    @example(exhaustive_full_config())
    def test_build_matches_reference_bytes(self, cfg):
        assert export_qubo(build_from_config(cfg).model) == export_qubo(reference_build(cfg))

    def test_products_match_reference_in_key_order(self):
        # each dense product and sum, read into a model, against the reference
        def dense(form):
            coeffs = np.zeros(3)
            coeffs[list(form[0])] = list(form[0].values())
            return AffineExpr(coeffs, form[1])

        def model(quadratic):
            pairs, linear, offset = quadratic
            return export_qubo(qubo(3, linear, pairs, offset))

        def exported(expr):
            return export_qubo(quadratic_to_model(expr, ["b0", "b1", "b2"]))

        a, b = ({0: 0.5, 2: -1.5}, 0.25), ({2: 2.0, 1: 1.5}, -3.0)
        plus, minus = ({0: 1.0, 1: 1.0}, 0.0), ({0: 1.0, 1: -1.0}, 0.0)
        # the (0, 1) terms cancel and are pruned
        assert quadratic_to_model(affine_mul(dense(plus), dense(minus)), "abc").quadratic == {}
        for x, y in ((a, b), (b, a), (a, a), (plus, minus)):
            product = affine_mul(dense(x), dense(y))
            assert exported(product) == model(reference_affine_mul(x, y))
            for scale in (0.0, 1.0, -2.5):
                got = formulation.quad_scale_add(product, affine_mul(dense(y), dense(y)), scale)
                want = reference_quad_scale_add(reference_affine_mul(x, y),
                                                reference_affine_mul(y, y), scale)
                assert exported(got) == model(want)


@st.composite
def t_intervals(draw):
    """t expansions on [a, b] in quarters of [-2, 2], or on any interval."""
    depth = draw(st.integers(1, 4))
    if draw(st.booleans()):
        a4 = draw(st.integers(-8, 7))
        return BinaryExpansion(depth, draw(st.integers(1, 8 - a4)) / 4, a4 / 4)
    return BinaryExpansion(depth, draw(st.floats(0.01, 4.0)), draw(st.floats(-3.0, 3.0)))


@settings(max_examples=150, deadline=None)
@given(t_intervals(), st.lists(st.floats(-3.0, 3.0).filter(lambda x: abs(x) > 0.01),
                               min_size=1, max_size=3), st.data())
def test_dual_form_matches_primal_reference_bytes(t_exp, inputs, data):
    def expansion(beta):
        return BinaryExpansion(data.draw(st.integers(1, 4)), data.draw(st.floats(0.1, 9.0)),
                               beta)

    lin = LinearModelSpec(tuple(inputs), expansion(data.draw(st.floats(-3.0, 3.0))))
    spec = ReluPenaltySpec(t_exp, expansion(0.0), expansion(0.0),
                           data.draw(st.floats(0.01, 500.0)))
    cost = (data.draw(st.floats(-3.0, 3.0)),
            data.draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))))
    built = build_cost_plus_relu(spec, lin, cost)
    assert (built.m, built.cost_params) == (lin, cost)
    assert export_qubo(built.model) == export_qubo(reference_gadget(lin, spec, cost))


class TestLayerCalls:
    @pytest.mark.parametrize("scale, products, sums", [(0.0, 2, 2), (1.0, 3, 3)])
    def test_build_calls_each_layer(self, scale, products, sums):
        # perfbench times these three layers by wrapping them in formulation
        calls = dict.fromkeys(("affine_mul", "quad_scale_add", "quadratic_to_model"), 0)

        def counting(name):
            original = getattr(formulation, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return mock.patch.object(formulation, name, wrapper)

        cfg = readme_config()
        cfg["cost"]["scale"] = scale
        with counting("affine_mul"), counting("quad_scale_add"), counting("quadratic_to_model"):
            build_from_config(cfg)
        assert calls == {"affine_mul": products, "quad_scale_add": sums,
                         "quadratic_to_model": 1}

    @pytest.mark.parametrize("scale", [0.0, 1.0])
    def test_build_peak_stays_under_72_bytes_per_n_squared(self, scale):
        # 100 inputs at the README depths: 616 bits, whose n x n forms are
        # most of the peak; tracemalloc counts are the same on every run
        cfg = readme_config(100)
        cfg["cost"]["scale"] = scale
        tracemalloc.start()
        try:
            n = build_from_config(cfg).model.n_vars
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 616
        assert peak < 72 * n * n
