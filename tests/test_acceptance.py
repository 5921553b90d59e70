"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here; the stated runtime budgets are
asserted as generous upper bounds on this desk-scale workload.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from helpers import qubo

from reluqubo.algebra import energy, export_qubo, parse_qubo
from reluqubo.encoding import BinaryExpansion
from reluqubo.formulation import (
    ReluPenaltySpec,
    build_cost_plus_relu,
    build_from_config,
)
from reluqubo.algebra import AffineExpr, QuadraticExpr
from reluqubo.oracle import (
    Grid1D,
    legendre_conjugate_num,
    qloss_min_form,
    qloss_reference,
    relu_reference,
    wolfe_dual_analytic,
)
from reluqubo.solvers import (
    AnnealConfig,
    exhaustive_solve,
    fix_bits,
    simulated_anneal,
)


@contextmanager
def criterion(num, name, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {name}")
        raise
    elapsed = time.perf_counter() - t0
    if budget_s is not None and elapsed >= budget_s:
        print(f"[FAIL] criterion {num}: {name} ({elapsed:.2f}s over {budget_s}s budget)")
        raise AssertionError(f"criterion {num} exceeded runtime budget: "
                             f"{elapsed:.2f}s >= {budget_s}s")
    budget = f" < {budget_s}s budget" if budget_s is not None else ""
    print(f"[PASS] criterion {num}: {name} ({elapsed:.2f}s{budget})")


def reference_config(w_beta):
    """Criterion 1 settings: d_t = 4, d_z = 6, alpha_z = 4, M = 252."""
    return {
        "cost": {"kind": "quadratic", "target": 0.0, "scale": 0.0},
        "model": {"inputs": [1.0],
                  "w": {"depth": 6, "alpha": 4.0, "beta": w_beta}},
        "penalty": {"t": {"depth": 4, "alpha": 1.0, "beta": -1.0},
                    "z1": {"depth": 6, "alpha": 4.0, "beta": 0.0},
                    "z2": {"depth": 6, "alpha": 4.0, "beta": 0.0},
                    "M": 252.0},
    }


@pytest.fixture(scope="module")
def reference_builds():
    """Built models whose w grids are the z-grid of [-4, 0] and its mirror."""
    negative = build_from_config(reference_config(-4.0))
    positive = build_from_config(reference_config(0.0))
    return negative, positive


def solve_at_m(built, m):
    w_exp = built.linear_spec.w_exp
    bits = w_exp.quantize(float(m))
    fixes = {built.var_ranges["w[0]"][k]: b for k, b in enumerate(bits)}
    return exhaustive_solve(built.model, fixed=fixes)


def test_criterion_1_relu_reproduction(reference_builds):
    with criterion(1, "hinge reproduction on the 64-point z-grids", budget_s=1.0):
        for built in reference_builds:
            points = built.linear_spec.w_exp.grid()
            assert len(points) == 64
            for m in points:
                result = solve_at_m(built, m)
                err = abs(result.energy - relu_reference(float(m)))
                assert err <= 0.2, f"m={m}: error {err}"
                if m == 0.0:
                    assert err <= 1e-9, f"zero-residual point m=0: error {err}"


def test_criterion_2_t_degeneracy():
    with criterion(2, "t-bit flips are free at zero residual", budget_s=1.0):
        rng = np.random.default_rng(2026)
        checked = 0
        for _ in range(20):
            d_t = int(rng.integers(2, 5))
            d_z = int(rng.integers(3, 7))
            alpha_z = float(rng.integers(1, 5))
            M = float(rng.uniform(8.0, 300.0))
            top = (1 << d_z) - 1
            dj = int(rng.integers(-top, top + 1))
            m = alpha_z * dj / top
            z_exp = BinaryExpansion(d_z, alpha_z, 0.0)
            spec = ReluPenaltySpec(BinaryExpansion(d_t, 1.0, -1.0), z_exp, z_exp, M)
            built = build_cost_plus_relu(QuadraticExpr(),
                                         AffineExpr.from_constant(m), spec)
            t_range = built.var_ranges["t"]
            for _ in range(50):
                j1 = int(rng.integers(max(0, -dj), top - max(0, dj) + 1))
                j2 = j1 + dj
                pattern = ([int(b) for b in rng.integers(0, 2, size=d_t)]
                           + [(j1 >> k) & 1 for k in range(d_z)]
                           + [(j2 >> k) & 1 for k in range(d_z)])
                base = energy(built.model, pattern)
                for i in t_range:
                    flipped = list(pattern)
                    flipped[i] ^= 1
                    assert abs(energy(built.model, flipped) - base) <= 1e-9
                checked += 1
        assert checked == 1000


def test_criterion_3_dual_primal_identity():
    with criterion(3, "dual optimum value negates to the hinge", budget_s=5.0):
        rng = np.random.default_rng(99)
        for m in rng.uniform(-1e6, 1e6, size=100_000):
            assert -wolfe_dual_analytic(float(m)).value == relu_reference(float(m))
        # independent 2-variable grid search over (z1, z2)
        step = 0.01
        for m in rng.uniform(-5.0, 5.0, size=50):
            m = float(m)
            span = float(np.ceil(abs(m))) + 1.0
            z = np.arange(0.0, span + step / 2, step)
            z1g, z2g = np.meshgrid(z, z, indexing="ij")
            feasible = np.abs(-m - z1g + z2g) <= step / 2 + 1e-12
            objective = np.where(feasible, -z1g, -np.inf)
            i, j = np.unravel_index(np.argmax(objective), objective.shape)
            opt = wolfe_dual_analytic(m)
            assert abs(float(z[i]) - opt.z1) <= step + 1e-12
            assert abs(float(z[j]) - opt.z2) <= step + 1e-12
            assert abs(-float(z[i]) - opt.value) <= step + 1e-12


def test_criterion_4_legendre_conjugate():
    with criterion(4, "numerical conjugate flat on [-1, 0], edge growth outside",
                   budget_s=2.0):
        grid = Grid1D(-10.0, 10.0, 0.01)
        for t in np.arange(-10, 1) / 10.0:
            assert legendre_conjugate_num(float(t), grid) == 0.0
        wide = Grid1D(-20.0, 20.0, 0.01)
        for t in (0.1, 0.5):
            v10 = legendre_conjugate_num(t, grid)
            assert v10 == t * 10
            v20 = legendre_conjugate_num(t, wide)
            assert v20 == t * 20
            assert v20 == 2 * v10


def test_criterion_5_qloss_consistency():
    with criterion(5, "q-loss min form matches the closed form", budget_s=10.0):
        t_step = 0.001
        t_grid = Grid1D(-6.0, 6.0, t_step)
        for q in (-0.5, -1.0, -2.0, -4.0):
            for m in np.arange(-5.0, 5.0 + 1e-12, 0.01):
                m = float(m)
                diff = abs(qloss_min_form(m, q, t_grid) - qloss_reference(m, q))
                assert diff <= 2 * t_step * (abs(m) + 5), f"q={q} m={m}: {diff}"
        plateau = qloss_min_form(-10.0, -2.0, Grid1D(-12.0, 7.0, t_step))
        assert plateau == 9.0


def test_criterion_6_ising_roundtrip():
    with criterion(6, "Ising round trip energy-identical on 10-bit models",
                   budget_s=2.0):
        from reluqubo.algebra import ising_from_qubo, qubo_from_ising

        rng = np.random.default_rng(7)
        n = 10
        ks = np.arange(1 << n, dtype=np.int64)
        B = ((ks[:, None] >> np.arange(n)) & 1).astype(np.float64)
        S = 2.0 * B - 1.0
        for _ in range(100):
            linear = {i: float(rng.uniform(-2, 2)) for i in range(n)
                      if rng.random() < 0.7}
            quadratic = {(i, j): float(rng.uniform(-2, 2))
                         for i in range(n) for j in range(i + 1, n)
                         if rng.random() < 0.4}
            q = qubo(n, linear, quadratic, float(rng.uniform(-1, 1)))
            ising = ising_from_qubo(q)
            back = qubo_from_ising(ising)

            Qm = np.zeros((n, n))
            for i, c in q.linear.items():
                Qm[i, i] = c
            for (i, j), c in q.quadratic.items():
                Qm[i, j] = c
            e_q = np.einsum("ij,ij->i", B @ Qm, B) + q.offset

            Jm = np.zeros((n, n))
            hv = np.zeros(n)
            for (i, j), c in ising.J.items():
                Jm[i, j] = c
            for i, c in ising.h.items():
                hv[i] = c
            e_i = ising.offset - np.einsum("ij,ij->i", S @ Jm, S) - S @ hv

            Bm = np.zeros((n, n))
            for i, c in back.linear.items():
                Bm[i, i] = c
            for (i, j), c in back.quadratic.items():
                Bm[i, j] = c
            e_b = np.einsum("ij,ij->i", B @ Bm, B) + back.offset

            scale = np.maximum(1.0, np.abs(e_q))
            assert np.all(np.abs(e_q - e_i) <= 1e-12 * scale)
            assert np.all(np.abs(e_q - e_b) <= 1e-12 * scale)


def test_criterion_7_encoding():
    with criterion(7, "expansions enumerate their grids; quantize is nearest",
                   budget_s=1.0):
        rng = np.random.default_rng(31)
        default_set = [
            BinaryExpansion(4, 1.0, -1.0),
            BinaryExpansion(6, 4.0, 0.0),
            BinaryExpansion(6, 4.0, -4.0),
            BinaryExpansion(6, 8.0, -4.0),
            BinaryExpansion(5, 4.0, -2.0),
            BinaryExpansion(3, 2.0, 1.0 - 2.0 / 2),
            BinaryExpansion(1, 1.0, 0.0),
            BinaryExpansion(2, 2.0, 0.0),
        ]
        for exp in default_set:
            decoded = sorted(
                exp.decode([(j >> k) & 1 for k in range(exp.depth)])
                for j in range(exp.n_levels))
            grid = exp.grid()
            assert len(set(decoded)) == exp.n_levels
            assert np.array_equal(np.array(decoded), grid)
            assert decoded[0] == exp.bounds[0] and decoded[-1] == exp.bounds[1]
            lo, hi = exp.bounds
            for v in rng.uniform(lo - 0.1, hi + 0.1, size=100):
                snapped = exp.decode(exp.quantize(float(v)))
                clamped = min(max(float(v), lo), hi)
                assert abs(snapped - clamped) <= exp.resolution / 2 + 1e-12


@pytest.fixture(scope="module")
def composed_build():
    cfg = reference_config(-2.0)
    cfg["model"]["w"] = {"depth": 5, "alpha": 4.0, "beta": -2.0}
    cfg["cost"] = {"kind": "quadratic", "target": -1.0, "scale": 1.0}
    return build_from_config(cfg)


def test_criterion_8_end_to_end_composition(composed_build):
    with criterion(8, "cost + penalty composition finds the continuous trade-off",
                   budget_s=30.0):
        built = composed_build
        assert built.model.n_vars == 21
        result = exhaustive_solve(built.model)
        # continuous optimum of (m+1)^2 + max(0, -m): derivative
        # 2(m+1) - 1 = 0 gives m = -1/2, value 3/4
        assert abs(result.energy - 0.75) <= 0.25
        m_hat = built.decode(result.assignment)[0]
        assert abs(m_hat - (-0.5)) <= built.linear_spec.w_exp.resolution


def test_criterion_9_sa_agreement(reference_builds):
    with criterion(9, "simulated annealing matches exhaustive minima", budget_s=10.0):
        negative, positive = reference_builds
        instances = []
        for built in (negative, positive):
            w_exp = built.linear_spec.w_exp
            for j in range(0, 64, 7):
                instances.append((built, float(w_exp.grid()[j])))
        assert len(instances) == 20
        hits = 0
        for idx, (built, m) in enumerate(instances):
            bits = built.linear_spec.w_exp.quantize(m)
            fixes = {built.var_ranges["w[0]"][k]: b for k, b in enumerate(bits)}
            sub, _ = fix_bits(built.model, fixes)
            exact = exhaustive_solve(sub)
            config = AnnealConfig(sweeps=2000, beta_initial=0.1, beta_final=10.0,
                                  restarts=16, seed=1000 + idx)
            result = simulated_anneal(sub, config)
            assert result.energy >= exact.energy - 1e-9
            if abs(result.energy - exact.energy) <= 1e-9:
                hits += 1
        assert hits >= 18, f"SA matched exhaustive on only {hits}/20 instances"


def test_criterion_10_export_determinism(reference_builds, composed_build):
    with criterion(10, "export -> parse -> export is byte-identical"):
        models = [built.model for built in reference_builds]
        models.append(composed_build.model)
        minimal = reference_config(-4.0)
        minimal["model"]["w"] = {"depth": 2, "alpha": 2.0, "beta": 0.0}
        models.append(build_from_config(minimal).model)
        multi = reference_config(-4.0)
        multi["model"]["inputs"] = [1.0, -0.5, 2.0]
        models.append(build_from_config(multi).model)
        for model in models:
            first = export_qubo(model)
            second = export_qubo(parse_qubo(first))
            assert second == first
            reparsed = parse_qubo(second)
            for _ in range(3):
                pattern = tuple(int(b) for b in
                                np.random.default_rng(0).integers(0, 2, model.n_vars))
                assert energy(reparsed, pattern) == energy(model, pattern)
