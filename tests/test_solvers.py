"""Tests for exhaustive enumeration and simulated annealing."""

import dataclasses
import errno
import json
import math
import os
import pickle
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import all_assignments, qubo

from reluqubo.algebra import AffineExpr, QuadraticExpr, energy
from reluqubo.encoding import BinaryExpansion
from reluqubo import solvers
from reluqubo.formulation import ReluPenaltySpec, build_cost_plus_relu, build_from_config
from reluqubo.solvers import (
    AnnealConfig,
    BitCapExceeded,
    SolveResult,
    _initial_fields,
    exhaustive_solve,
    exhaustive_solve_many,
    fix_bits,
    simulated_anneal,
)


def random_model(rng, n, density=0.5):
    linear = {i: float(rng.uniform(-2, 2)) for i in range(n) if rng.random() < density}
    quadratic = {(i, j): float(rng.uniform(-2, 2))
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < density}
    return qubo(n, linear, quadratic, float(rng.uniform(-1, 1)))


def relu_instance(m=-1.0, d_t=4, d_z=4, alpha_z=2.0, M=30.0):
    spec = ReluPenaltySpec(
        BinaryExpansion(d_t, 1.0, -1.0),
        BinaryExpansion(d_z, alpha_z, 0.0),
        BinaryExpansion(d_z, alpha_z, 0.0),
        M)
    return build_cost_plus_relu(QuadraticExpr(), AffineExpr.from_constant(m), spec)


class TestExhaustive:
    def test_positive_linear_prefers_zero(self):
        m = qubo(1, {0: 2.0}, {}, offset=0.5)
        res = exhaustive_solve(m)
        assert res.assignment == (0,)
        assert res.energy == 0.5

    def test_two_bit_coupler(self):
        m = qubo(2, {0: 1.0, 1: 1.0}, {(0, 1): -3.0}, 0.0)
        res = exhaustive_solve(m)
        assert res.assignment == (1, 1)
        assert res.energy == -1.0

    def test_relu_instance_minimum_matches_hinge(self):
        built = relu_instance(m=-1.0, alpha_z=1.0)  # z grid hits 1 exactly
        res = exhaustive_solve(built.model)
        assert res.energy == pytest.approx(1.0, abs=1e-9)

    def test_tie_broken_by_lowest_assignment_integer(self):
        m = qubo(2, {0: -1.0, 1: -1.0}, {(0, 1): 2.0}, 0.0)
        res = exhaustive_solve(m)
        # (1,0) and (0,1) tie at -1; integer order prefers bit 0 set
        assert res.assignment == (1, 0)

    def test_empty_tie_prefers_all_zero(self):
        m = qubo(3, {}, {}, offset=7.0)
        res = exhaustive_solve(m)
        assert res.assignment == (0, 0, 0)
        assert res.energy == 7.0

    def test_energy_is_exact_reevaluation(self):
        rng = np.random.default_rng(2)
        m = random_model(rng, 9)
        res = exhaustive_solve(m)
        assert res.energy == energy(m, res.assignment)

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(4)
        m = random_model(rng, 8)
        res = exhaustive_solve(m)
        naive = min(energy(m, tuple((k >> i) & 1 for i in range(8)))
                    for k in range(256))
        assert res.energy == pytest.approx(naive, abs=1e-12)

    def test_planted_minimum_across_chunks(self):
        # 19 free bits forces the chunked path (chunk size 2^18)
        rng = np.random.default_rng(6)
        n = 19
        target = tuple(int(b) for b in rng.integers(0, 2, size=n))
        linear = {i: (1.0 if target[i] == 0 else -1.0) for i in range(n)}
        m = qubo(n, linear, {}, offset=float(sum(target)))
        res = exhaustive_solve(m)
        assert res.assignment == target
        assert res.energy == 0.0

    def test_fixed_bits_restrict_search(self):
        m = qubo(2, {0: -1.0, 1: -1.0}, {(0, 1): 5.0}, 0.0)
        res = exhaustive_solve(m, fixed={0: 1})
        assert res.assignment == (1, 0)
        assert res.energy == -1.0

    def test_fixed_all_bits(self):
        m = qubo(2, {0: 1.0}, {(0, 1): 1.0}, 0.5)
        res = exhaustive_solve(m, fixed={0: 1, 1: 1})
        assert res.assignment == (1, 1)
        assert res.energy == 2.5

    def test_float_and_bool_pins_lift_as_int(self):
        m = qubo(3, {1: -1.0}, {(0, 2): 1.0}, 0.0)
        fixed = {0: 1.0, 2: True}
        for res in (exhaustive_solve(m, fixed=fixed),
                    simulated_anneal(m, AnnealConfig(sweeps=5, restarts=1), fixed=fixed)):
            assert [type(b) for b in res.assignment] == [int, int, int]
            assert res.to_json_dict()["assignment"] == "111"
            assert res.energy == 0.0

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("RELUQUBO_BIT_CAP", "7")
        m = qubo(8, {}, {}, 0.0)
        with pytest.raises(BitCapExceeded):
            exhaustive_solve(m)

    def test_env_overrides_cap(self, monkeypatch):
        monkeypatch.setenv("RELUQUBO_BIT_CAP", "3")
        m = qubo(4, {}, {}, 0.0)
        with pytest.raises(BitCapExceeded):
            exhaustive_solve(m)
        assert exhaustive_solve(m, fixed={0: 0}).energy == 0.0


def naive_minimum(model, fixed):
    """(energy, assignment) of the lowest free-bit integer among the minima,
    by plain enumeration and energy()."""
    free = [i for i in range(model.n_vars) if i not in fixed]
    best = None
    for free_bits in all_assignments(len(free)):
        bits = dict(fixed)
        bits.update(zip(free, free_bits))
        pattern = tuple(bits[i] for i in range(model.n_vars))
        e = energy(model, pattern)
        if best is None or e < best[0]:
            best = (e, pattern)
    return best


@st.composite
def models_with_fixed(draw):
    """Random dense-ish QUBOs over n in [0, 12] with a random pinned subset;
    integer coefficients (exact float sums) or arbitrary reals."""
    n = draw(st.integers(0, 12))
    integer = draw(st.booleans())
    coeff = (st.integers(-3, 3).map(float) if integer
             else st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    linear = {i: draw(coeff) for i in range(n) if draw(st.booleans())}
    quadratic = {p: draw(coeff) for p in pairs if draw(st.booleans())}
    fixed = {i: draw(st.integers(0, 1)) for i in range(n) if draw(st.booleans())}
    return qubo(n, linear, quadratic, draw(coeff)), fixed, integer


class TestSplitKernel:
    @settings(max_examples=100, deadline=None)
    @given(models_with_fixed())
    def test_matches_naive_enumeration(self, case):
        model, fixed, integer = case
        res = exhaustive_solve(model, fixed=fixed)
        naive_e, naive_pattern = naive_minimum(model, fixed)
        coeffs = [model.offset, *model.linear.values(), *model.quadratic.values()]
        scale = 1.0 + sum(map(abs, coeffs))
        assert abs(res.energy - naive_e) <= 1e-9 * scale
        assert all(res.assignment[i] == b for i, b in fixed.items())
        if integer:  # float sums are exact, so ties are exact too
            assert res.assignment == naive_pattern
            assert res.energy == naive_e

    def test_planted_tie_across_chunks_prefers_lower_integer(self):
        # 20 free bits: lo = bits 0..9, hi = bits 10..19, chunks of 2^8 hi rows.
        # Bits 1..18 are pinned to a target by their linear terms; bits 0 and
        # 19 tie between (1, 0) and (0, 1), which sit in hi chunks 0 and 2.
        n = 20
        rng = np.random.default_rng(11)
        target = [int(b) for b in rng.integers(0, 2, size=n)]
        linear = {i: (1.0 if target[i] == 0 else -1.0) for i in range(1, n - 1)}
        linear[0] = linear[n - 1] = -1.0
        model = qubo(n, linear, {(0, n - 1): 2.0}, 0.0)
        res = exhaustive_solve(model)
        assert res.assignment == (1, *target[1:n - 1], 0)
        assert res.energy == -1.0 - sum(target[1:n - 1])

    def test_pinned_large_sparse_chain(self):
        # 20,000-variable chain, all but 10 bits pinned: the pinned solve must
        # agree with fix_bits + naive enumeration and stay far below the
        # n_vars^2 floats (3.2 GB) a dense full-model matrix would take.
        n = 20_000
        rng = np.random.default_rng(12)
        linear = {i: float(c) for i, c in enumerate(rng.integers(-3, 4, size=n))}
        quadratic = {(i, i + 1): float(c)
                     for i, c in enumerate(rng.integers(-3, 4, size=n - 1))}
        model = qubo(n, linear, quadratic, 0.5)
        free = [0, 1, 2, 5000, 5001, 9999, 12345, 15000, 19998, 19999]
        fixed = {i: int(b) for i, b in enumerate(rng.integers(0, 2, size=n))
                 if i not in free}

        tracemalloc.start()
        try:
            res = exhaustive_solve(model, fixed=fixed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

        sub, sub_free = fix_bits(model, fixed)
        assert sub_free == free
        naive_e, naive_bits = naive_minimum(sub, {})
        assert res.energy == naive_e
        assert tuple(res.assignment[i] for i in free) == naive_bits


@st.composite
def models_with_families(draw):
    """A random model, a random pinned set and 1-8 patterns over it, with
    duplicates and each pattern's keys in a random order."""
    model, fixed, _ = draw(models_with_fixed())
    pinned = sorted(fixed)
    distinct = draw(st.lists(st.lists(st.integers(0, 1), min_size=len(pinned),
                                      max_size=len(pinned)), min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=8))
    fixes = [dict(draw(st.permutations(list(zip(pinned, bits))))) for bits in picks]
    return model, fixes


class TestExhaustiveSolveMany:
    @settings(max_examples=100, deadline=None)
    @given(models_with_families())
    def test_each_pattern_matches_single_solve(self, case):
        model, fixes = case
        results = exhaustive_solve_many(model, fixes)
        assert len(results) == len(fixes)
        for fixed, res in zip(fixes, results):
            single = exhaustive_solve(model, fixed=fixed)
            assert res.assignment == single.assignment
            assert res.energy == single.energy

    def test_readme_sweep_family_matches_single_solves(self):
        built = build_from_config({
            "cost": {"kind": "quadratic", "target": 0.5, "scale": 0.25},
            "model": {"inputs": [1.0], "w": {"depth": 6, "alpha": 8.0, "beta": -4.0}},
            "penalty": {"t": {"depth": 4, "alpha": 1.0, "beta": -1.0},
                        "z1": {"depth": 6, "alpha": 4.0, "beta": 0.0},
                        "z2": {"depth": 6, "alpha": 4.0, "beta": 0.0},
                        "M": "auto"}})
        w_range, w_exp = built.var_ranges["w[0]"], built.linear_spec.w_exp
        fixes = [dict(zip(w_range, w_exp.quantize(m))) for m in np.arange(-4.0, 4.01, 0.1)]
        for fixed, res in zip(fixes, exhaustive_solve_many(built.model, fixes)):
            single = exhaustive_solve(built.model, fixed=fixed)
            assert (res.assignment, res.energy) == (single.assignment, single.energy)

    def test_duplicates_share_one_solve(self):
        model = qubo(3, {0: 1.0, 1: -1.0, 2: 0.5}, {(0, 1): -2.0, (1, 2): 1.0}, 0.0)
        results = exhaustive_solve_many(model, [{0: 1}, {0: 0}, {0: 1}])
        assert results[0] is results[2]
        assert results[0].assignment == (1, 1, 0)
        assert results[1].assignment == (0, 1, 0)

    def test_empty_family(self):
        assert exhaustive_solve_many(qubo(2, {}, {}, 0.0), []) == []

    def test_mismatched_pinned_sets_rejected(self):
        model = qubo(3, {}, {}, 0.0)
        with pytest.raises(ValueError, match="same indices"):
            exhaustive_solve_many(model, [{0: 1, 1: 0}, {0: 1, 2: 0}])
        with pytest.raises(ValueError, match="same indices"):
            exhaustive_solve_many(model, [{0: 1}, {0: 1, 1: 1}])

    @pytest.mark.parametrize("bad", [{5: 1}, {0: 2}, {1: 0, 0: "1"}, {-1: 0}])
    def test_bad_pattern_message_matches_single_calls(self, bad):
        model = qubo(2, {}, {}, 0.0)
        with pytest.raises(ValueError) as single:
            exhaustive_solve(model, fixed=bad)
        with pytest.raises(ValueError) as reduced:
            fix_bits(model, bad)
        good = {i: 0 for i in bad}
        with pytest.raises(ValueError) as family:
            exhaustive_solve_many(model, [good, bad])
        assert str(family.value) == str(single.value) == str(reduced.value)

    def test_cap_checked_for_family(self, monkeypatch):
        model = qubo(10, {}, {}, 0.0)
        monkeypatch.setenv("RELUQUBO_BIT_CAP", "8")
        with pytest.raises(BitCapExceeded):
            exhaustive_solve_many(model, [{0: 0}, {0: 1}])
        monkeypatch.setenv("RELUQUBO_BIT_CAP", "9")
        assert len(exhaustive_solve_many(model, [{0: 0}, {0: 1}])) == 2

    def test_family_memory_stays_per_pattern(self):
        # 64 patterns over 6 pinned bits, 20 free bits: a table of
        # patterns x 2^20 energies would take 512 MB.
        rng = np.random.default_rng(13)
        model = random_model(rng, 26, density=0.3)
        fixes = [{i: (k >> i) & 1 for i in range(6)} for k in range(64)]
        tracemalloc.start()
        try:
            results = exhaustive_solve_many(model, fixes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        for k in (0, 37, 63):
            assert results[k].assignment == exhaustive_solve(model, fixed=fixes[k]).assignment


class TestFixBits:
    @pytest.mark.parametrize("seed", range(3))
    def test_reduction_preserves_energy(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, 8)
        fixed = {0: 1, 3: 0, 7: 1}
        sub, free = fix_bits(m, fixed)
        assert sub.n_vars == 5
        assert free == [1, 2, 4, 5, 6]
        for _ in range(30):
            free_bits = [int(b) for b in rng.integers(0, 2, size=5)]
            full = dict(fixed)
            for k, orig in enumerate(free):
                full[orig] = free_bits[k]
            pattern = tuple(full[i] for i in range(8))
            assert energy(sub, free_bits) == pytest.approx(energy(m, pattern), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(models_with_fixed(), st.data())
    def test_reduced_energy_equals_lifted_energy(self, case, data):
        model, fixed, integer = case
        sub, free = fix_bits(model, fixed)
        free_bits = data.draw(st.lists(st.integers(0, 1), min_size=len(free),
                                       max_size=len(free)))
        bits = dict(fixed)
        bits.update(zip(free, free_bits))
        full = energy(model, tuple(bits[i] for i in range(model.n_vars)))
        if integer:  # float sums of small integers are exact
            assert energy(sub, free_bits) == full
        else:
            coeffs = [model.offset, *model.linear.values(), *model.quadratic.values()]
            assert abs(energy(sub, free_bits) - full) <= 1e-9 * (1.0 + sum(map(abs, coeffs)))

    def test_labels_follow_free_vars(self):
        m = qubo(3, {}, {}, 0.0, labels=["a", "b", "c"])
        sub, free = fix_bits(m, {1: 0})
        assert sub.labels == ["a", "c"]

    def test_invalid_fixed_rejected(self):
        m = qubo(2, {}, {}, 0.0)
        with pytest.raises(ValueError):
            fix_bits(m, {5: 1})
        with pytest.raises(ValueError):
            fix_bits(m, {0: 2})


class TestAnnealConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealConfig(sweeps=0)
        with pytest.raises(ValueError):
            AnnealConfig(beta_initial=0.0)
        with pytest.raises(ValueError):
            AnnealConfig(beta_initial=2.0, beta_final=1.0)
        with pytest.raises(ValueError):
            AnnealConfig(restarts=0)

    @pytest.mark.parametrize("b0, b1", [(math.inf, math.inf), (1.0, math.inf),
                                        (math.nan, 1.0), (0.1, math.nan), (5e-324, 1.0)])
    def test_non_finite_betas_rejected(self, b0, b1):
        # inf / inf makes the ladder's ratio nan, and exp(-nan) accepts every move;
        # 1 / 5e-324 overflows, so the ladder would be [5e-324, inf, inf, ...]
        with pytest.raises(ValueError, match="finite ratio"):
            AnnealConfig(beta_initial=b0, beta_final=b1)

    def test_geometric_schedule(self):
        cfg = AnnealConfig(sweeps=5, beta_initial=0.1, beta_final=10.0)
        sched = list(cfg.schedule())
        assert sched[0] == pytest.approx(0.1)
        assert sched[-1] == pytest.approx(10.0)
        ratios = [b / a for a, b in zip(sched, sched[1:])]
        assert all(r == pytest.approx(ratios[0]) for r in ratios)


class TestSimulatedAnneal:
    CFG = AnnealConfig(sweeps=2000, beta_initial=0.1, beta_final=10.0,
                       restarts=16, seed=42)

    def test_trivial_model_returns_offset(self):
        m = qubo(5, {}, {}, offset=3.25)
        res = simulated_anneal(m, AnnealConfig(sweeps=10, restarts=2, seed=1))
        assert res.energy == 3.25
        assert res.restart_energies == [3.25, 3.25]

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_broken_by_lowest_assignment_integer(self, seed):
        # the three one-hot states tie at -1; integer order prefers bit 0 set
        m = qubo(3, {0: -1.0, 1: -1.0, 2: -1.0}, {(0, 1): 2.0, (0, 2): 2.0, (1, 2): 2.0})
        res = simulated_anneal(m, AnnealConfig(sweeps=20, restarts=12, seed=seed))
        assert res.assignment == (1, 0, 0)
        assert res.energy == -1.0

    def test_relu_instance_most_restarts_hit_optimum(self):
        built = relu_instance()  # 12 free bits
        exact = exhaustive_solve(built.model)
        res = simulated_anneal(built.model, self.CFG)
        hits = sum(1 for e in res.restart_energies
                   if abs(e - exact.energy) <= 1e-9)
        assert hits >= 14
        assert res.energy == pytest.approx(exact.energy, abs=1e-9)

    def test_same_seed_reproduces_result(self):
        built = relu_instance(m=0.5)
        cfg = AnnealConfig(sweeps=200, restarts=4, seed=7)
        a = simulated_anneal(built.model, cfg)
        b = simulated_anneal(built.model, cfg)
        assert a.assignment == b.assignment
        assert a.energy == b.energy
        assert a.restart_energies == b.restart_energies

    def test_never_below_exhaustive_minimum(self):
        rng = np.random.default_rng(14)
        for seed in range(5):
            m = random_model(rng, 8)
            exact = exhaustive_solve(m)
            res = simulated_anneal(m, AnnealConfig(sweeps=100, restarts=4, seed=seed))
            assert res.energy >= exact.energy - 1e-12

    @pytest.mark.parametrize("fixed", [None, {0: 1, 1: 0}])
    def test_no_free_bits_returns_the_offset(self, fixed):
        # the empty walk runs the general path: no sweep has a bit to flip
        m = qubo(0, {}, {}, 2.5) if fixed is None else qubo(2, {0: 1.5}, {(0, 1): 4.0}, 1.0)
        res = simulated_anneal(m, AnnealConfig(sweeps=5, restarts=3, seed=1), fixed=fixed)
        assert res.assignment == (() if fixed is None else (1, 0))
        assert res.energy == 2.5
        assert res.restart_energies == [2.5] * 3

    def test_reported_energy_is_exact(self):
        rng = np.random.default_rng(18)
        m = random_model(rng, 9)
        res = simulated_anneal(m, AnnealConfig(sweeps=50, restarts=2, seed=0))
        assert res.energy == energy(m, res.assignment)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fixed_matches_reduce_anneal_lift(self, seed):
        """fixed= equals fix_bits, then annealing the reduced model, then lifting."""
        built = build_from_config({   # the README config: 22 vars, w on [-4, 4]
            "cost": {"kind": "quadratic", "target": 0.0, "scale": 0.0},
            "model": {"inputs": [1.0], "w": {"depth": 6, "alpha": 8.0, "beta": -4.0}},
            "penalty": {"t": {"depth": 4, "alpha": 1.0, "beta": -1.0},
                        "z1": {"depth": 6, "alpha": 4.0, "beta": 0.0},
                        "z2": {"depth": 6, "alpha": 4.0, "beta": 0.0},
                        "M": "auto"}})
        model, w_range = built.model, built.var_ranges["w[0]"]
        cfg = AnnealConfig(sweeps=100, restarts=3, seed=seed)
        for k in (0, 21, 40, 63):
            fixed = {i: (k >> b) & 1 for b, i in enumerate(w_range)}
            sub, free = fix_bits(model, fixed)
            ref = simulated_anneal(sub, cfg)
            bits = dict(fixed)
            bits.update(zip(free, ref.assignment))
            ref_assignment = tuple(bits[i] for i in range(model.n_vars))

            res = simulated_anneal(model, cfg, fixed=fixed)
            assert res.assignment == ref_assignment
            assert res.energy == energy(model, ref_assignment)
            assert res.restart_energies == ref.restart_energies

    def test_schedule_memory_independent_of_sweeps(self):
        # 200,000 betas as a list take ~6 MB; drawn one at a time they take none
        m = qubo(1, {0: 1.0}, {}, 0.0)
        tracemalloc.start()
        try:
            res = simulated_anneal(m, AnnealConfig(sweeps=200_000, restarts=1, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.assignment == (0,)
        assert peak < 2 ** 20

    def test_json_dict_excludes_wall_time(self):
        m = qubo(2, {0: 1.0}, {}, 0.0)
        res = simulated_anneal(m, AnnealConfig(sweeps=10, restarts=1, seed=0))
        d = res.to_json_dict()
        assert set(d) == {"solver", "n_vars", "energy", "assignment", "restart_energies"}
        assert d["assignment"] == "".join(str(b) for b in res.assignment)


def reference_anneal(model, config, fixed=None):
    """simulated_anneal with the local fields updated by a Python loop over
    each flipped bit's neighbours: the reference for the dense-row update."""
    if fixed:
        sub, free = fix_bits(model, fixed)
        result = reference_anneal(sub, config)
        bits = {i: int(b) for i, b in fixed.items()}
        bits.update(zip(free, result.assignment))
        assignment = tuple(bits[i] for i in range(model.n_vars))
        return SolveResult(assignment, energy(model, assignment), result.restart_energies,
                           "sa", 0.0)
    n = model.n_vars
    if n == 0:
        return SolveResult((), model.offset, [model.offset] * config.restarts, "sa", 0.0)
    lin = [0.0] * n
    for i, c in model.linear.items():
        lin[i] = c
    adj = [[] for _ in range(n)]
    for (i, j), c in model.quadratic.items():
        adj[i].append((j, c))
        adj[j].append((i, c))
    restart_best = []
    for r in range(config.restarts):
        rng = random.Random(config.seed + r)
        b = [rng.randrange(2) for _ in range(n)]
        f = []
        for i in range(n):
            s = 0.0  # left to right: sum() compensates from Python 3.12 on
            for j, c in adj[i]:
                if b[j]:
                    s += c
            f.append(lin[i] + s)
        e = energy(model, b)
        best_e, best_b = e, list(b)
        for beta in config.schedule():
            for i in range(n):
                de = -f[i] if b[i] else f[i]
                if de > 0.0:
                    bde = beta * de
                    if bde > 40.0 or rng.random() >= math.exp(-bde):
                        continue
                s = -1 if b[i] else 1
                b[i] ^= 1
                e += de
                for j, c in adj[i]:
                    f[j] += s * c
                if e < best_e:
                    best_e = e
                    best_b = list(b)
        restart_best.append((energy(model, best_b), tuple(best_b)))
    best_e, best_b = min(restart_best,
                         key=lambda p: (p[0], sum(bit << i for i, bit in enumerate(p[1]))))
    return SolveResult(best_b, best_e, [e for e, _ in restart_best], "sa", 0.0)


@st.composite
def anneal_cases(draw):
    """Models on both sides of the dense-row threshold (mean degree 8):
    complete graphs over 9-40 vars, chains, rings, random graphs and n = 1;
    integer coefficients (whose sums cancel to exact zeros) or reals; an
    optional pinned subset; a short schedule.  Coefficients come from a
    drawn seed, so a complete graph does not fill hypothesis's buffer."""
    kind = draw(st.sampled_from(["complete", "chain", "ring", "random", "single"]))
    n = draw({"complete": st.integers(9, 40), "chain": st.integers(2, 60),
              "ring": st.integers(3, 60), "random": st.integers(2, 24),
              "single": st.just(1)}[kind])
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        def coeff():
            return float(rng.randint(-3, 3))
    else:
        def coeff():
            return rng.uniform(-4.0, 4.0)
    if kind == "complete":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif kind in ("chain", "ring"):
        pairs = [(i, i + 1) for i in range(n - 1)] + ([(0, n - 1)] if kind == "ring" else [])
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    linear = {i: coeff() for i in range(n) if rng.random() < 0.7}
    model = qubo(n, linear, {p: coeff() for p in pairs}, coeff())
    fixed = {}
    if draw(st.booleans()):
        fixed = {i: rng.randrange(2) for i in range(n) if rng.random() < 0.3}
    config = AnnealConfig(sweeps=draw(st.integers(1, 30)),
                          beta_initial=draw(st.sampled_from([0.05, 0.1, 1.0])),
                          beta_final=draw(st.sampled_from([1.0, 3.0, 10.0])),
                          restarts=draw(st.integers(1, 3)), seed=draw(st.integers(0, 10 ** 6)))
    return model, fixed, config


class TestDenseRows:
    @settings(max_examples=80, deadline=None)
    @given(anneal_cases())
    def test_matches_neighbour_loop_reference(self, case):
        model, fixed, config = case
        res = simulated_anneal(model, config, fixed=fixed)
        ref = reference_anneal(model, config, fixed=fixed)
        assert res.to_json_dict() == ref.to_json_dict()

    def test_large_sparse_chain_builds_no_dense_matrix(self):
        # a 20,000-variable chain has mean degree 2: the neighbour loop runs,
        # and the 20,000^2 matrix (3.2 GB) is never allocated
        n = 20_000
        rng = np.random.default_rng(13)
        linear = {i: float(c) for i, c in enumerate(rng.integers(-3, 4, size=n))}
        quadratic = {(i, i + 1): float(c)
                     for i, c in enumerate(rng.integers(-3, 4, size=n - 1))}
        model = qubo(n, linear, quadratic, 0.5)
        tracemalloc.start()
        try:
            res = simulated_anneal(model, AnnealConfig(sweeps=1, restarts=1, seed=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert res.energy == energy(model, res.assignment)


def fan_out_on(monkeypatch, cpus):
    """Annealing calls of any size split their restarts over cpus workers."""
    monkeypatch.setattr(solvers, "_FORK_MIN_PROPOSALS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def assert_no_children():
    # a zombie or a running child would be reaped or reported, not raise
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFanOut:
    @settings(max_examples=60, deadline=None)
    @given(anneal_cases(), st.integers(2, 5), st.integers(1, 4))
    def test_matches_reference_bytes(self, case, restarts, cpus):
        model, fixed, config = case
        config = dataclasses.replace(config, restarts=restarts)
        with pytest.MonkeyPatch.context() as mp:
            fan_out_on(mp, cpus)
            res = simulated_anneal(model, config, fixed=fixed)
        assert_no_children()
        ref = reference_anneal(model, config, fixed=fixed)
        assert json.dumps(res.to_json_dict()) == json.dumps(ref.to_json_dict())

    @pytest.mark.parametrize("failure, parent_walks", [
        (None, 1), ("fork", 3), ("exit", 3), ("truncated", 3)])
    def test_failed_share_runs_in_the_parent(self, monkeypatch, failure, parent_walks):
        model = relu_instance().model
        config = AnnealConfig(sweeps=30, restarts=5, seed=3)
        want = json.dumps(simulated_anneal(model, config).to_json_dict())  # one process
        fan_out_on(monkeypatch, 3)
        parent, calls, walk = os.getpid(), [], solvers._walk

        def counted(*args):
            if os.getpid() == parent:
                calls.append(args[-1])
            elif failure == "exit":
                os._exit(3)
            return walk(*args)

        def no_fork():
            raise OSError(errno.EAGAIN, "fork refused")

        def truncated(obj, fh, protocol):
            fh.write(pickle.dumps(obj, protocol)[:-3])

        monkeypatch.setattr(solvers, "_walk", counted)
        if failure == "fork":
            monkeypatch.setattr(os, "fork", no_fork)
        elif failure == "truncated":
            monkeypatch.setattr(pickle, "dump", truncated)
        assert json.dumps(simulated_anneal(model, config).to_json_dict()) == want
        assert_no_children()
        assert calls == [range(k, 5, 3) for k in range(parent_walks)]

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_no_child_outlives_a_walk_that_raises(self, monkeypatch, error):
        fan_out_on(monkeypatch, 3)
        parent = os.getpid()

        def walk(*args):
            if os.getpid() == parent:
                raise error("walk failed")
            time.sleep(60)  # the parent kills it long before

        monkeypatch.setattr(solvers, "_walk", walk)
        t0 = time.monotonic()
        with pytest.raises(error):
            simulated_anneal(relu_instance().model, AnnealConfig(sweeps=10, restarts=4))
        assert_no_children()
        assert time.monotonic() - t0 < 30

    @pytest.mark.parametrize("cpus, sweeps", [(1, 2000), (4, 10)])
    def test_one_cpu_or_a_small_call_forks_nothing(self, monkeypatch, cpus, sweeps):
        # 12 vars x 4 restarts: 2000 sweeps pass _FORK_MIN_PROPOSALS, 10 do not
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        res = simulated_anneal(relu_instance().model, AnnealConfig(sweeps=sweeps, restarts=4))
        assert len(res.restart_energies) == 4


class TestInitialFields:
    @settings(max_examples=100, deadline=None)
    @given(anneal_cases(), st.integers(0, 2 ** 32))
    def test_matches_neighbour_loop(self, case, seed):
        # the loop both update rules used to start from: each field sums its
        # couplings to set bits in neighbour-ascending order, then adds its
        # linear term; hex() also tells -0.0 from 0.0
        model = case[0]
        n = model.n_vars
        adj = [[] for _ in range(n)]
        for (i, j), c in model.quadratic.items():
            adj[i].append((j, c))
            adj[j].append((i, c))
        rng = random.Random(seed)
        for _ in range(5):
            b = [rng.randrange(2) for _ in range(n)]
            want = []
            for i in range(n):
                s = 0.0
                for j, c in adj[i]:
                    if b[j]:
                        s += c
                want.append(model.linear.get(i, 0.0) + s)
            assert [x.hex() for x in _initial_fields(model, b).tolist()] == \
                [x.hex() for x in want]


def loop_energy(model, bits):
    """energy() as a Python loop: the offset, then the linear terms by
    index, then the couplings by key, added one at a time."""
    total = model.offset
    for i, c in model.linear.items():
        if bits[i]:
            total += c
    for (i, j), c in model.quadratic.items():
        if bits[i] and bits[j]:
            total += c
    return total


class TestEnergyTerms:
    @settings(max_examples=100, deadline=None)
    @given(anneal_cases(), st.sampled_from([None, 0.0, -0.0]), st.integers(0, 2 ** 32))
    def test_matches_energy_exactly(self, case, offset, seed):
        # annealing's restart energies; hex() also tells -0.0 from 0.0
        model = case[0]
        if offset is not None:
            model = qubo(model.n_vars, model.linear, model.quadratic, offset)
        rng = random.Random(seed)
        for _ in range(5):
            bits = [rng.randrange(2) for _ in range(model.n_vars)]
            assert energy(model, bits).hex() == loop_energy(model, bits).hex()

    def test_view_lists_linear_then_couplings_in_key_order(self):
        model = qubo(3, {2: 1.5, 0: -1.0}, {(1, 2): 3.0, (0, 2): 2.0, (0, 1): -0.5})
        i, j, c = model.terms
        assert list(zip(i.tolist(), j.tolist(), c.tolist())) == [
            (0, 0, -1.0), (2, 2, 1.5), (0, 1, -0.5), (0, 2, 2.0), (1, 2, 3.0)]
