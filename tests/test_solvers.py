"""Tests for exhaustive enumeration and simulated annealing."""

import dataclasses
import json
import math
import os
import random
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import qubo

from reluqubo.algebra import energy
from reluqubo.encoding import BinaryExpansion
from reluqubo import solvers
from reluqubo.formulation import ReluPenaltySpec, build_cost_plus_relu, build_from_config
from reluqubo.solvers import (
    AnnealConfig,
    BitCapExceeded,
    SolveResult,
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
    return build_cost_plus_relu(spec, m)


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
        # 19 uncoupled free bits: every one is summed out, none enumerated
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

    @pytest.mark.parametrize("raw", ["-1", "x", ""])
    def test_cap_must_be_a_non_negative_integer(self, monkeypatch, raw):
        monkeypatch.setenv("RELUQUBO_BIT_CAP", raw)
        with pytest.raises(ValueError) as exc:
            exhaustive_solve(qubo(1, {}, {}, 0.0))
        assert str(exc.value) == f"RELUQUBO_BIT_CAP must be an integer >= 0, got {raw!r}"

    def test_zero_cap_allows_a_fully_pinned_solve(self, monkeypatch):
        monkeypatch.setenv("RELUQUBO_BIT_CAP", "0")
        m = qubo(1, {0: 2.0}, {}, 0.0)
        assert exhaustive_solve(m, fixed={0: 1}).energy == 2.0
        with pytest.raises(BitCapExceeded):
            exhaustive_solve(m)


def naive_minimum(model, fixed):
    """(energy, assignment) of the lowest free-bit integer among the minima,
    by plain enumeration: every free-bit state's energy at once as s·Q·sᵀ
    plus the offset (exact for integer coefficients), the first minimum in
    integer order, and its energy re-evaluated by energy()."""
    free = [i for i in range(model.n_vars) if i not in fixed]
    states = np.zeros((1 << len(free), model.n_vars))
    for i, b in fixed.items():
        states[:, i] = b
    states[:, free] = (np.arange(1 << len(free))[:, None] >> np.arange(len(free))) & 1
    Q = np.zeros((model.n_vars, model.n_vars))
    i, j, c = model.terms
    Q[i, j] = c
    energies = model.offset + ((states @ Q) * states).sum(axis=1)
    pattern = tuple(int(b) for b in states[int(np.argmin(energies))])
    return energy(model, pattern), pattern


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
        # Bits 1..18 are pinned to a target by their linear terms and summed
        # out; bits 0 and 19 tie between (1, 0) and (0, 1).  Bit 0 is summed
        # out too, so only bit 19 is enumerated.
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


def squares_model(n, forms, linear=(), quadratic=()):
    """QUBO over n bits of sum (v·x - c)^2 over the (v, c) pairs of forms,
    plus extra linear and quadratic terms; integer coefficients, so every
    float sum is exact."""
    W = sum(np.outer(v, v) for v, _ in forms)
    lin = np.diag(W) - 2 * sum(c * np.asarray(v) for v, c in forms)
    lin_terms = {i: float(lin[i]) for i in range(n) if lin[i]}
    quad_terms = {(i, j): float(2 * W[i, j]) for i in range(n) for j in range(i + 1, n)
                  if W[i, j]}
    lin_terms.update(linear)
    quad_terms.update(quadratic)
    return qubo(n, lin_terms, quad_terms, float(sum(c * c for _, c in forms)))


def unit(n, i):
    return np.eye(n, dtype=int)[i]


def minned(model, fixed=None):
    """Model indices that the exhaustive kernel sums out."""
    fixed = fixed or {}
    free = solvers._free_bits(model, [fixed])
    (k, l, c), _, _ = solvers._fold(model, free, [fixed])
    Q = np.zeros((len(free), len(free)))
    Q[k, l] = c
    return [free[s] for s in np.flatnonzero(solvers._min_out_set((Q + Q.T) != 0))]


class TestMinOut:
    """The kernel sums out pairwise-uncoupled free bits and enumerates the rest."""

    def test_planted_minimum_on_a_dense_model_across_chunks(self):
        # (w·(x - t))^2 + |x - t|^2 couples every pair, so one bit is summed
        # out and 20 are enumerated: lo 10 bits, hi 10 bits in 16 chunks
        n = 21
        rng = np.random.default_rng(21)
        target = rng.integers(0, 2, size=n)
        target[-4:] = 1  # the top hi bits: the minimum sits in the last chunk
        w = rng.integers(1, 4, size=n)
        model = squares_model(n, [(w, int(w @ target))]
                              + [(unit(n, i), int(target[i])) for i in range(n)])
        assert minned(model) == [0]
        res = exhaustive_solve(model)
        assert res.assignment == tuple(target.tolist())
        assert res.energy == 0.0

    def test_planted_tie_on_a_dense_model_keeps_the_earlier_chunk(self):
        # every bit but 1 and 19 sits at its target; x1 + x19 = 1 ties
        # (1, 0) against (0, 1), which sit in different hi chunks
        n = 21
        rng = np.random.default_rng(22)
        target = rng.integers(0, 2, size=n)
        rest = [i for i in range(n) if i not in (1, 19)]
        w = np.zeros(n, dtype=int)
        w[rest] = rng.integers(1, 4, size=len(rest))
        w[[1, 19]] = 1
        pair = unit(n, 1) + unit(n, 19)
        model = squares_model(n, [(w, int(w[rest] @ target[rest]) + 1), (pair, 1)]
                              + [(unit(n, i), int(target[i])) for i in rest])
        assert minned(model) == [0]
        res = exhaustive_solve(model)
        expect = target.copy()
        expect[[1, 19]] = 1, 0
        assert res.assignment == tuple(expect.tolist())
        assert res.energy == 0.0

    def test_tie_decided_by_a_summed_out_top_bit(self):
        # Bits 0..19: a dense planted model, zero only at t, with t19 = 1 and
        # weight 1 on bit 19, so every x with x19 = 0 has energy >= 2.  Bit 20
        # has field -2 + 3·x19: summed out, it lowers every x19 = 0 state by
        # 2, so the x19 = 0 states at 2 tie at 0 with bit 20 set, in the
        # lower half of the hi chunks, against (t, 0) in the upper half.
        # (t, 0) is the lowest integer, as bit 20 is the highest bit that
        # differs, so the first tie found must give way to a later one.
        n, core = 21, 20
        rng = np.random.default_rng(23)
        target = np.append(rng.integers(0, 2, size=core), 0)
        target[core - 1] = 1
        w = np.append(rng.integers(1, 4, size=core), 0)
        w[core - 1] = 1
        model = squares_model(n, [(w, int(w @ target))]
                              + [(unit(n, i), int(target[i])) for i in range(core)],
                              linear={core: -2.0}, quadratic={(core - 1, core): 3.0})
        assert minned(model) == [0, core]
        res = exhaustive_solve(model)
        assert res.assignment == tuple(target.tolist())
        assert res.energy == 0.0
        # the x19 = 0 ties really are there
        flipped = target.copy()
        flipped[[core - 1, core]] = 0, 1
        assert energy(model, tuple(flipped.tolist())) == 0.0

    @pytest.mark.parametrize("depths, cost_scale, pinned", [
        ((7, 3, 7), 1.0, False),  # exhaustive_full's model: 3 of 24 free bits
        ((6, 4, 6), 0.0, True),   # the README model, w pinned as verify and sweep pin it
    ], ids=["unpinned-24", "readme-w-pinned"])
    def test_built_models_sum_out_their_t_bits(self, depths, cost_scale, pinned):
        d_w, d_t, d_z = depths
        built = build_from_config({
            "cost": {"kind": "quadratic", "target": -1.0, "scale": cost_scale},
            "model": {"inputs": [1.0], "w": {"depth": d_w, "alpha": 8.0, "beta": -4.0}},
            "penalty": {"t": {"depth": d_t, "alpha": 1.0, "beta": -1.0},
                        "z1": {"depth": d_z, "alpha": 4.0, "beta": 0.0},
                        "z2": {"depth": d_z, "alpha": 4.0, "beta": 0.0}, "M": "auto"}})
        fixed = {i: 0 for i in built.var_ranges["w[0]"]} if pinned else {}
        assert minned(built.model, fixed) == list(built.var_ranges["t"])

    def test_empty_graph_sums_out_every_bit(self):
        model = qubo(5, {0: -1.0, 2: 2.0, 3: 0.0, 4: -0.5}, {}, 1.0)
        assert minned(model) == [0, 1, 2, 3, 4]
        res = exhaustive_solve(model)
        assert res.assignment == (1, 0, 0, 0, 1)
        assert res.energy == -0.5

    def test_complete_graph_sums_out_one_bit(self):
        model = qubo(4, {}, {(i, j): 1.0 for i in range(4) for j in range(i + 1, 4)}, 0.0)
        assert minned(model) == [0]


@st.composite
def structured_families(draw):
    """Models of 0-16 free bits and 0-3 pinned ones, whose free x free
    coupling graph is sparse, bipartite, block-diagonal, empty or complete;
    pinned bits couple anywhere.  1-4 patterns over the pinned bits;
    integer or arbitrary real coefficients."""
    n_free, n_pin = draw(st.integers(0, 16)), draw(st.integers(0, 3))
    n = n_free + n_pin
    order = draw(st.permutations(range(n)))
    free, pinned = sorted(order[:n_free]), sorted(order[n_free:])
    kind = draw(st.sampled_from(["sparse", "bipartite", "block", "empty", "complete"]))
    integer = draw(st.booleans())
    coeff = (st.integers(-3, 3).filter(bool).map(float) if integer
             else st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False).filter(bool))
    side = [draw(st.integers(0, 3)) for _ in free]  # bipartite side or block id
    chance = st.integers(0, 3)

    def coupled(a, b):
        if kind == "sparse":
            return draw(chance) == 0
        if kind == "bipartite":
            return side[a] % 2 != side[b] % 2 and draw(chance) > 0
        if kind == "block":
            return side[a] == side[b] and draw(chance) > 0
        return kind == "complete"

    quadratic = {(free[a], free[b]): draw(coeff)
                 for a in range(n_free) for b in range(a + 1, n_free) if coupled(a, b)}
    quadratic.update({tuple(sorted((p, i))): draw(coeff) for p in pinned for i in range(n)
                      if i != p and draw(chance) == 0})
    linear = {i: draw(coeff) for i in range(n) if draw(st.booleans())}
    model = qubo(n, linear, quadratic, draw(coeff))
    patterns = draw(st.lists(st.lists(st.integers(0, 1), min_size=n_pin, max_size=n_pin),
                             min_size=1, max_size=4))
    return model, [dict(zip(pinned, bits)) for bits in patterns], kind, integer


class TestMinOutProperty:
    @settings(max_examples=60, deadline=None)
    @given(structured_families())
    def test_matches_naive_enumeration(self, case):
        model, fixes, kind, integer = case
        free = [i for i in range(model.n_vars) if i not in fixes[0]]
        if kind == "empty":
            assert minned(model, fixes[0]) == free
        elif kind == "complete" and free:
            assert len(minned(model, fixes[0])) == 1
        i, j, c = model.terms
        scale = 1.0 + abs(model.offset) + float(np.abs(c).sum())
        for fixed, res in zip(fixes, exhaustive_solve_many(model, fixes)):
            naive_e, naive_pattern = naive_minimum(model, fixed)
            assert all(res.assignment[i] == b for i, b in fixed.items())
            assert res.energy == energy(model, res.assignment)
            if integer:  # float sums are exact, so ties are exact too
                assert res.energy == naive_e
                assert res.assignment == naive_pattern
            else:
                assert abs(res.energy - naive_e) <= 1e-9 * scale


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
        w_range, w_exp = built.var_ranges["w[0]"], built.m.w_exp
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

    @settings(max_examples=100, deadline=None)
    @given(models_with_fixed())
    def test_no_pins_give_the_model_itself(self, case):
        # annealing walks fix_bits' model whether or not anything is pinned
        model = case[0]
        sub, free = fix_bits(model, {})
        assert sub == model
        assert [(a.dtype, a.tobytes()) for a in sub.terms] == \
            [(a.dtype, a.tobytes()) for a in model.terms]
        assert math.copysign(1.0, sub.offset) == math.copysign(1.0, model.offset)
        assert free == list(range(model.n_vars))

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
        AnnealConfig(sweeps=2 ** 63 - 1)
        with pytest.raises(ValueError, match="sweeps must be <= 2"):
            AnnealConfig(sweeps=2 ** 63)  # the kernel counts sweeps in an int64

    @pytest.mark.parametrize("b0, b1", [(math.inf, math.inf), (1.0, math.inf),
                                        (math.nan, 1.0), (0.1, math.nan), (5e-324, 1.0)])
    def test_non_finite_betas_rejected(self, b0, b1):
        # inf / inf makes the ladder's ratio nan, and exp(-nan) accepts every move;
        # 1 / 5e-324 overflows, so the ladder would be [5e-324, inf, inf, ...]
        with pytest.raises(ValueError, match="finite ratio"):
            AnnealConfig(beta_initial=b0, beta_final=b1)

    def test_geometric_schedule(self):
        cfg = AnnealConfig(sweeps=5, beta_initial=0.1, beta_final=10.0)
        sched = list(schedule(cfg))
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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10), st.integers(0, 2 ** 32), st.booleans(), st.integers(0, 10 ** 6))
    def test_never_below_exhaustive_minimum(self, n, model_seed, pinned, seed):
        # SA reports the exact energy of an assignment it visited, so never
        # less than the exact minimum over the same pins, up to rounding
        rng = np.random.default_rng(model_seed)
        m = random_model(rng, n)
        fixed = {i: int(rng.integers(2)) for i in range(n) if pinned and rng.random() < 0.3}
        exact = exhaustive_solve(m, fixed=fixed)
        res = simulated_anneal(m, AnnealConfig(sweeps=30, restarts=2, seed=seed), fixed=fixed)
        scale = max(1.0, abs(m.offset) + sum(map(abs, [*m.linear.values(),
                                                       *m.quadratic.values()])))
        assert res.energy >= exact.energy - 1e-9 * scale
        assert res.energy == energy(m, res.assignment)

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


def schedule(config):
    """The betas of AnnealConfig.ladder(), one per sweep."""
    beta0, ratio = config.ladder()
    return (beta0 * ratio ** s for s in range(config.sweeps))


def reference_anneal(model, config, fixed=None):
    """simulated_anneal as a Python loop, seeded by random.Random and
    updating the local fields over each flipped bit's neighbours: the
    reference for the compiled walk."""
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
        for beta in schedule(config):
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
    """Dense and sparse models: complete graphs over 9-40 vars, chains,
    rings, random graphs, n = 1 and n = 0; integer coefficients (whose sums
    cancel to exact zeros) or reals; an optional pinned subset; a short
    schedule; seeds from -10^6 to 10^6 and past +-2^64, since CPython
    seeds by |seed| in 32-bit words.  Coefficients come from a drawn
    seed, so a complete graph does not fill hypothesis's buffer."""
    kind = draw(st.sampled_from(["complete", "chain", "ring", "random", "single", "empty"]))
    n = draw({"complete": st.integers(9, 40), "chain": st.integers(2, 60),
              "ring": st.integers(3, 60), "random": st.integers(2, 24),
              "single": st.just(1), "empty": st.just(0)}[kind])
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
                          restarts=draw(st.integers(1, 3)),
                          seed=draw(st.integers(-10 ** 6, 10 ** 6) | st.integers(2 ** 64, 2 ** 100)
                                    | st.integers(-2 ** 100, -2 ** 64)))
    return model, fixed, config


class TestCompiledWalk:
    @settings(max_examples=80, deadline=None)
    @given(anneal_cases())
    def test_matches_neighbour_loop_reference(self, case):
        model, fixed, config = case
        res = simulated_anneal(model, config, fixed=fixed)
        ref = reference_anneal(model, config, fixed=fixed)
        assert json.dumps(res.to_json_dict()) == json.dumps(ref.to_json_dict())

    @pytest.mark.parametrize("seed", [2.5, -1.5, 3.0, True, 2 ** 64 - 1, -(2 ** 64)])
    def test_seeds_as_random_random_takes_them(self, seed):
        # a float seeds by its hash as an unsigned 64-bit word, an int by |int|
        model = relu_instance(m=0.5).model
        config = AnnealConfig(sweeps=20, restarts=3, seed=seed)
        assert json.dumps(simulated_anneal(model, config).to_json_dict()) == \
            json.dumps(reference_anneal(model, config).to_json_dict())

    def test_large_sparse_chain_builds_no_dense_matrix(self):
        # a 20,000-variable chain has mean degree 2: its CSR rows hold 2 * 19,999
        # neighbours, and no 20,000^2 matrix (3.2 GB) is allocated
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
    """Annealing calls split their restarts over min(cpus, restarts) workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


class TestFanOut:
    @settings(max_examples=60, deadline=None)
    @given(anneal_cases(), st.integers(2, 5), st.integers(1, 4))
    def test_matches_reference_bytes(self, case, restarts, cpus):
        model, fixed, config = case
        config = dataclasses.replace(config, restarts=restarts)
        before = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            fan_out_on(mp, cpus)
            res = simulated_anneal(model, config, fixed=fixed)
        assert threading.active_count() == before
        ref = reference_anneal(model, config, fixed=fixed)
        assert json.dumps(res.to_json_dict()) == json.dumps(ref.to_json_dict())

    @pytest.mark.parametrize("failure, parent_walks", [(None, 1), ("start", 3), ("raise", 3)])
    def test_failed_share_runs_in_the_parent(self, monkeypatch, failure, parent_walks):
        # the parent is the calling thread: a share whose thread cannot start,
        # or whose walk raises there, runs again in it
        model = relu_instance().model
        config = AnnealConfig(sweeps=30, restarts=5, seed=3)
        want = json.dumps(reference_anneal(model, config).to_json_dict())
        fan_out_on(monkeypatch, 3)
        parent, walk = threading.get_ident(), solvers._restarts
        calls, elsewhere = [], []

        def counted(*args):
            if threading.get_ident() == parent:
                calls.append(args[-1])
            else:
                elsewhere.append(args[-1])
                if failure == "raise":
                    raise RuntimeError("walk failed")
            return walk(*args)

        def no_start(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(solvers, "_restarts", counted)
        if failure == "start":
            monkeypatch.setattr(threading.Thread, "start", no_start)
        before = threading.active_count()
        assert json.dumps(simulated_anneal(model, config).to_json_dict()) == want
        assert threading.active_count() == before
        assert calls == [range(k, 5, 3) for k in range(parent_walks)]
        threaded = [] if failure == "start" else [range(1, 5, 3), range(2, 5, 3)]
        assert sorted(elsewhere, key=lambda share: share.start) == threaded

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_no_child_outlives_a_walk_that_raises(self, monkeypatch, error):
        # the children are the worker threads: the parent's error propagates
        # only once every one of them has finished its walk and been joined
        fan_out_on(monkeypatch, 3)
        parent, finished = threading.get_ident(), []

        def walk(*args):
            if threading.get_ident() == parent:
                raise error("walk failed")
            time.sleep(0.2)  # the parent raises long before
            finished.append(args[-1])
            return [(0.0, ())] * len(args[-1])

        monkeypatch.setattr(solvers, "_restarts", walk)
        before = threading.active_count()
        with pytest.raises(error):
            simulated_anneal(relu_instance().model, AnnealConfig(sweeps=10, restarts=4))
        assert threading.active_count() == before
        assert sorted(finished, key=lambda share: share.start) == [range(1, 4, 3),
                                                                   range(2, 4, 3)]

    @pytest.mark.parametrize("cpus, restarts", [(1, 48), (4, 1)])
    def test_one_cpu_or_one_restart_starts_no_thread(self, monkeypatch, cpus, restarts):
        fan_out_on(monkeypatch, cpus)

        def start(thread):
            raise AssertionError("a thread started")

        monkeypatch.setattr(threading.Thread, "start", start)
        res = simulated_anneal(relu_instance().model, AnnealConfig(sweeps=20, restarts=restarts))
        assert len(res.restart_energies) == restarts


class TestInitialFields:
    @settings(max_examples=100, deadline=None)
    @given(anneal_cases(), st.integers(0, 2 ** 32))
    def test_matches_neighbour_loop(self, case, seed):
        # the loop both update rules used to start from: each field sums its
        # couplings to set bits in neighbour-ascending order, then adds its
        # linear term; the kernel's fields run over the CSR lists that
        # simulated_anneal builds, and hex() also tells -0.0 from 0.0
        model = case[0]
        n = model.n_vars
        adj = [[] for _ in range(n)]
        for (i, j), c in model.quadratic.items():
            adj[i].append((j, c))
            adj[j].append((i, c))
        kernel = solvers._kernel(solvers._CACHE_DIR)
        csr = solvers._csr(model)
        start, nbr, coef, lin = (a.ctypes.data for a in csr)
        f = np.empty(n)
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
            bits = np.array(b, np.uint8)
            kernel.fields(n, start, nbr, coef, lin, bits.ctypes.data, f.ctypes.data)
            assert [x.hex() for x in f.tolist()] == [x.hex() for x in want]


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
