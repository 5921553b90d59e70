"""Tests for exhaustive enumeration and simulated annealing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reluqubo import solvers
from reluqubo.algebra import AffineExpr, QuadraticExpr, QuboModel, all_assignments, energy
from reluqubo.encoding import BinaryExpansion
from reluqubo.formulation import ReluPenaltySpec, build_cost_plus_relu, build_from_config
from reluqubo.solvers import (
    AnnealConfig,
    BitCapExceeded,
    energy_delta,
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
    return QuboModel(n, linear, quadratic, float(rng.uniform(-1, 1)))


def relu_instance(m=-1.0, d_t=4, d_z=4, alpha_z=2.0, M=30.0):
    spec = ReluPenaltySpec(
        BinaryExpansion(d_t, 1.0, -1.0),
        BinaryExpansion(d_z, alpha_z, 0.0),
        BinaryExpansion(d_z, alpha_z, 0.0),
        M)
    return build_cost_plus_relu(QuadraticExpr(), AffineExpr.from_constant(m), spec)


class TestExhaustive:
    def test_positive_linear_prefers_zero(self):
        m = QuboModel(1, {0: 2.0}, {}, offset=0.5)
        res = exhaustive_solve(m)
        assert res.assignment == (0,)
        assert res.energy == 0.5

    def test_two_bit_coupler(self):
        m = QuboModel(2, {0: 1.0, 1: 1.0}, {(0, 1): -3.0}, 0.0)
        res = exhaustive_solve(m)
        assert res.assignment == (1, 1)
        assert res.energy == -1.0

    def test_relu_instance_minimum_matches_hinge(self):
        built = relu_instance(m=-1.0, alpha_z=1.0)  # z grid hits 1 exactly
        res = exhaustive_solve(built.model)
        assert res.energy == pytest.approx(1.0, abs=1e-9)

    def test_tie_broken_by_lowest_assignment_integer(self):
        m = QuboModel(2, {0: -1.0, 1: -1.0}, {(0, 1): 2.0}, 0.0)
        res = exhaustive_solve(m)
        # (1,0) and (0,1) tie at -1; integer order prefers bit 0 set
        assert res.assignment == (1, 0)

    def test_empty_tie_prefers_all_zero(self):
        m = QuboModel(3, {}, {}, offset=7.0)
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
        m = QuboModel(n, linear, {}, offset=float(sum(target)))
        res = exhaustive_solve(m)
        assert res.assignment == target
        assert res.energy == 0.0

    def test_fixed_bits_restrict_search(self):
        m = QuboModel(2, {0: -1.0, 1: -1.0}, {(0, 1): 5.0}, 0.0)
        res = exhaustive_solve(m, fixed={0: 1})
        assert res.assignment == (1, 0)
        assert res.energy == -1.0

    def test_fixed_all_bits(self):
        m = QuboModel(2, {0: 1.0}, {(0, 1): 1.0}, 0.5)
        res = exhaustive_solve(m, fixed={0: 1, 1: 1})
        assert res.assignment == (1, 1)
        assert res.energy == 2.5

    def test_cap_enforced(self):
        m = QuboModel(8, {}, {}, 0.0)
        with pytest.raises(BitCapExceeded):
            exhaustive_solve(m, bit_cap=7)

    def test_env_overrides_cap(self, monkeypatch):
        monkeypatch.setenv("RELUQUBO_BIT_CAP", "3")
        m = QuboModel(4, {}, {}, 0.0)
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
    return QuboModel(n, linear, quadratic, draw(coeff)), fixed, integer


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
        model = QuboModel(n, linear, {(0, n - 1): 2.0}, 0.0)
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
        model = QuboModel(n, linear, quadratic, 0.5)
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


def assert_fold_matches_substitute(model, fixes):
    """Each pattern's block from the family fold has the same bytes as the
    dense block written from a single _substitute."""
    pinned = list(fixes[0])
    free = [i for i in range(model.n_vars) if i not in fixes[0]]
    patterns = [tuple(fixed[i] for i in pinned) for fixed in fixes]
    Q, diagonals = solvers._fold_family(model, free, pinned, patterns)
    for fixed, d in zip(fixes, diagonals):
        sub_free, _, terms = solvers._substitute(model, fixed)
        ref = np.zeros((len(free), len(free)))
        for (i, j), c in terms.items():
            ref[i, j] = c
        block = Q.copy()
        np.fill_diagonal(block, d)
        assert sub_free == free
        assert block.tobytes() == ref.tobytes()


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
        assert_fold_matches_substitute(model, fixes)

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
        assert_fold_matches_substitute(built.model, fixes)
        for fixed, res in zip(fixes, exhaustive_solve_many(built.model, fixes)):
            single = exhaustive_solve(built.model, fixed=fixed)
            assert (res.assignment, res.energy) == (single.assignment, single.energy)

    def test_duplicates_share_one_solve(self):
        model = QuboModel(3, {0: 1.0, 1: -1.0, 2: 0.5}, {(0, 1): -2.0, (1, 2): 1.0}, 0.0)
        results = exhaustive_solve_many(model, [{0: 1}, {0: 0}, {0: 1}])
        assert results[0] is results[2]
        assert results[0].assignment == (1, 1, 0)
        assert results[1].assignment == (0, 1, 0)

    def test_empty_family(self):
        assert exhaustive_solve_many(QuboModel(2, {}, {}, 0.0), []) == []

    def test_mismatched_pinned_sets_rejected(self):
        model = QuboModel(3, {}, {}, 0.0)
        with pytest.raises(ValueError, match="same indices"):
            exhaustive_solve_many(model, [{0: 1, 1: 0}, {0: 1, 2: 0}])
        with pytest.raises(ValueError, match="same indices"):
            exhaustive_solve_many(model, [{0: 1}, {0: 1, 1: 1}])

    @pytest.mark.parametrize("bad", [{5: 1}, {0: 2}, {1: 0, 0: "1"}, {-1: 0}])
    def test_bad_pattern_message_matches_single_calls(self, bad):
        model = QuboModel(2, {}, {}, 0.0)
        with pytest.raises(ValueError) as single:
            exhaustive_solve(model, fixed=bad)
        with pytest.raises(ValueError) as reduced:
            fix_bits(model, bad)
        good = {i: 0 for i in bad}
        with pytest.raises(ValueError) as family:
            exhaustive_solve_many(model, [good, bad])
        assert str(family.value) == str(single.value) == str(reduced.value)

    def test_cap_checked_for_family(self):
        model = QuboModel(10, {}, {}, 0.0)
        with pytest.raises(BitCapExceeded):
            exhaustive_solve_many(model, [{0: 0}, {0: 1}], bit_cap=8)
        assert len(exhaustive_solve_many(model, [{0: 0}, {0: 1}], bit_cap=9)) == 2

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
            assert sub.energy(free_bits) == pytest.approx(energy(m, pattern), abs=1e-12)

    def test_labels_follow_free_vars(self):
        m = QuboModel(3, {}, {}, 0.0, labels=["a", "b", "c"])
        sub, free = fix_bits(m, {1: 0})
        assert sub.labels == ["a", "c"]

    def test_invalid_fixed_rejected(self):
        m = QuboModel(2, {}, {}, 0.0)
        with pytest.raises(ValueError):
            fix_bits(m, {5: 1})
        with pytest.raises(ValueError):
            fix_bits(m, {0: 2})


class TestEnergyDelta:
    def test_single_flip_matches_direct(self):
        rng = np.random.default_rng(8)
        m = random_model(rng, 7)
        b = [int(x) for x in rng.integers(0, 2, size=7)]
        for i in range(7):
            flipped = list(b)
            flipped[i] ^= 1
            assert energy_delta(m, b, i) == pytest.approx(
                energy(m, flipped) - energy(m, b), abs=1e-12)

    def test_accumulated_walk_matches_full_reevaluation(self):
        rng = np.random.default_rng(10)
        m = random_model(rng, 10)
        b = [int(x) for x in rng.integers(0, 2, size=10)]
        e = energy(m, b)
        for _ in range(500):
            i = int(rng.integers(0, 10))
            e += energy_delta(m, b, i)
            b[i] ^= 1
        assert e == pytest.approx(energy(m, b), abs=1e-9)


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

    def test_geometric_schedule(self):
        cfg = AnnealConfig(sweeps=5, beta_initial=0.1, beta_final=10.0)
        sched = cfg.schedule()
        assert sched[0] == pytest.approx(0.1)
        assert sched[-1] == pytest.approx(10.0)
        ratios = [b / a for a, b in zip(sched, sched[1:])]
        assert all(r == pytest.approx(ratios[0]) for r in ratios)


class TestSimulatedAnneal:
    CFG = AnnealConfig(sweeps=2000, beta_initial=0.1, beta_final=10.0,
                       restarts=16, seed=42)

    def test_trivial_model_returns_offset(self):
        m = QuboModel(5, {}, {}, offset=3.25)
        res = simulated_anneal(m, AnnealConfig(sweeps=10, restarts=2, seed=1))
        assert res.energy == 3.25
        assert res.restart_energies == [3.25, 3.25]

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

    def test_best_so_far_non_increasing(self):
        rng = np.random.default_rng(16)
        m = random_model(rng, 10)
        res = simulated_anneal(m, AnnealConfig(sweeps=300, restarts=3, seed=3),
                               record_best_trace=True)
        assert res.best_trace is not None
        for restart_trace in res.best_trace:
            assert all(a >= b for a, b in zip(restart_trace, restart_trace[1:]))

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

    def test_json_dict_excludes_wall_time(self):
        m = QuboModel(2, {0: 1.0}, {}, 0.0)
        res = simulated_anneal(m, AnnealConfig(sweeps=10, restarts=1, seed=0))
        d = res.to_json_dict()
        assert set(d) == {"solver", "n_vars", "energy", "assignment", "restart_energies"}
        assert d["assignment"] == res.assignment_str()
