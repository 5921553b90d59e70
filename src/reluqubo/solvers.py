"""Minimum-energy search: exact exhaustive enumeration and simulated annealing.

Exhaustive search is the desk-scale ground truth (capped at 30 free bits
by default, RELUQUBO_BIT_CAP overrides).  It splits the free bits into
halves and meets in the middle (Horowitz & Sahni, JACM 1974), in memory
O(2^ceil(n/2) * n) plus one 2^18-entry chunk.  Float-exact ties go to the
lowest assignment integer; mathematically tied t states may resolve
differently from earlier versions.  Simulated annealing is a
single-bit-flip Metropolis walk with a geometric inverse-temperature
schedule and independently seeded restarts; it is fully reproducible
given (model, config).  Both solvers take fixed= to pin bits, and both
return an assignment of the full model with its energy re-evaluated.
exhaustive_solve_many solves a family of patterns over one pinned index
set: the model is folded once (a shared free-bit block, one diagonal per
pattern) and each distinct pattern is enumerated once; exhaustive_solve
is its one-pattern case.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algebra import QuboModel, energy

DEFAULT_BIT_CAP = 30
_CHUNK_BITS = 18


class BitCapExceeded(RuntimeError):
    """Exhaustive search refused: too many free bits."""


@dataclass(frozen=True)
class AnnealConfig:
    sweeps: int = 1000
    beta_initial: float = 0.1
    beta_final: float = 10.0
    restarts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if not (0 < self.beta_initial <= self.beta_final):
            raise ValueError("need 0 < beta_initial <= beta_final")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")

    def schedule(self) -> list[float]:
        """Geometric beta ladder from beta_initial to beta_final."""
        if self.sweeps == 1:
            return [self.beta_final]
        ratio = (self.beta_final / self.beta_initial) ** (1.0 / (self.sweeps - 1))
        return [self.beta_initial * ratio ** s for s in range(self.sweeps)]


@dataclass
class SolveResult:
    assignment: tuple[int, ...]
    energy: float
    restart_energies: list[float]
    solver: str
    wall_time_s: float
    best_trace: list[list[float]] | None = field(default=None, repr=False)

    def assignment_str(self) -> str:
        return "".join(str(b) for b in self.assignment)

    def to_json_dict(self) -> dict:
        """Stable serialization; wall time is excluded so identical runs
        produce identical bytes."""
        return {
            "solver": self.solver,
            "n_vars": len(self.assignment),
            "energy": self.energy,
            "assignment": self.assignment_str(),
            "restart_energies": list(self.restart_energies),
        }


def _default_bit_cap() -> int:
    raw = os.environ.get("RELUQUBO_BIT_CAP")
    if raw is None:
        return DEFAULT_BIT_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"RELUQUBO_BIT_CAP must be an integer, got {raw!r}") from None


def _check_fixed(model: QuboModel, fixed: Mapping[int, int]) -> None:
    for i, b in fixed.items():
        if not 0 <= i < model.n_vars:
            raise ValueError(f"fixed index {i} out of range [0, {model.n_vars})")
        if b not in (0, 1):
            raise ValueError(f"fixed value for {i} must be 0 or 1, got {b!r}")


def _terms(model: QuboModel) -> Iterable[tuple[tuple[int, int], float]]:
    """Linear terms as (i, i) pairs, then the couplings, in key order."""
    diagonal = (((i, i), c) for i, c in model.linear.items())
    return itertools.chain(diagonal, model.quadratic.items())


def _substitute(model: QuboModel, fixed: Mapping[int, int]
                ) -> tuple[list[int], float, dict[tuple[int, int], float]]:
    """Fold fixed bits into the model's terms in one pass: (free indices,
    offset, upper-triangular terms keyed by position in free, with the
    linear part on the diagonal since b*b = b)."""
    _check_fixed(model, fixed)
    free = [i for i in range(model.n_vars) if i not in fixed]
    pos = {orig: k for k, orig in enumerate(free)}

    offset = model.offset
    terms: dict[tuple[int, int], float] = {}
    for (i, j), c in _terms(model):
        fi, fj = fixed.get(i), fixed.get(j)
        if fi == 0 or fj == 0:
            continue
        if fi and fj:
            offset += c
            continue
        key = (pos[j],) * 2 if fi else (pos[i],) * 2 if fj else (pos[i], pos[j])
        terms[key] = terms.get(key, 0.0) + c
    return free, offset, terms


def fix_bits(model: QuboModel, fixed: Mapping[int, int]) -> tuple[QuboModel, list[int]]:
    """Substitute fixed bits into the model.

    Returns the reduced model over the remaining variables (original
    order preserved) and the list mapping reduced index -> original
    index.
    """
    free, offset, terms = _substitute(model, fixed)
    linear = {i: c for (i, j), c in terms.items() if i == j}
    quadratic = {(i, j): c for (i, j), c in terms.items() if i != j}
    labels = [model.labels[i] for i in free]
    return QuboModel(len(free), linear, quadratic, offset, labels=labels), free


def _lift(model: QuboModel, fixed: Mapping[int, int], free: Sequence[int],
          free_bits: Iterable[int]) -> tuple[int, ...]:
    """Full-model assignment from the fixed bits and the free bits' values."""
    bits = dict(fixed)
    bits.update(zip(free, free_bits))
    return tuple(bits[i] for i in range(model.n_vars))


def _subset_sums(V: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Row k = start + the sum of the rows V[i] with bit i of k set (LSB = row 0),
    by additive doubling: BLAS threads stall on such small products."""
    S = np.empty((1 << len(V),) + start.shape)
    S[0] = start
    for i, v in enumerate(V):
        np.add(S[:1 << i], v, out=S[1 << i:2 << i])
    return S


def _energies(Q: np.ndarray) -> np.ndarray:
    """b·Q·bᵀ of all 2^n states b in integer order, Q upper-triangular."""
    F = _subset_sums(Q, np.zeros(len(Q)))  # F[k, j] = sum_{i<j} b_i Q_ij for k < 2^j
    E = np.zeros(len(F))
    for j in range(len(Q)):
        np.add(E[:1 << j], Q[j, j] + F[:1 << j, j], out=E[1 << j:2 << j])
    return E


def _split_argmin(Q: np.ndarray) -> int:
    """Lowest assignment integer among the minima of b·Q·bᵀ, Q upper-triangular.

    Meet in the middle over lo = the low ceil(n/2) bits and hi = the rest:
    E(hi, lo) = E_hi[hi] + E_lo[lo] + sum_{j in hi} b_j G[lo, j], scanned in
    (hi, lo) row chunks of 2^_CHUNK_BITS entries (one row, if longer).  Flat
    argmins and a strict comparison across chunks keep the lowest integer.
    """
    nl = (len(Q) + 1) // 2
    nh = len(Q) - nl
    E_lo, E_hi = _energies(Q[:nl, :nl]), _energies(Q[nl:, nl:])
    G = _subset_sums(Q[:nl, nl:], np.zeros(nh))
    r = min(nh, max(0, _CHUNK_BITS - nl))  # hi bits enumerated inside a chunk
    best_k, best_e = 0, math.inf
    for c in range(1 << (nh - r)):
        upper = ((c >> np.arange(nh - r)) & 1).astype(bool)
        block = _subset_sums(G.T[:r], E_lo + G[:, r:][:, upper].sum(axis=1))
        block += E_hi[c << r:(c + 1) << r, None]
        local = int(np.argmin(block))
        if block.flat[local] < best_e:
            best_e = float(block.flat[local])
            best_k = (c << (r + nl)) + local
    return best_k


def _fold_family(model: QuboModel, free: Sequence[int], pinned: Sequence[int],
                 patterns: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Fold each pattern of values for the pinned indices into the model in
    one pass over the terms: (the free x free upper triangle shared by all
    patterns, one diagonal per pattern).  Each diagonal is summed in
    _substitute's order, so each pattern's block is bit-identical to the one
    a single _substitute builds."""
    pos = {orig: k for k, orig in enumerate(free)}
    col = {orig: k for k, orig in enumerate(pinned)}
    bits = np.array(patterns, dtype=float).reshape(len(patterns), len(pinned))
    Q = np.zeros((len(free), len(free)))
    diagonals = np.zeros((len(patterns), len(free)))
    for (i, j), c in _terms(model):
        if i in pos and j in pos:
            if i == j:
                diagonals[:, pos[i]] += c
            else:
                Q[pos[i], pos[j]] += c
        elif i in pos:   # c * 0.0 leaves a sum unchanged, so a 0 pin adds nothing
            diagonals[:, pos[i]] += c * bits[:, col[j]]
        elif j in pos:
            diagonals[:, pos[j]] += c * bits[:, col[i]]
    return Q, diagonals


def exhaustive_solve(model: QuboModel,
                     fixed: Mapping[int, int] | None = None,
                     bit_cap: int | None = None) -> SolveResult:
    """Global minimum by enumeration of every free-bit assignment.

    Deterministic: float-exact energy ties go to the lowest assignment
    integer (LSB = lowest free variable).  Fixed bits are folded into the
    free bits' block in O(|E| + nf^2).  Raises BitCapExceeded when the
    free-bit count exceeds the cap (default 30, env RELUQUBO_BIT_CAP).
    """
    return exhaustive_solve_many(model, [fixed or {}], bit_cap)[0]


def exhaustive_solve_many(model: QuboModel, fixes: Sequence[Mapping[int, int]],
                          bit_cap: int | None = None) -> list[SolveResult]:
    """exhaustive_solve(model, fixed=p, bit_cap) for every pattern p in fixes.

    Every pattern must pin the same indices.  The model is folded once:
    the free x free block is shared, and each distinct pattern gets its
    own diagonal, summed in the same order as a single solve sums it, so
    each result equals the single solve's exactly.  Each distinct pattern
    is enumerated once; duplicate patterns share one result, and every
    result carries the wall time of the whole call.
    """
    t0 = time.perf_counter()
    if not fixes:
        return []
    pinned = list(fixes[0])
    for n, fixed in enumerate(fixes):
        _check_fixed(model, fixed)
        if fixed.keys() != fixes[0].keys():
            raise ValueError(f"every pattern must pin the same indices; "
                             f"pattern {n} differs from pattern 0")
    free = [i for i in range(model.n_vars) if i not in fixes[0]]
    cap = _default_bit_cap() if bit_cap is None else bit_cap
    if len(free) > cap:
        raise BitCapExceeded(f"{len(free)} free bits exceeds the exhaustive cap of {cap}")

    slot: dict[tuple[int, ...], int] = {}
    slots = [slot.setdefault(tuple(fixed[i] for i in pinned), len(slot)) for fixed in fixes]
    Q, diagonals = _fold_family(model, free, pinned, list(slot))

    solved = []
    diag = np.diag_indices(len(free))
    for key, d in zip(slot, diagonals):
        Q[diag] = d
        best_k = _split_argmin(Q)
        assignment = _lift(model, dict(zip(pinned, key)), free,
                           ((best_k >> k) & 1 for k in range(len(free))))
        solved.append((assignment, energy(model, assignment)))
    wall = time.perf_counter() - t0
    results = [SolveResult(a, e, [], "exhaustive", wall) for a, e in solved]
    return [results[k] for k in slots]


def energy_delta(model: QuboModel, assignment: Sequence[int], i: int) -> float:
    """Energy change from flipping bit i of the assignment."""
    if not 0 <= i < model.n_vars:
        raise ValueError(f"index {i} out of range [0, {model.n_vars})")
    local = model.linear.get(i, 0.0)
    for (a, b), c in model.quadratic.items():
        if a == i:
            if assignment[b]:
                local += c
        elif b == i:
            if assignment[a]:
                local += c
    return local if not assignment[i] else -local


def _assignment_int(bits: Sequence[int]) -> int:
    k = 0
    for i, b in enumerate(bits):
        k |= int(b) << i
    return k


def simulated_anneal(model: QuboModel,
                     config: AnnealConfig,
                     record_best_trace: bool = False,
                     fixed: Mapping[int, int] | None = None) -> SolveResult:
    """Best assignment found by Metropolis single-bit-flip annealing.

    Each restart r runs an independent walk seeded with seed + r; within
    a sweep, variables are proposed in index order at the sweep's beta.
    Restarts share nothing and merge by (energy, assignment integer), so
    the result is order-independent.  The reported energy is re-evaluated
    from scratch, so it equals energy(model, assignment) exactly.  With
    record_best_trace, the per-sweep best-so-far of every restart is
    attached to the result.  With fixed, the walk runs on the reduced
    model from fix_bits, whose offset carries the fixed contributions, so
    its restart energies are full-model energies; the best assignment is
    lifted back to the full model.
    """
    t0 = time.perf_counter()
    if fixed:
        sub, free = fix_bits(model, fixed)
        result = simulated_anneal(sub, config, record_best_trace)
        assignment = _lift(model, fixed, free, result.assignment)
        return SolveResult(assignment, energy(model, assignment), result.restart_energies,
                           "sa", time.perf_counter() - t0, best_trace=result.best_trace)
    n = model.n_vars
    if n == 0:
        return SolveResult((), model.offset, [model.offset] * config.restarts,
                           "sa", time.perf_counter() - t0)

    lin = [0.0] * n
    for i, c in model.linear.items():
        lin[i] = c
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (i, j), c in model.quadratic.items():
        adj[i].append((j, c))
        adj[j].append((i, c))
    betas = config.schedule()
    exp = math.exp

    restart_best: list[tuple[float, tuple[int, ...]]] = []
    trace: list[list[float]] | None = [] if record_best_trace else None
    for r in range(config.restarts):
        rng = random.Random(config.seed + r)
        rnd = rng.random
        b = [rng.randrange(2) for _ in range(n)]
        f = [lin[i] + sum(c for j, c in adj[i] if b[j]) for i in range(n)]
        e = energy(model, b)
        best_e, best_b = e, list(b)
        sweep_best: list[float] = []
        for beta in betas:
            for i in range(n):
                de = -f[i] if b[i] else f[i]
                if de > 0.0:
                    bde = beta * de
                    # acceptance below ~1e-18: reject without drawing
                    if bde > 40.0 or rnd() >= exp(-bde):
                        continue
                s = -1 if b[i] else 1
                b[i] ^= 1
                e += de
                for j, c in adj[i]:
                    f[j] += s * c
                if e < best_e:
                    best_e = e
                    best_b = list(b)
            if trace is not None:
                sweep_best.append(best_e)
        if trace is not None:
            trace.append(sweep_best)
        exact = energy(model, best_b)
        restart_best.append((exact, tuple(best_b)))

    restart_energies = [e for e, _ in restart_best]
    best_e, best_b = min(restart_best, key=lambda p: (p[0], _assignment_int(p[1])))
    return SolveResult(best_b, best_e, restart_energies, "sa",
                       time.perf_counter() - t0, best_trace=trace)
