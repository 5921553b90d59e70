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
is its one-pattern case.  fix_bits, which annealing uses for fixed=, is
the one-pattern case of the same fold.  Annealing sets up each restart's
local fields in one pass over the terms, as single-flip annealers do
(Isakov et al., arXiv:1401.1084), then updates them per accepted flip:
with one numpy add of an n x n coupling row on a dense model
(2|E| >= n * max(8, n // 16)), with a loop over the neighbours on a
sparser one; both give identical results.  Restarts are independent
walks, so a large enough annealing call walks them on every CPU of its
affinity set, in children made by os.fork that send their results back
over pipes; the output is the same bytes as from one process.  The
exhaustive solver runs in one process.  The fold, the annealer's fields
and every energy read the model's one term view, QuboModel.terms.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import random
import time
from array import array
from dataclasses import dataclass
from functools import partial
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from .algebra import QuboModel, energy

DEFAULT_BIT_CAP = 30
_CHUNK_BITS = 18
# Mean coupling degree from which annealing updates the local fields with
# one numpy row per accepted flip instead of a loop over the neighbours.
# Measured on random models of 16-208 vars: equal speed at degree 8, the
# rows 1.4-1.8x slower at degree 2-4 and 2-3x faster at degree 32-207.
_DENSE_DEGREE = 8
# Proposals (sweeps * n * restarts) from which annealing forks children to
# walk restarts on the other CPUs: one fork plus the pickle of a share's
# results costs 2-4 ms, and 2^16 proposals take 13-46 ms at 0.2-0.7 us each.
_FORK_MIN_PROPOSALS = 1 << 16


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
        # an infinite ratio jumps the ladder to inf, or to nan at inf / inf
        if not (0 < self.beta_initial <= self.beta_final
                and self.beta_final / self.beta_initial < math.inf):
            raise ValueError("need 0 < beta_initial <= beta_final and a finite ratio of the two")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")

    def schedule(self) -> Iterator[float]:
        """Geometric beta ladder from beta_initial to beta_final, one beta
        at a time, so a walk holds O(1) of it whatever the sweep count."""
        if self.sweeps == 1:
            yield self.beta_final
            return
        ratio = (self.beta_final / self.beta_initial) ** (1.0 / (self.sweeps - 1))
        for s in range(self.sweeps):
            yield self.beta_initial * ratio ** s


@dataclass
class SolveResult:
    assignment: tuple[int, ...]
    energy: float
    restart_energies: list[float]
    solver: str
    wall_time_s: float

    def to_json_dict(self) -> dict:
        """Stable serialization; wall time is excluded so identical runs
        produce identical bytes."""
        return {
            "solver": self.solver,
            "n_vars": len(self.assignment),
            "energy": self.energy,
            "assignment": "".join(map(str, self.assignment)),
            "restart_energies": list(self.restart_energies),
        }


def _bit_cap() -> int:
    raw = os.environ.get("RELUQUBO_BIT_CAP")
    if raw is None:
        return DEFAULT_BIT_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"RELUQUBO_BIT_CAP must be an integer, got {raw!r}") from None


def _free_bits(model: QuboModel, fixes: Sequence[Mapping[int, int]]) -> list[int]:
    """Indices left free by a non-empty family of patterns, which must all
    pin the same indices to 0 or 1."""
    for n, fixed in enumerate(fixes):
        for i, b in fixed.items():
            if not 0 <= i < model.n_vars:
                raise ValueError(f"fixed index {i} out of range [0, {model.n_vars})")
            if b not in (0, 1):
                raise ValueError(f"fixed value for {i} must be 0 or 1, got {b!r}")
        if fixed.keys() != fixes[0].keys():
            raise ValueError(f"every pattern must pin the same indices; "
                             f"pattern {n} differs from pattern 0")
    return [i for i in range(model.n_vars) if i not in fixes[0]]


def _fold(model: QuboModel, free: Sequence[int], patterns: Sequence[Mapping[int, int]]
          ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """Fold a family of patterns over one pinned index set into the model:
    (the couplings between free bits as (k, l, c) arrays in key order, k
    and l positions in free, shared by all patterns; one row of diagonal
    per pattern, holding the free bits' linear terms since b*b = b; one
    offset per pattern).  Every sum runs in term order, linear terms
    first, and a term whose pin is 0 adds nothing, so an offset of -0.0
    keeps its sign."""
    pos = np.full(model.n_vars, -1)
    pos[free] = np.arange(len(free))
    i, j, c = model.terms
    free_i, free_j = pos[i] >= 0, pos[j] >= 0
    shared = (i != j) & free_i & free_j
    inside, edge = ~(free_i | free_j), (free_i | free_j) & ~shared
    k, c_edge = np.where(free_i, pos[i], pos[j])[edge], c[edge]  # the free end's position
    on = np.ones(model.n_vars, dtype=bool)
    diagonals = np.zeros((len(patterns), len(free)))
    offsets = np.empty(len(patterns))
    for p, fixed in enumerate(patterns):
        on[list(fixed)] = list(fixed.values())
        keep = on[i] & on[j]
        np.add.at(diagonals[p], k[keep[edge]], c_edge[keep[edge]])
        offsets[p] = np.add.accumulate(np.concatenate(([model.offset], c[inside & keep])))[-1]
    return (pos[i[shared]], pos[j[shared]], c[shared]), diagonals, offsets


def fix_bits(model: QuboModel, fixed: Mapping[int, int]) -> tuple[QuboModel, list[int]]:
    """Substitute fixed bits into the model.

    Returns the reduced model over the remaining variables (original
    order preserved) and the list mapping reduced index -> original
    index.
    """
    free = _free_bits(model, [fixed])
    (k, l, c), diagonals, offsets = _fold(model, free, [fixed])
    every = np.arange(len(free))
    terms = (np.concatenate((every, k)), np.concatenate((every, l)),
             np.concatenate((diagonals[0], c)))
    return QuboModel(len(free), terms, offsets[0], [model.labels[i] for i in free]), free


def _lift(model: QuboModel, fixed: Mapping[int, int], free: Sequence[int],
          free_bits: Iterable[int]) -> tuple[int, ...]:
    """Full-model assignment from the fixed bits and the free bits' values."""
    bits = {i: int(b) for i, b in fixed.items()}  # pins may be 1.0 or True
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


def exhaustive_solve(model: QuboModel,
                     fixed: Mapping[int, int] | None = None) -> SolveResult:
    """Global minimum by enumeration of every free-bit assignment.

    Deterministic: float-exact energy ties go to the lowest assignment
    integer (LSB = lowest free variable).  Fixed bits are folded into the
    free bits' block in O(|E| + nf^2).  Raises BitCapExceeded when the
    free-bit count exceeds the cap (default 30, env RELUQUBO_BIT_CAP).
    """
    return exhaustive_solve_many(model, [fixed or {}])[0]


def exhaustive_solve_many(model: QuboModel,
                          fixes: Sequence[Mapping[int, int]]) -> list[SolveResult]:
    """exhaustive_solve(model, fixed=p) for every pattern p in fixes.

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
    free = _free_bits(model, fixes)
    cap = _bit_cap()
    if len(free) > cap:
        # 2^n as "2.1e9" from log10, since a float overflows past 2^1023
        digits = len(free) * math.log10(2)
        mantissa, shift = f"{10 ** (digits % 1):.1e}".split("e")
        states = f"{mantissa}e{int(digits) + int(shift)}"
        raise BitCapExceeded(f"{len(free)} free bits (2^{len(free)} = {states} states) exceeds "
                             f"the exhaustive cap of {cap}; set RELUQUBO_BIT_CAP to raise it")

    slot: dict[tuple[int, ...], int] = {}
    slots = [slot.setdefault(tuple(fixed[i] for i in fixes[0]), len(slot)) for fixed in fixes]
    patterns = [dict(zip(fixes[0], key)) for key in slot]
    (k, l, c), diagonals, _ = _fold(model, free, patterns)
    Q = np.zeros((len(free), len(free)))
    Q[k, l] = c

    solved = []
    diag = np.diag_indices(len(free))
    for fixed, d in zip(patterns, diagonals):
        Q[diag] = d
        best_k = _split_argmin(Q)
        assignment = _lift(model, fixed, free, ((best_k >> k) & 1 for k in range(len(free))))
        solved.append((assignment, energy(model, assignment)))
    wall = time.perf_counter() - t0
    results = [SolveResult(a, e, [], "exhaustive", wall) for a, e in solved]
    return [results[k] for k in slots]


def _initial_fields(model: QuboModel, b: Sequence[int]) -> np.ndarray:
    """Local field of every bit i: the sum of i's couplings to set bits, then
    its linear term.  np.add.at adds in input order, and the term view lists
    couplings in key order, so a field gets its lower neighbours, then its
    upper ones, each ascending, and the linear term last."""
    i, j, c = model.terms
    lin = i == j
    qi, qj, qc = i[~lin], j[~lin], c[~lin]
    on = np.array(b, dtype=bool)
    lo_set, hi_set = on[qi], on[qj]
    f = np.zeros(model.n_vars)
    np.add.at(f, np.concatenate((qj[lo_set], qi[hi_set], i[lin])),
              np.concatenate((qc[lo_set], qc[hi_set], c[lin])))
    return f


def _walk(model: QuboModel, config: AnnealConfig, rows: list[np.ndarray] | None,
          adj: list[list[tuple[int, float]]] | None,
          restarts: Iterable[int]) -> list[tuple[float, tuple[int, ...]]]:
    """(energy, bits) of the best state of each restart r in restarts: a
    walk seeded with config.seed + r that updates the local fields with
    the coupling rows when given, else with the neighbour lists adj."""
    n = model.n_vars
    exp, add, subtract = math.exp, np.add, np.subtract
    found = []
    for r in restarts:
        rng = random.Random(config.seed + r)
        rnd = rng.random
        b = [rng.randrange(2) for _ in range(n)]
        f = _initial_fields(model, b)
        if rows is None:
            f = f.tolist()
        else:  # fv views f's memory; the scan reads f[i] as floats
            f = array("d", f.tobytes())
            fv = np.frombuffer(f)
        e = energy(model, b)
        best_e, best_b = e, list(b)
        for beta in config.schedule():
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
                if rows is None:
                    for j, c in adj[i]:
                        f[j] += s * c
                elif s < 0:
                    subtract(fv, rows[i], out=fv)
                else:
                    add(fv, rows[i], out=fv)
                if e < best_e:
                    best_e = e
                    best_b = list(b)
        found.append((energy(model, best_b), tuple(best_b)))
    return found


def _send(walk: Callable[[range], list], share: range, w: int) -> NoReturn:
    """In a forked child: write walk(share) pickled to the pipe end w, then
    leave by os._exit, so that none of the parent's cleanup, atexit hooks
    or buffered output runs twice.  Any failure exits 1."""
    code = 1
    try:
        with open(w, "wb") as fh:
            pickle.dump(walk(share), fh, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _fan_out(walk: Callable[[range], list], restarts: int, workers: int) -> list:
    """walk's items for restarts 0..restarts-1, in restart order.

    walk takes a range of restarts and returns one item per restart.  The
    restarts split into the shares r = k (mod workers).  Share 0 runs in
    this process; each other share runs in a child made by os.fork, which
    sends its items back pickled over a pipe.  A share whose fork fails,
    or whose child exits non-zero or sends an incomplete pickle, runs here
    after share 0.  Every child is reaped before the call returns or
    raises; on an exception the unreaped ones are killed first.
    """
    shares = [range(k, restarts, workers) for k in range(workers)]
    found: list[list | None] = [None] * workers
    pids: dict[int, int] = {}  # share -> pid of its child, until reaped
    readers: dict[int, BinaryIO] = {}  # share -> read end of its child's pipe
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # share k runs here below
                os.close(r)
                os.close(w)
                continue
            if pid == 0:
                _send(walk, shares[k], w)
            os.close(w)
            pids[k], readers[k] = pid, open(r, "rb")
        found[0] = walk(shares[0])
        for k, reader in readers.items():
            data = reader.read()
            status = os.waitpid(pids.pop(k), 0)[1]
            if os.waitstatus_to_exitcode(status) == 0:
                with contextlib.suppress(pickle.UnpicklingError, EOFError):
                    found[k] = pickle.loads(data)
    finally:
        for reader in readers.values():
            reader.close()
        if pids:  # an exception left children unreaped
            import signal  # only on this path, so start-up time and memory stay as they were
            for pid in pids.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for k, share in enumerate(shares):
        if found[k] is None:
            found[k] = walk(share)
    return [found[r % workers][r // workers] for r in range(restarts)]


def simulated_anneal(model: QuboModel,
                     config: AnnealConfig,
                     fixed: Mapping[int, int] | None = None) -> SolveResult:
    """Best assignment found by Metropolis single-bit-flip annealing.

    Each restart r runs an independent walk seeded with seed + r; within
    a sweep, variables are proposed in index order at the sweep's beta.
    Restarts share nothing and merge by (energy, assignment integer), so
    the result is order-independent.  The reported energy is re-evaluated
    from scratch, so it equals energy(model, assignment) exactly.  With
    fixed, the walk runs on the reduced model from fix_bits, whose offset
    carries the fixed contributions, so its restart energies are
    full-model energies; the best assignment is lifted back to the full
    model.  An empty model takes the same path: no sweep flips anything.

    An accepted flip of bit i adds +-c to the local field of each
    neighbour.  When 2|E| >= n * max(_DENSE_DEGREE, n // 16), that is one
    numpy add or subtract of row i of an n x n coupling matrix, built once
    per call; non-neighbours get +-0.0, which changes no field because a
    field is never -0.0 (zero coefficients are pruned, and x + y rounds an
    exact cancellation to +0.0).  Sparser models loop over the neighbours,
    build no matrix and keep the fields in a Python list.  Either way a
    restart starts from the fields of _initial_fields and the energy of
    energy(), both read from the term view.  The betas are computed one
    sweep at a time, so memory does not grow with config.sweeps.

    From sweeps * n * restarts >= _FORK_MIN_PROPOSALS on, the restarts
    are split over w = min(CPUs in this process's affinity set, restarts)
    workers: this process and w - 1 children made by os.fork (_fan_out).
    A walk runs the same arithmetic in any process and the merge puts the
    walks back in restart order, so every output is the same as from one
    process.  Below that size, or where os.sched_getaffinity is missing,
    every walk runs here.
    """
    t0 = time.perf_counter()
    if fixed:
        sub, free = fix_bits(model, fixed)
        result = simulated_anneal(sub, config)
        assignment = _lift(model, fixed, free, result.assignment)
        return SolveResult(assignment, energy(model, assignment), result.restart_energies,
                           "sa", time.perf_counter() - t0)
    n = model.n_vars

    pair = model.terms[0] != model.terms[1]
    qi, qj, qc = (a[pair] for a in model.terms)
    adj: list[list[tuple[int, float]]] | None = None
    rows: list[np.ndarray] | None = None
    # the n*n matrix stays within a small multiple of adj's own memory
    if 2 * len(qc) >= n * max(_DENSE_DEGREE, n // 16):
        dense = np.zeros((n, n))
        dense[qi, qj] = qc
        dense[qj, qi] = qc
        rows = list(dense)
    else:
        adj = [[] for _ in range(n)]
        for i, j, c in zip(qi.tolist(), qj.tolist(), qc.tolist()):
            adj[i].append((j, c))
            adj[j].append((i, c))
    workers = 1
    if (hasattr(os, "sched_getaffinity")
            and config.sweeps * n * config.restarts >= _FORK_MIN_PROPOSALS):
        workers = min(len(os.sched_getaffinity(0)), config.restarts)
    restart_best = _fan_out(partial(_walk, model, config, rows, adj), config.restarts, workers)

    restart_energies = [e for e, _ in restart_best]
    # on equal-length 0/1 tuples, comparing the highest bit first is integer order
    best_e, best_b = min(restart_best, key=lambda p: (p[0], p[1][::-1]))
    return SolveResult(best_b, best_e, restart_energies, "sa", time.perf_counter() - t0)
