"""Minimum-energy search: exact exhaustive enumeration and simulated annealing.

Exhaustive search is the desk-scale ground truth (capped at 30 free bits
by default, RELUQUBO_BIT_CAP overrides; the cap counts every free bit).
It sums out a greedy set of pairwise-uncoupled free bits, each adding
min(0, its field) (bucket elimination, Dechter 2003), and splits the k
other bits into halves that meet in the middle (Horowitz & Sahni, JACM
1974), in memory O(2^ceil(k/2) * k) plus a 2^16-entry working block and
its temp.  Exact ties of the kernel's energies go to the lowest full
assignment integer.  Simulated annealing is a
single-bit-flip Metropolis walk with a geometric inverse-temperature
schedule and independently seeded restarts; it is fully reproducible
given (model, config).  Both solvers take fixed= to pin bits, and both
return an assignment of the full model with its energy re-evaluated.
exhaustive_solve_many solves a family of patterns over one pinned index
set: the model is folded once (a shared free-bit block, one diagonal per
pattern), every table of the block is built once, and each distinct
pattern is enumerated once; exhaustive_solve is its one-pattern case.
fix_bits is the one-pattern case of the same fold, and annealing always
walks its reduced model, which with no pins equals the model itself.
Annealing keeps every bit's local field, as
single-flip annealers do (Isakov et al., arXiv:1401.1084): the C kernel
_anneal.c sums each restart's fields over CSR neighbour lists and walks
them, updating the fields per accepted flip, with CPython's Mersenne
Twister, so it draws and rounds exactly as the same loop in Python
would.  The kernel is compiled with cc at the first annealing call and
cached next to the package's bytecode.  Restarts are independent walks,
and the kernel runs without the GIL, so every call with two or more
restarts walks them on threads, one per CPU of its affinity set; the
output is the same bytes as from one thread.  The exhaustive solver runs
in one thread.  The fold, the annealer's CSR lists and every energy read
the model's one term view, QuboModel.terms.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import operator
import os
import sys
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .algebra import QuboModel, energy

DEFAULT_BIT_CAP = 30
_CHUNK_BITS = 16  # the working block and its temp: 2^17 entries
# The annealing kernel, the command that compiles it and where the library
# is cached: the package's bytecode directory, trusted as the .pyc files are.
# No -ffast-math or -march=native: contraction or reassociation changes bits.
_KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_anneal.c")
_CC = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
_CACHE_DIR = os.path.join(os.path.dirname(_KERNEL_SOURCE), "__pycache__")


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
        if self.sweeps > 2 ** 63 - 1:  # the kernel counts sweeps in an int64
            raise ValueError("sweeps must be <= 2**63 - 1")
        # an infinite ratio jumps the ladder to inf, or to nan at inf / inf
        if not (0 < self.beta_initial <= self.beta_final
                and self.beta_final / self.beta_initial < math.inf):
            raise ValueError("need 0 < beta_initial <= beta_final and a finite ratio of the two")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")

    def ladder(self) -> tuple[float, float]:
        """(beta0, ratio) of the geometric beta ladder: sweep s runs at
        beta0 * ratio ** s, from beta_initial to beta_final, or at
        beta_final alone in one sweep.  A walk computes each beta as it
        starts the sweep, so it holds O(1) of the ladder."""
        if self.sweeps == 1:
            return self.beta_final, 1.0
        return self.beta_initial, (self.beta_final / self.beta_initial) ** (1.0 / (self.sweeps - 1))


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
    with contextlib.suppress(ValueError):
        if (cap := int(raw)) >= 0:
            return cap
    raise ValueError(f"RELUQUBO_BIT_CAP must be an integer >= 0, got {raw!r}")


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


def _subset_sums(V: np.ndarray, S: np.ndarray) -> None:
    """Fill rows 1.. of S, of 2^len(V) rows: row k = S[0] + the sum of the rows
    V[i] with bit i of k set (LSB = row 0), by additive doubling: BLAS
    threads stall on such small products."""
    for i, v in enumerate(V):
        np.add(S[:1 << i], v, out=S[1 << i:2 << i])


def _energies(Q: np.ndarray) -> np.ndarray:
    """b·Q·bᵀ of all 2^n states b in integer order, Q strictly upper-triangular."""
    F = np.zeros((1 << len(Q), len(Q)))
    _subset_sums(Q, F)  # F[k, j] = sum_{i<j} b_i Q_ij for k < 2^j
    E = np.zeros(len(F))
    for j in range(len(Q)):
        np.add(E[:1 << j], F[:1 << j, j], out=E[1 << j:2 << j])
    return E


def _min_out_set(coupled: np.ndarray) -> np.ndarray:
    """Mask of pairwise-uncoupled bits of the symmetric bool pattern
    coupled, picked greedily: lowest degree first, index order on ties."""
    degree = coupled.sum(axis=1).tolist()
    taken = np.zeros(len(coupled), dtype=bool)
    blocked = taken.copy()
    # sorted(), not numpy's sorts, which page in 0.1-0.25 MB of code (RSS)
    for i in sorted(range(len(coupled)), key=degree.__getitem__):
        if not blocked[i]:
            taken[i] = True
            blocked |= coupled[i]
    return taken


def _lowest(bits: np.ndarray) -> np.ndarray:
    """The row of a 0/1 matrix that reads as the lowest integer, column 0
    the least significant bit."""
    for j in reversed(range(bits.shape[1])):
        if len(bits) == 1:
            break
        if (zero := ~bits[:, j]).any():
            bits = bits[zero]
    return bits[0]


def _min_out_argmins(Q: np.ndarray, diagonals: np.ndarray) -> list[np.ndarray]:
    """Free-bit values (bool) of the lowest assignment integer among the
    minima of b·(Q + diag(d))·bᵀ, for each row d of diagonals; Q is the
    shared strictly upper-triangular coupling block.

    The pairwise-uncoupled bits S of _min_out_set are summed out (bucket
    elimination, Dechter 2003): bit s adds min(0, field_s), its field
    d_s + A_s[lo] + B_s[hi] being its linear term plus its couplings to
    the enumerated bits, and is 1 exactly when field_s < 0.  The other
    bits meet in the middle (Horowitz & Sahni, JACM 1974) over lo = their
    low ceil(n/2) bits and hi = the rest:
    E = E_hi[hi] + E_lo[lo] + sum_{j in hi} b_j G[lo, j] + sum_s min(0, field_s),
    scanned in (hi, lo) row chunks of 2^_CHUNK_BITS entries (one row, if
    longer).  d_s + B_s[hi] is folded into the row term, which leaves one
    np.minimum(A_s[lo], -(d_s + B_s[hi])) and one add per s and chunk.
    Every table that does not depend on d (S, G, A, B and the off-diagonal
    half energies) is built once; each pattern adds its diagonal subset
    sums.  Equal kernel energies go to the lowest full assignment integer:
    the tied states of a chunk are all compared, since a summed-out bit
    may be the highest bit that differs.
    """
    n = len(Q)
    coupling = Q + Q.T
    summed = _min_out_set(coupling != 0)
    # not np.setdiff1d, which would import numpy.ma: +1.1 MB RSS
    S, R = np.flatnonzero(summed), np.flatnonzero(~summed)
    nl = (len(R) + 1) // 2
    nh = len(R) - nl
    lo, hi = R[:nl], R[nl:]
    E_lo, E_hi = _energies(Q[np.ix_(lo, lo)]), _energies(Q[np.ix_(hi, hi)])
    G = np.zeros((1 << nl, nh))
    _subset_sums(Q[np.ix_(lo, hi)], G)
    A, B = np.zeros((1 << nl, len(S))), np.zeros((1 << nh, len(S)))
    _subset_sums(coupling[np.ix_(lo, S)], A)
    _subset_sums(coupling[np.ix_(hi, S)], B)
    G, A, B = (np.ascontiguousarray(X.T) for X in (G, A, B))  # one row per bit
    r = min(nh, max(0, _CHUNK_BITS - nl))  # hi bits enumerated inside a chunk
    block = np.empty((1 << r, 1 << nl))  # the working block and its temp, refilled per chunk
    temp = np.empty_like(block)
    lo_bits, hi_bits = np.arange(nl), np.arange(nh)

    found = []
    for d in diagonals:
        D_lo, D_hi = np.zeros(1 << nl), np.zeros(1 << nh)
        _subset_sums(d[lo], D_lo)
        _subset_sums(d[hi], D_hi)
        e_lo = E_lo + D_lo
        neg_field = -(B + d[S, None])  # -(d_s + B_s[hi]), one row per s
        e_hi = E_hi + D_hi - neg_field.sum(axis=0)
        best_e, best = math.inf, np.zeros(n, dtype=bool)
        for c in range(1 << (nh - r)):
            rows = slice(c << r, (c + 1) << r)
            block[0] = e_lo
            for j in range(r, nh):
                if c >> (j - r) & 1:
                    block[0] += G[j]
            _subset_sums(G[:r], block)
            block += e_hi[rows, None]
            for a, b in zip(A, neg_field):
                np.minimum(a, b[rows, None], out=temp)
                block += temp
            e = block.flat[int(np.argmin(block))]
            if e > best_e:
                continue
            row, col = np.divmod(np.flatnonzero(block == e), 1 << nl)
            row += c << r
            tied = np.empty((len(col), n), dtype=bool)
            tied[:, lo] = (col[:, None] >> lo_bits) & 1
            tied[:, hi] = (row[:, None] >> hi_bits) & 1
            tied[:, S] = (A[:, col] < neg_field[:, row]).T
            if e == best_e:
                tied = np.vstack((best, tied))
            best_e, best = e, _lowest(tied)
        found.append(best)
    return found


def exhaustive_solve(model: QuboModel,
                     fixed: Mapping[int, int] | None = None) -> SolveResult:
    """Global minimum over every free-bit assignment.

    A greedy set of pairwise-uncoupled free bits is summed out, each bit
    set exactly when its field is negative, and the other free bits are
    enumerated (_min_out_argmins).  Deterministic: exact ties of the
    kernel's energies go to the lowest assignment integer (LSB = lowest
    free variable); the reported energy is re-evaluated by energy().
    Fixed bits are folded into the free bits' block in O(|E| + nf^2).
    Raises BitCapExceeded when the free-bit count, summed-out bits
    included, exceeds the cap (default 30, env RELUQUBO_BIT_CAP).
    """
    return exhaustive_solve_many(model, [fixed or {}])[0]


def exhaustive_solve_many(model: QuboModel,
                          fixes: Sequence[Mapping[int, int]]) -> list[SolveResult]:
    """exhaustive_solve(model, fixed=p) for every pattern p in fixes.

    Every pattern must pin the same indices.  The model is folded once:
    the free x free block is shared, and each distinct pattern gets its
    own diagonal, summed in the same order as a single solve sums it, so
    each result equals the single solve's exactly.  The block fixes the
    summed-out bits, and its cross sums, couplings and off-diagonal half
    energies are built once for the family; each distinct pattern adds
    its diagonal and is enumerated once.  Duplicate patterns share one
    result, and every result carries the wall time of the whole call.
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
    for fixed, bits in zip(patterns, _min_out_argmins(Q, diagonals)):
        assignment = _lift(model, fixed, free, bits.astype(np.uint8).tolist())
        solved.append((assignment, energy(model, assignment)))
    wall = time.perf_counter() - t0
    results = [SolveResult(a, e, [], "exhaustive", wall) for a, e in solved]
    return [results[k] for k in slots]


def _csr(model: QuboModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(start, nbr, coef, lin) of the model for the kernel: row i's neighbours
    and couplings are nbr and coef[start[i]:start[i + 1]], its lower
    neighbours first, then its upper ones, each ascending (the term view
    lists couplings in key order, and the sort is stable); lin[i] is i's
    linear term.  So the kernel sums a field as np.add.at over the terms
    would: couplings in neighbour order, then the linear term."""
    i, j, c = model.terms
    pair = i != j
    qi, qj, qc = i[pair], j[pair], c[pair]
    ends = np.concatenate((qj, qi))
    # Stable, as QuboModel's lexsort: the default sort's SIMD code adds ~0.4 MB RSS.
    order = np.argsort(ends, kind="stable")
    start = np.zeros(model.n_vars + 1, np.int64)
    np.cumsum(np.bincount(ends, minlength=model.n_vars), out=start[1:])
    nbr = np.concatenate((qi, qj)).astype(np.int32)[order]
    coef = np.concatenate((qc, qc))[order]
    lin = np.zeros(model.n_vars)
    lin[i[~pair]] = c[~pair]
    return start, nbr, coef, lin


def _build(path: str) -> None:
    """Compile the kernel to path.  A missing or failing compiler is an
    OSError with a one-line message, which the CLI reports as an error."""
    import subprocess  # only on a cold cache: it adds to every CLI call's start-up
    try:
        proc = subprocess.run([*_CC, "-o", path, _KERNEL_SOURCE, "-lm"],
                              capture_output=True, text=True)
    except OSError as exc:
        raise OSError(f"annealing compiles its kernel with a C compiler, and running "
                      f"{_CC[0]!r} failed: {exc.strerror or exc}") from None
    if proc.returncode != 0:
        detail = (proc.stderr.strip().splitlines() or ["no message"])[0]
        raise OSError(f"{_CC[0]!r} could not compile {_KERNEL_SOURCE} "
                      f"(exit {proc.returncode}): {detail}")


def _load(path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(path)
    p, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.seed_bits.argtypes = (p, ctypes.c_char_p, i64, p, i64)
    lib.fields.argtypes = (i64, p, p, p, p, p, p)
    lib.walk.argtypes = (p, i64, i64, f64, f64, p, p, p, p, p, f64, p)
    lib.seed_bits.restype = lib.fields.restype = lib.walk.restype = None
    return lib


@cache
def _kernel(cache_dir: str) -> ctypes.CDLL:
    """The compiled walk of _anneal.c, loaded once per process and cache dir.

    The library is named by the CRC-32 of the source, the compile command
    and the interpreter's cache tag.  On a miss it is compiled to a mkstemp
    name in cache_dir and moved into place by os.replace, so processes that
    build at once each load a complete file.  When cache_dir cannot be
    written, the library is built in a private mkdtemp directory (mode
    0700), loaded and deleted.
    """
    with open(_KERNEL_SOURCE, "rb") as fh:
        tag = zlib.crc32(b"\0".join([fh.read(), " ".join(_CC).encode(),
                                      sys.implementation.cache_tag.encode()]))
    path = os.path.join(cache_dir, f"_anneal-{tag:08x}.so")
    if os.path.isfile(path):
        return _load(path)
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(".so", "_anneal-", cache_dir)
    except OSError:  # an unwritable cache: build for this process alone
        with tempfile.TemporaryDirectory() as private:
            _build(os.path.join(private, "_anneal.so"))
            return _load(os.path.join(private, "_anneal.so"))
    os.close(fd)
    try:
        _build(tmp)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return _load(path)


def _restarts(kernel: ctypes.CDLL, model: QuboModel, config: AnnealConfig,
              csr: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
              restarts: Iterable[int]) -> list[tuple[float, tuple[int, ...]]]:
    """(energy, bits) of the best state of each restart r in restarts: the
    kernel's walk seeded as random.Random(config.seed + r), over the lists
    of _csr(model), from the kernel's fields and the energy of energy()."""
    n = model.n_vars
    beta0, ratio = config.ladder()
    start, nbr, coef, lin = (a.ctypes.data for a in csr)
    found = []
    for r in restarts:
        seed = config.seed + r  # as random.Random seeds: |int|, or a float's hash as unsigned
        seed = hash(seed) % 2 ** 64 if isinstance(seed, float) else abs(operator.index(seed))
        words = max(1, (seed.bit_length() + 31) // 32)
        mt = (ctypes.c_uint32 * 625)()  # MT19937's 624 words and its read position
        b, best, f = np.empty(n, np.uint8), np.empty(n, np.uint8), np.empty(n)
        kernel.seed_bits(mt, seed.to_bytes(4 * words, "little"), words, b.ctypes.data, n)
        kernel.fields(n, start, nbr, coef, lin, b.ctypes.data, f.ctypes.data)
        kernel.walk(mt, n, config.sweeps, beta0, ratio, start, nbr, coef, b.ctypes.data,
                    f.ctypes.data, energy(model, b.tolist()), best.ctypes.data)
        best_b = tuple(best.tolist())
        found.append((energy(model, best_b), best_b))
    return found


def _fan_out(walk: Callable[[range], list], restarts: int, workers: int) -> list:
    """walk's items for restarts 0..restarts-1, in restart order.

    walk takes a range of restarts and returns one item per restart.  The
    restarts split into the shares r = k (mod workers).  Share 0 runs in
    the calling thread and each other share on a thread of its own.  A
    share whose thread cannot start, or whose walk raises there, runs in
    the calling thread after share 0, so any error surfaces here.  Every thread is joined before the call returns or raises.
    """
    shares = [range(k, restarts, workers) for k in range(workers)]
    found: list[list | None] = [None] * workers

    def run(k: int) -> None:
        with contextlib.suppress(Exception):  # share k runs again in the caller
            found[k] = walk(shares[k])

    threads = []
    try:
        for k in range(1, workers):
            thread = threading.Thread(target=run, args=(k,))
            try:
                thread.start()
            except RuntimeError:  # no thread to be had: share k runs here below
                continue
            threads.append(thread)
        found[0] = walk(shares[0])
    finally:
        for thread in threads:
            thread.join()
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
    the result is order-independent.  Every call walks the reduced model
    of fix_bits(model, fixed or {}), whose offset carries the fixed
    contributions, so its restart energies are full-model energies; with
    no pins it equals the model.  The best walk is lifted back to the
    full model, and the reported energy is re-evaluated there, so it
    equals energy(model, assignment) exactly.  An empty model takes the
    same path: no sweep flips anything.

    The walk runs in the compiled kernel (_kernel), built at the first
    call in a process, before any thread starts; a missing C compiler
    raises OSError.  It draws the initial bits as random.Random(seed + r)
    does with randrange(2), sums the fields over the CSR rows of _csr,
    built once per call with int32 neighbour indices, starts from the
    energy of energy(), and runs the loop of tests/test_solvers.py's
    reference_anneal: an accepted flip of bit i adds +-c to the local
    field of each neighbour in i's row.  The betas are computed one sweep
    at a time from AnnealConfig.ladder(), so memory does not grow with
    config.sweeps.

    The restarts are split over w = min(CPUs in this process's affinity
    set, restarts) workers: the calling thread and w - 1 threads
    (_fan_out), which walk at once, since the kernel runs without the
    GIL.  A walk runs the same arithmetic on any thread and the merge
    puts the walks back in restart order, so every output is the same as
    from one thread.  Where os.sched_getaffinity is missing, every walk
    runs in the calling thread.
    """
    t0 = time.perf_counter()
    fixed = fixed or {}
    sub, free = fix_bits(model, fixed)
    kernel = _kernel(_CACHE_DIR)
    workers = 1
    if hasattr(os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), config.restarts)
    restart_best = _fan_out(partial(_restarts, kernel, sub, config, _csr(sub)),
                            config.restarts, workers)

    # on equal-length 0/1 tuples, comparing the highest bit first is integer order
    best_b = min(restart_best, key=lambda p: (p[0], p[1][::-1]))[1]
    assignment = _lift(model, fixed, free, best_b)
    return SolveResult(assignment, energy(model, assignment), [e for e, _ in restart_best],
                       "sa", time.perf_counter() - t0)
