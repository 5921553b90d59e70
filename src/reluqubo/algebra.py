"""Symbolic algebra over binary variables and QUBO/Ising model containers.

Affine and quadratic expressions keep their coefficients in sparse maps
keyed by bit variables.  Pair terms can only be created by multiplying two
affine expressions, and a bit squared folds back into a linear term
(b*b = b on {0, 1}), so everything stays two-body by construction.

All values here are treated as immutable once built: every operation
returns a new expression or model, so instances can be shared freely
across threads without locking.

A BitVar hashes by its id alone, which agrees with its (id, label)
equality and spares each of the ~10^6 dict lookups of a wide build a
tuple hash.  A QuadraticExpr built by hand is normalized in __post_init__
(pair keys ordered by id, squares folded, zeros pruned); affine_mul and
quad_scale_add already produce that form, so QuadraticExpr._normalized
only prunes their zeros.

Sign conventions
----------------
QUBO energy:   E(b) = offset + sum_i q_i b_i + sum_{i<j} q_ij b_i b_j
Ising energy:  H(s) = offset - sum_{i<j} J_ij s_i s_j - sum_i h_i s_i

with s_i = 2 b_i - 1 in {-1, +1}.  The Ising form carries the leading
minus signs; couplings are stored once per unordered pair (i < j).  No
hardware vendor convention is implied by this choice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np


class QuboParseError(ValueError):
    """Raised when a qubo-v1 text model cannot be parsed."""


@dataclass(frozen=True, order=True)
class BitVar:
    """A single binary variable, identified by a dense integer id."""

    id: int
    label: str

    def __hash__(self) -> int:
        return self.id

    def __repr__(self) -> str:
        return f"BitVar({self.id}, {self.label!r})"


def _clean(terms: Mapping[BitVar, float]) -> dict[BitVar, float]:
    return {v: float(c) for v, c in terms.items() if c != 0.0}


@dataclass
class AffineExpr:
    """Degree <= 1 polynomial over bit variables: constant + sum coeff*b."""

    terms: dict[BitVar, float] = field(default_factory=dict)
    constant: float = 0.0

    def __post_init__(self) -> None:
        self.terms = _clean(self.terms)
        self.constant = float(self.constant)

    @classmethod
    def from_constant(cls, c: float) -> "AffineExpr":
        return cls({}, c)

    def variables(self) -> set[BitVar]:
        return set(self.terms)

    def evaluate(self, values: Mapping[BitVar, int]) -> float:
        """Value at a {0, 1} assignment given as a map BitVar -> bit."""
        total = self.constant
        for v, c in self.terms.items():
            if values[v]:
                total += c
        return total

    def scaled(self, scale: float) -> "AffineExpr":
        if scale == 0.0:
            return AffineExpr({}, 0.0)
        return AffineExpr({v: c * scale for v, c in self.terms.items()},
                          self.constant * scale)

    def __add__(self, other: "AffineExpr | float") -> "AffineExpr":
        if isinstance(other, (int, float)):
            other = AffineExpr.from_constant(float(other))
        return affine_add(self, other)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return self.scaled(-1.0)

    def __sub__(self, other: "AffineExpr | float") -> "AffineExpr":
        if isinstance(other, (int, float)):
            other = AffineExpr.from_constant(float(other))
        return affine_add(self, other.scaled(-1.0))

    def __rsub__(self, other: float) -> "AffineExpr":
        return affine_add(AffineExpr.from_constant(float(other)), self.scaled(-1.0))

    def __mul__(self, other: "AffineExpr | float"):
        if isinstance(other, (int, float)):
            return self.scaled(float(other))
        return affine_mul(self, other)

    def __rmul__(self, other: float) -> "AffineExpr":
        return self.scaled(float(other))


def affine_add(a: AffineExpr, b: AffineExpr) -> AffineExpr:
    """Sum of two affine expressions; coefficients merge by variable."""
    terms = dict(a.terms)
    for v, c in b.terms.items():
        terms[v] = terms.get(v, 0.0) + c
    return AffineExpr(terms, a.constant + b.constant)


def _pair_key(u: BitVar, v: BitVar) -> tuple[BitVar, BitVar]:
    return (u, v) if u.id < v.id else (v, u)


@dataclass
class QuadraticExpr:
    """Degree <= 2 polynomial over bit variables.

    Pair keys are normalized so the lower-id variable comes first; squares
    are folded into the linear part, so no key ever pairs a variable with
    itself.
    """

    pairs: dict[tuple[BitVar, BitVar], float] = field(default_factory=dict)
    linear: dict[BitVar, float] = field(default_factory=dict)
    constant: float = 0.0

    def __post_init__(self) -> None:
        norm: dict[tuple[BitVar, BitVar], float] = {}
        lin = dict(self.linear)
        for (u, v), c in self.pairs.items():
            if c == 0.0:
                continue
            if u.id == v.id:
                lin[u] = lin.get(u, 0.0) + c
                continue
            k = _pair_key(u, v)
            norm[k] = norm.get(k, 0.0) + float(c)
        self.pairs = {k: c for k, c in norm.items() if c != 0.0}
        self.linear = _clean(lin)
        self.constant = float(self.constant)

    @classmethod
    def _normalized(cls, pairs: dict[tuple[BitVar, BitVar], float],
                    linear: dict[BitVar, float], constant: float) -> "QuadraticExpr":
        """An expression over already normalized float terms, taken over
        without a copy; zeros are pruned in place, keeping the key order."""
        for terms in (pairs, linear):
            for k in [k for k, c in terms.items() if c == 0.0]:
                del terms[k]
        expr = cls.__new__(cls)
        expr.pairs, expr.linear, expr.constant = pairs, linear, constant
        return expr

    def variables(self) -> set[BitVar]:
        out = set(self.linear)
        for u, v in self.pairs:
            out.add(u)
            out.add(v)
        return out

    def evaluate(self, values: Mapping[BitVar, int]) -> float:
        total = self.constant
        for v, c in self.linear.items():
            if values[v]:
                total += c
        for (u, v), c in self.pairs.items():
            if values[u] and values[v]:
                total += c
        return total

    def __mul__(self, scale: float) -> "QuadraticExpr":
        return quad_scale_add(QuadraticExpr(), self, float(scale))

    __rmul__ = __mul__


def affine_mul(a: AffineExpr, b: AffineExpr) -> QuadraticExpr:
    """Product of two affine expressions as a quadratic expression.

    b_i * b_i collapses to b_i, so the result stays degree <= 2 with
    normalized pair keys.
    """
    pairs: dict[tuple[BitVar, BitVar], float] = {}
    linear: dict[BitVar, float] = {}
    b_terms = [(v, v.id, cv) for v, cv in b.terms.items()]
    for u, cu in a.terms.items():
        uid = u.id
        for v, vid, cv in b_terms:
            c = cu * cv
            if uid == vid:
                linear[u] = linear.get(u, 0.0) + c
            else:
                k = (u, v) if uid < vid else (v, u)
                pairs[k] = pairs.get(k, 0.0) + c
    if b.constant != 0.0:
        for u, cu in a.terms.items():
            linear[u] = linear.get(u, 0.0) + cu * b.constant
    if a.constant != 0.0:
        for v, cv in b.terms.items():
            linear[v] = linear.get(v, 0.0) + a.constant * cv
    return QuadraticExpr._normalized(pairs, linear, a.constant * b.constant)


def quad_scale_add(dst: QuadraticExpr, src: QuadraticExpr, scale: float) -> QuadraticExpr:
    """dst + scale * src as a new quadratic expression."""
    scale = float(scale)
    if scale == 0.0:
        return QuadraticExpr._normalized(dict(dst.pairs), dict(dst.linear), dst.constant)
    pairs = dict(dst.pairs)
    for k, c in src.pairs.items():
        pairs[k] = pairs.get(k, 0.0) + scale * c
    linear = dict(dst.linear)
    for v, c in src.linear.items():
        linear[v] = linear.get(v, 0.0) + scale * c
    return QuadraticExpr._normalized(pairs, linear, dst.constant + scale * src.constant)


def _validated(n: int, linear: Mapping[int, float],
               quadratic: Mapping[tuple[int, int], float], offset: float,
               labels: Sequence[str] | None, names: tuple[str, str, str]
               ) -> tuple[dict[int, float], dict[tuple[int, int], float], float, list[str]]:
    """Checked, canonical (linear, quadratic, offset, labels) of a model.

    names gives the model's field names for its size, linear and pair
    terms, used in error messages.  Indices must lie in [0, n) with i < j
    for pairs, and every value must be finite.  Zero coefficients are
    pruned, and labels default to b0..b{n-1} and must be unique.
    """
    size, lin_name, quad_name = names
    if n < 0:
        raise ValueError(f"{size} must be >= 0")
    # canonical key order makes energy sums reproducible across models
    # that merely inserted their terms differently
    lin: dict[int, float] = {}
    for i, c in sorted(linear.items()):
        if not 0 <= i < n:
            raise ValueError(f"{lin_name} index {i} out of range [0, {n})")
        if not math.isfinite(c):  # the message is formatted only on failure
            raise ValueError(f"{lin_name} coefficient for {i} must be finite, got {c!r}")
        if c != 0.0:
            lin[int(i)] = float(c)
    quad: dict[tuple[int, int], float] = {}
    for (i, j), c in sorted(quadratic.items()):
        if not (0 <= i < j < n):
            raise ValueError(f"{quad_name} key ({i}, {j}) must satisfy 0 <= i < j < n")
        if not math.isfinite(c):
            raise ValueError(f"{quad_name} coefficient for ({i}, {j}) must be finite, "
                             f"got {c!r}")
        if c != 0.0:
            quad[(int(i), int(j))] = float(c)
    if not math.isfinite(offset):
        raise ValueError(f"offset must be finite, got {offset!r}")
    if labels is None:
        labels = [f"b{i}" for i in range(n)]
    else:
        labels = [str(s) for s in labels]
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise ValueError("labels must be unique")
    return lin, quad, float(offset), labels


@dataclass
class QuboModel:
    """Sparse QUBO over variables 0..n_vars-1.

    linear maps a variable index to its coefficient; quadratic maps an
    (i, j) pair with i < j to its coupling.  Zero coefficients are pruned
    at construction, so two models with identical energies on every
    assignment compare equal.

    terms is the one term view that energy, export_qubo and the solvers
    read: (i, j, c) arrays listing the linear terms as (i, i) in index
    order, then the couplings in key order.  It is built once here; no
    code changes a model after construction.
    """

    n_vars: int
    linear: dict[int, float] = field(default_factory=dict)
    quadratic: dict[tuple[int, int], float] = field(default_factory=dict)
    offset: float = 0.0
    labels: list[str] | None = None
    terms: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.linear, self.quadratic, self.offset, self.labels = _validated(
            self.n_vars, self.linear, self.quadratic, self.offset, self.labels,
            ("n_vars", "linear", "quadratic"))
        n_lin, n_quad = len(self.linear), len(self.quadratic)
        lin_i = np.fromiter(self.linear, np.intp, n_lin)
        pairs = np.fromiter(itertools.chain.from_iterable(self.quadratic), np.intp, 2 * n_quad)
        c = np.fromiter(itertools.chain(self.linear.values(), self.quadratic.values()),
                        float, n_lin + n_quad)
        self.terms = (np.concatenate((lin_i, pairs[0::2])),
                      np.concatenate((lin_i, pairs[1::2])), c)

    def energy(self, assignment: Sequence[int]) -> float:
        return energy(self, assignment)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no variable labeled {label!r}") from None


def energy(model: QuboModel, assignment: Sequence[int]) -> float:
    """QUBO energy of a {0, 1} assignment, offset included.

    The sum starts at the offset and adds the active terms one at a time
    in model.terms order: linear terms by index, then couplings by key.
    np.add.accumulate keeps that order (np.sum would add pairwise), so
    the result does not depend on numpy's summation strategy.
    """
    if len(assignment) != model.n_vars:
        raise ValueError(
            f"assignment length {len(assignment)} != n_vars {model.n_vars}")
    for b in assignment:
        if b not in (0, 1):
            raise ValueError(f"assignment entries must be 0 or 1, got {b!r}")
    i, j, c = model.terms
    on = np.array(assignment, dtype=bool)
    return float(np.add.accumulate(np.concatenate(([model.offset], c[on[i] & on[j]])))[-1])


def quadratic_to_model(expr: QuadraticExpr,
                       variables: Sequence[BitVar] | None = None) -> QuboModel:
    """Materialize a quadratic expression as a QuboModel.

    variables fixes the model's index order and may include bits the
    expression never touches; ids must be dense 0..n-1.  When omitted,
    the expression's own variables are used.
    """
    if variables is None:
        variables = sorted(expr.variables(), key=lambda v: v.id)
    variables = list(variables)
    n = len(variables)
    index = {v: v.id for v in variables}
    if list(index.values()) != list(range(n)):
        raise ValueError("variable ids must be dense 0..n-1 in id order")
    try:
        linear = {index[v]: c for v, c in expr.linear.items()}
        quadratic = {(index[u], index[v]): c for (u, v), c in expr.pairs.items()}
    except KeyError:
        missing = expr.variables().difference(variables)
        raise ValueError(f"expression uses bits outside the variable list: "
                         f"{sorted(missing)}") from None
    return QuboModel(n, linear, quadratic, expr.constant,
                     labels=[v.label for v in variables])


@dataclass
class IsingModel:
    """Spin model with couplings J (stored once per pair, i < j) and fields h."""

    n_spins: int
    J: dict[tuple[int, int], float] = field(default_factory=dict)
    h: dict[int, float] = field(default_factory=dict)
    offset: float = 0.0
    labels: list[str] | None = None

    def __post_init__(self) -> None:
        self.h, self.J, self.offset, self.labels = _validated(
            self.n_spins, self.h, self.J, self.offset, self.labels, ("n_spins", "h", "J"))

    def energy(self, spins: Sequence[int]) -> float:
        """H(s) = offset - sum J_ij s_i s_j - sum h_i s_i for s in {-1, +1}."""
        if len(spins) != self.n_spins:
            raise ValueError(
                f"spin vector length {len(spins)} != n_spins {self.n_spins}")
        for s in spins:
            if s not in (-1, 1):
                raise ValueError(f"spins must be -1 or +1, got {s!r}")
        total = self.offset
        for (i, j), c in self.J.items():
            total -= c * spins[i] * spins[j]
        for i, c in self.h.items():
            total -= c * spins[i]
        return total


def ising_from_qubo(model: QuboModel) -> IsingModel:
    """Equivalent spin model under b_i = (s_i + 1) / 2.

    Energies agree at every corresponding assignment up to float
    round-off.
    """
    n = model.n_vars
    J: dict[tuple[int, int], float] = {}
    h = {i: 0.0 for i in range(n)}
    offset = model.offset
    for i, q in model.linear.items():
        h[i] -= q / 2.0
        offset += q / 2.0
    for (i, j), q in model.quadratic.items():
        J[(i, j)] = -q / 4.0
        h[i] -= q / 4.0
        h[j] -= q / 4.0
        offset += q / 4.0
    return IsingModel(n, J, h, offset, labels=list(model.labels))


def qubo_from_ising(model: IsingModel) -> QuboModel:
    """Inverse of ising_from_qubo (s_i = 2 b_i - 1)."""
    n = model.n_spins
    linear = {i: 0.0 for i in range(n)}
    quadratic: dict[tuple[int, int], float] = {}
    offset = model.offset
    for i, c in model.h.items():
        linear[i] -= 2.0 * c
        offset += c
    for (i, j), c in model.J.items():
        quadratic[(i, j)] = -4.0 * c
        linear[i] += 2.0 * c
        linear[j] += 2.0 * c
        offset -= c
    return QuboModel(n, linear, quadratic, offset, labels=list(model.labels))


# --- qubo-v1 text format ---------------------------------------------------
#
# line 1: qubo-v1
# line 2: vars <n>
# line 3: offset <float>
# then:   <i> <j> <float>   one per stored coefficient, sorted by (i, j);
#         i == j is a linear term, i < j a coupling
# then:   label <i> <string>   one per variable
# '#' starts a comment line; floats use shortest round-trip decimals.

FORMAT_MAGIC = "qubo-v1"
MAX_VARS = 10 ** 6  # parse_qubo refuses larger files before allocating per-variable labels


def export_qubo(model: QuboModel) -> str:
    """Serialize to the qubo-v1 text format (deterministic byte-for-byte)."""
    lines = [FORMAT_MAGIC, f"vars {model.n_vars}", f"offset {model.offset!r}"]
    order = np.lexsort(model.terms[1::-1])  # keys (j, i): sorts by i, then j
    lines.extend(f"{i} {j} {c!r}" for i, j, c in zip(*(a[order].tolist() for a in model.terms)))
    lines.extend(f"label {i} {s}" for i, s in enumerate(model.labels))
    return "\n".join(lines) + "\n"


def _parse_index(token: str, lineno: int) -> int:
    """A token that passed str.isdigit() as an int; int() still refuses
    digits such as superscripts and more than sys.get_int_max_str_digits()."""
    try:
        return int(token)
    except ValueError:
        more = f"... ({len(token)} characters)" if len(token) > 20 else ""
        raise QuboParseError(f"line {lineno}: bad integer {token[:20]!r}{more}") from None


def parse_qubo(text: str) -> QuboModel:
    """Parse the qubo-v1 text format; inverse of export_qubo."""
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if len(rows) < 3:
        raise QuboParseError("truncated file: expected qubo-v1 header")

    (ln0, magic), (ln1, vars_line), (ln2, offset_line) = rows[0], rows[1], rows[2]
    if magic != FORMAT_MAGIC:
        raise QuboParseError(f"line {ln0}: expected {FORMAT_MAGIC!r} header, got {magic!r}")
    parts = vars_line.split()
    if len(parts) != 2 or parts[0] != "vars" or not parts[1].isdigit():
        raise QuboParseError(f"line {ln1}: expected 'vars <n>', got {vars_line!r}")
    n = _parse_index(parts[1], ln1)
    if n > MAX_VARS:
        raise QuboParseError(f"line {ln1}: vars {n} exceeds the limit of {MAX_VARS}")
    parts = offset_line.split()
    if len(parts) != 2 or parts[0] != "offset":
        raise QuboParseError(f"line {ln2}: expected 'offset <float>', got {offset_line!r}")
    try:
        offset = float(parts[1])
    except ValueError:
        raise QuboParseError(f"line {ln2}: bad float {parts[1]!r}") from None
    if not math.isfinite(offset):
        raise QuboParseError(f"line {ln2}: non-finite value {parts[1]!r}")

    linear: dict[int, float] = {}
    quadratic: dict[tuple[int, int], float] = {}
    labels: dict[int, str] = {}
    for lineno, line in rows[3:]:
        parts = line.split()
        if parts[0] == "label":
            if len(parts) < 3:
                raise QuboParseError(f"line {lineno}: expected 'label <i> <string>'")
            if not parts[1].isdigit():
                raise QuboParseError(f"line {lineno}: bad label index {parts[1]!r}")
            i = _parse_index(parts[1], lineno)
            if not 0 <= i < n:
                raise QuboParseError(f"line {lineno}: label index {i} out of range")
            if i in labels:
                raise QuboParseError(f"line {lineno}: duplicate label for variable {i}")
            labels[i] = line.split(None, 2)[2]
            continue
        if len(parts) != 3:
            raise QuboParseError(f"line {lineno}: expected '<i> <j> <float>', got {line!r}")
        si, sj, sc = parts
        if not (si.isdigit() and sj.isdigit()):
            raise QuboParseError(f"line {lineno}: bad indices in {line!r}")
        # int() inline; _parse_index runs only to word a failure.  QuboModel
        # checks each term's range, order and finiteness, naming its key.
        try:
            i, j = int(si), int(sj)
        except ValueError:
            i, j = _parse_index(si, lineno), _parse_index(sj, lineno)
        try:
            value = float(sc)
        except ValueError:
            raise QuboParseError(f"line {lineno}: bad float {sc!r}") from None
        if i == j:
            if i in linear:
                raise QuboParseError(f"line {lineno}: duplicate linear term for {i}")
            linear[i] = value
        else:
            if (i, j) in quadratic:
                raise QuboParseError(f"line {lineno}: duplicate coupling ({i}, {j})")
            quadratic[(i, j)] = value

    label_list: list[str] | None = None
    if labels:
        if len(labels) != n:
            missing = sorted(set(range(n)) - set(labels))
            raise QuboParseError(f"label table incomplete: missing {missing}")
        label_list = [labels[i] for i in range(n)]
    try:
        return QuboModel(n, linear, quadratic, offset, labels=label_list)
    except ValueError as exc:
        raise QuboParseError(str(exc)) from None


def all_assignments(n: int) -> Iterable[tuple[int, ...]]:
    """All {0,1}^n assignments in integer order (LSB = variable 0)."""
    for k in range(1 << n):
        yield tuple((k >> i) & 1 for i in range(n))
