"""Affine and quadratic forms over model bits, and QUBO/Ising model containers.

Forms are dense float64 arrays indexed by model bit.  An AffineExpr is a
coefficient vector plus a constant; a QuadraticExpr is one upper-triangular
matrix plus a constant, with the linear terms on its diagonal (b*b = b on
{0, 1}) and the coupling of bits i < j at [i, j].  Pair terms can only be
created by multiplying two affine forms, so everything stays two-body by
construction.  The operations refuse forms of different lengths, which
numpy would broadcast: every form a build makes spans all of the model's bits.

A QuboModel or IsingModel is its (i, j, c) term arrays: i == j marks a
linear term (a field), i < j a coupling.  They are checked and put in
canonical order once, at construction.  Producers (quadratic_to_model,
parse_qubo, the Ising conversions, the solvers' fold) hand over arrays,
and readers (energy, export_qubo, the solvers) read them; the dict views
linear/quadratic and h/J exist for callers and are built on access.
parse_qubo reads export_qubo's exact layout in bulk, other text line by line.

Built models equal, to the bit, those of the dict-keyed reference
algebra in tests/test_formulation.py: every entry gets the same float
additions in the same order.  A pair entry of a product sums at most two
products, u*v and v*u, and IEEE addition commutes.  An entry a dict
would not hold gets +-0.0 added, which changes no nonzero value, and a
zero result is pruned when the model is built either way.

All values here are treated as immutable once built: every operation
returns a new expression or model, so instances can be shared freely
across threads without locking.

Sign conventions
----------------
QUBO energy:   E(b) = offset + sum_i q_i b_i + sum_{i<j} q_ij b_i b_j
Ising energy:  H(s) = offset - sum_{i<j} J_ij s_i s_j - sum_i h_i s_i

with s_i = 2 b_i - 1 in {-1, +1}.  The Ising form carries the leading
minus signs; couplings are stored once per unordered pair (i < j).  No
hardware vendor convention is implied by this choice.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import islice
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np


# a model's (i, j, c) term arrays; i == j marks a linear term
Terms = tuple[np.ndarray, np.ndarray, np.ndarray]


class QuboParseError(ValueError):
    """Raised when a qubo-v1 text model cannot be parsed."""


def _same_length(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:  # numpy would broadcast a form of length 1
        raise ValueError(f"forms over {len(x)} and {len(y)} bits")


@dataclass(eq=False)
class AffineExpr:
    """Degree <= 1 polynomial over model bits: constant + sum coeffs[i]*b_i."""

    coeffs: np.ndarray
    constant: float = 0.0

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        self.constant = float(self.constant)

    def scaled(self, scale: float) -> "AffineExpr":
        return AffineExpr(self.coeffs * scale, self.constant * scale)

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        _same_length(self.coeffs, other.coeffs)
        return AffineExpr(self.coeffs + other.coeffs, self.constant + other.constant)

    def __neg__(self) -> "AffineExpr":
        return self.scaled(-1.0)

    def __sub__(self, other: "AffineExpr | float") -> "AffineExpr":
        if isinstance(other, (int, float)):
            return AffineExpr(self.coeffs, self.constant - other)
        return self + -other  # x - y is x + (-y) in IEEE


@dataclass(eq=False)
class QuadraticExpr:
    """Degree <= 2 polynomial over model bits: constant + b @ matrix @ b.

    matrix is upper-triangular: [i, i] holds bit i's linear coefficient
    and [i, j] with i < j the coupling of bits i and j.  There is no
    product of two quadratics; they only scale and add (quad_scale_add).
    """

    matrix: np.ndarray
    constant: float = 0.0

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.constant = float(self.constant)


def affine_mul(a: AffineExpr, b: AffineExpr) -> QuadraticExpr:
    """Product of two affine forms as a quadratic form.

    b_i * b_i collapses to b_i, so the result stays degree <= 2.  The
    pair (i, j) gets a_i*b_j + a_j*b_i; the diagonal gets a_i*b_i, then
    a_i*b.constant, then a.constant*b_i.
    """
    u, v = a.coeffs, b.coeffs
    _same_length(u, v)
    outer = np.multiply.outer(u, v)
    matrix = np.triu(outer + outer.T, 1)
    np.fill_diagonal(matrix, outer.diagonal() + u * b.constant + a.constant * v)
    return QuadraticExpr(matrix, a.constant * b.constant)


def quad_scale_add(dst: QuadraticExpr, src: QuadraticExpr, scale: float) -> QuadraticExpr:
    """dst + scale * src."""
    _same_length(dst.matrix, src.matrix)
    scale = float(scale)
    return QuadraticExpr(dst.matrix + scale * src.matrix, dst.constant + scale * src.constant)


def _as_float(x: object, name: str) -> float:
    """float(x), with a Python int past float range as +-inf for the
    finiteness checks.  A str or bytes, which float() would read, is a
    ValueError that names the field."""
    if isinstance(x, (str, bytes)):
        raise ValueError(f"{name} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _indices(t: object) -> np.ndarray:
    """A term index array as intp, or as object when it holds a value past
    intp, which the range check refuses by the value given.  An array of
    anything but integers, bools included, is a ValueError unless it is
    empty."""
    a = np.asarray(t)
    dtype = a.dtype
    # a sequence that mixes bools with ints infers an integer dtype; an
    # array cannot hide one, so only sequences are scanned
    if dtype.kind in "iu" and not isinstance(t, np.ndarray) \
            and not {bool, np.bool_}.isdisjoint(map(type, t)):
        dtype = np.dtype(bool)
    if dtype.kind == "O":
        ok = all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in a.flat)
    else:
        ok = dtype.kind in "iu" or a.size == 0
    if not ok:
        raise ValueError(f"term indices must be integers, got dtype {dtype}")
    if dtype.kind == "u" and a.size and a.max() > np.iinfo(np.intp).max:
        return a.astype(object)  # the cast to intp would wrap it negative
    try:
        return np.asarray(a, np.intp)
    except OverflowError:
        return a


def _checked_terms(n: int, terms: Terms, names: tuple[str, str, str]) -> Terms:
    """Checked, canonical (i, j, c) term arrays of a model over n variables.

    The terms come back linear terms by index, then couplings by key, so
    energy sums are reproducible across models that merely listed their
    terms differently, and zero coefficients are pruned.  An index outside
    [0, n), a pair with i > j, a non-finite value or a repeated key is a
    ValueError that names the first such key in that order.  names gives
    the model's field names for its size, linear and pair terms.
    """
    size, lin_name, quad_name = names
    if n < 0:
        raise ValueError(f"{size} must be >= 0")
    ti, tj, tc = terms
    c = np.asarray(tc)
    if c.dtype.kind in "OSU":  # Python ints past float range, or text
        c = np.array([_as_float(x, "term coefficient") for x in c.ravel().tolist()],
                     float).reshape(c.shape)
    else:
        c = np.asarray(c, float)
    i, j = _indices(ti), _indices(tj)
    if i.ndim != 1 or not i.shape == j.shape == c.shape:
        raise ValueError("terms must be three 1-D arrays of one length")
    order = np.lexsort((j, i, i != j))
    i, j, c = i[order], j[order], c[order]
    bad = (i < 0) | (i > j) | (j >= n) | ~np.isfinite(c)
    if bad.any():
        k = int(np.argmax(bad))
        i, j, c = int(i[k]), int(j[k]), float(c[k])
        if i == j and not 0 <= i < n:
            raise ValueError(f"{lin_name} index {i} out of range [0, {n})")
        if i != j and not 0 <= i < j < n:
            raise ValueError(f"{quad_name} key ({i}, {j}) must satisfy 0 <= i < j < n")
        name, key = (lin_name, i) if i == j else (quad_name, (i, j))
        raise ValueError(f"{name} coefficient for {key} must be finite, got {c!r}")
    repeat = (i[1:] == i[:-1]) & (j[1:] == j[:-1])
    if repeat.any():
        k = int(np.argmax(repeat)) + 1
        raise ValueError(f"duplicate {lin_name} term for {i[k]}" if i[k] == j[k]
                         else f"duplicate {quad_name} key ({i[k]}, {j[k]})")
    keep = c != 0.0
    return i[keep], j[keep], c[keep]


def _term_dict(terms: Terms, pairs: bool) -> Mapping:
    """Read-only {i: c} of the linear terms or, with pairs, {(i, j): c} of the couplings."""
    i, j, c = terms
    on = i != j if pairs else i == j
    keys = zip(i[on].tolist(), j[on].tolist()) if pairs else i[on].tolist()
    return MappingProxyType(dict(zip(keys, c[on].tolist())))


def _abs_sum_finite(constant: float, coeffs: np.ndarray) -> bool:
    """Whether |constant| + sum |coeffs|, which bounds every energy and
    partial sum of the form, is finite in float64; no overflow warning."""
    with np.errstate(over="ignore"):
        return math.isfinite(abs(constant) + np.abs(coeffs).sum())


class _TermModel:
    """What QuboModel and IsingModel share: the checks of their fields, and
    equality, where equal labels mean equal sizes."""

    _names: tuple[str, str, str]  # the size, linear and pair field names

    def __post_init__(self) -> None:
        n = getattr(self, self._names[0])
        self.terms = _checked_terms(n, self.terms, self._names)
        self.offset = _as_float(self.offset, "offset")
        if not math.isfinite(self.offset):
            raise ValueError(f"offset must be finite, got {self.offset!r}")
        if not _abs_sum_finite(self.offset, self.terms[2]):
            raise ValueError("|offset| + sum |coefficient| overflows float64, "
                             "so energies would too")
        labels = (f"b{i}" for i in range(n)) if self.labels is None else self.labels
        self.labels = [str(s) for s in labels]
        if len(self.labels) != n:
            raise ValueError(f"expected {n} labels, got {len(self.labels)}")
        if len(set(self.labels)) != n:
            raise ValueError("labels must be unique")
        for k, label in enumerate(self.labels):  # what a qubo-v1 label line carries
            if label.strip() != label or len(label.splitlines()) != 1:
                raise ValueError(f"label {k} ({label!r}) must be one line, non-empty, "
                                 f"without leading or trailing whitespace")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.offset == other.offset and self.labels == other.labels
                and all(map(np.array_equal, self.terms, other.terms)))


@dataclass(eq=False)
class QuboModel(_TermModel):
    """Sparse QUBO over variables 0..n_vars-1.

    The model is its terms, in the canonical form of _checked_terms, so
    two models with identical energies on every assignment compare equal.
    energy, export_qubo and the solvers read them; no code changes a model
    after construction.  linear {i: c} and quadratic {(i, j): c} are
    read-only dict views, built on each access.
    """

    n_vars: int
    terms: Terms = ((), (), ())
    offset: float = 0.0
    labels: list[str] | None = None
    linear = property(lambda self: _term_dict(self.terms, pairs=False))
    quadratic = property(lambda self: _term_dict(self.terms, pairs=True))
    _names = ("n_vars", "linear", "quadratic")


def _check_bits(assignment: Sequence[int], n: int) -> None:
    """ValueError unless the assignment is n entries of 0 or 1."""
    if len(assignment) != n:
        raise ValueError(f"assignment length {len(assignment)} != n_vars {n}")
    for b in assignment:
        if b not in (0, 1):
            raise ValueError(f"assignment entries must be 0 or 1, got {b!r}")


def energy(model: QuboModel, assignment: Sequence[int]) -> float:
    """QUBO energy of a {0, 1} assignment, offset included.

    The sum starts at the offset and adds the active terms one at a time
    in model.terms order: linear terms by index, then couplings by key.
    np.add.accumulate keeps that order (np.sum would add pairwise), so
    the result does not depend on numpy's summation strategy.
    """
    _check_bits(assignment, model.n_vars)
    i, j, c = model.terms
    on = np.array(assignment, dtype=bool)
    return float(np.add.accumulate(np.concatenate(([model.offset], c[on[i] & on[j]])))[-1])


def quadratic_to_model(expr: QuadraticExpr, labels: Sequence[str]) -> QuboModel:
    """Materialize a quadratic form as a QuboModel over len(labels) bits.

    The labels may outnumber the form's bits; a nonzero entry past them
    is an out-of-range index, which QuboModel refuses.
    """
    q = expr.matrix
    rows, cols = np.nonzero(q)
    return QuboModel(len(labels), (rows, cols, q[rows, cols]), expr.constant, list(labels))


@dataclass(eq=False)
class IsingModel(_TermModel):
    """Spin model over spins 0..n_spins-1, held like QuboModel: fields h_i
    as terms (i, i, h_i) and couplings J_ij as (i, j, J_ij) with i < j,
    checked and ordered the same way.  h and J are read-only dict views."""

    n_spins: int
    terms: Terms = ((), (), ())
    offset: float = 0.0
    labels: list[str] | None = None
    h = property(lambda self: _term_dict(self.terms, pairs=False))
    J = property(lambda self: _term_dict(self.terms, pairs=True))
    _names = ("n_spins", "h", "J")

    def energy(self, spins: Sequence[int]) -> float:
        """H(s) = offset - sum J_ij s_i s_j - sum h_i s_i for s in {-1, +1},
        subtracting the couplings in key order, then the fields by index."""
        if len(spins) != self.n_spins:
            raise ValueError(
                f"spin vector length {len(spins)} != n_spins {self.n_spins}")
        for s in spins:
            if s not in (-1, 1):
                raise ValueError(f"spins must be -1 or +1, got {s!r}")
        i, j, c = self.terms
        s = np.array(spins, dtype=float)
        hs = i == j
        v = c * s[i] * np.where(hs, 1.0, s[j])
        return float(np.add.accumulate(np.concatenate(([self.offset], -v[~hs], -v[hs])))[-1])


def _substituted(model: QuboModel | IsingModel, to: type, lin: tuple[float, float],
                 pair: tuple[float, float, float]) -> QuboModel | IsingModel:
    """The model after a change of variables between bits and spins, as a `to`.

    A linear term c adds c*lin[0] to its variable's linear term and
    c*lin[1] to the offset.  A coupling c adds c*pair[0] to the linear
    terms of i, then of j, and c*pair[1] to the offset, and becomes
    c*pair[2].  Linear terms start at 0.0 and the offset at its old value;
    np.add.at and np.add.accumulate add in term order, linear terms first.
    """
    n = len(model.labels)
    i, j, c = model.terms
    on = i == j
    pi, pj, pc = i[~on], j[~on], c[~on]
    diagonal = np.zeros(n)
    np.add.at(diagonal, np.concatenate((i[on], np.column_stack((pi, pj)).ravel())),
              np.concatenate((c[on] * lin[0], np.repeat(pc * pair[0], 2))))
    offset = np.add.accumulate(np.concatenate(([model.offset], c[on] * lin[1], pc * pair[1])))
    every = np.arange(n)
    terms = (np.concatenate((every, pi)), np.concatenate((every, pj)),
             np.concatenate((diagonal, pc * pair[2])))
    return to(n, terms, offset[-1], list(model.labels))


def ising_from_qubo(model: QuboModel) -> IsingModel:
    """Equivalent spin model under b_i = (s_i + 1) / 2.

    Energies agree at every corresponding assignment up to float
    round-off.
    """
    return _substituted(model, IsingModel, (-0.5, 0.5), (-0.25, 0.25, -0.25))


def qubo_from_ising(model: IsingModel) -> QuboModel:
    """Inverse of ising_from_qubo (s_i = 2 b_i - 1)."""
    return _substituted(model, QuboModel, (-2.0, 1.0), (2.0, -1.0, -4.0))


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
# a line but '<i> <j> <c>': indices of <= 19 digits, read alike by int() and numpy's intp
_ODD_TERM = re.compile(r"\n(?![0-9]{1,19} [0-9]{1,19} [-+.e0-9]+$)", re.MULTILINE)


def export_qubo(model: QuboModel) -> str:
    """Serialize to the qubo-v1 text format (deterministic byte-for-byte).

    Each distinct coefficient and each index is formatted once.  Terms are
    nonzero and finite, so equal floats print alike: -0.0 never meets 0.0.
    """
    lines = [FORMAT_MAGIC, f"vars {model.n_vars}", f"offset {model.offset!r}"]
    order = np.lexsort(model.terms[1::-1])  # keys (j, i): sorts by i, then j
    index = list(map(str, range(model.n_vars)))
    # set, not np.unique, whose sort pages in ~0.4 MB of SIMD code (RSS)
    text = {x: repr(x) for x in set(model.terms[2].tolist())}
    # the sorted term lists live as long as the zip, not through the join below (~1 MB)
    lines.extend(f"{index[i]} {index[j]} {text[c]}"
                 for i, j, c in zip(*(a[order].tolist() for a in model.terms)))
    lines.extend(f"label {i} {s}" for i, s in enumerate(model.labels))
    return "\n".join(lines) + "\n"


def _parse_index(token: str, where: str) -> int:
    """A token that passed str.isdigit() as an int, or an error after where ('line 3');
    int() still refuses superscripts and over sys.get_int_max_str_digits() digits."""
    try:
        return int(token)
    except ValueError:
        more = f"... ({len(token)} characters)" if len(token) > 20 else ""
        raise QuboParseError(f"{where}: bad integer {token[:20]!r}{more}") from None


def _read_canonical(text: str) -> QuboModel | None:
    """export_qubo's exact layout read by one np.loadtxt, or None for any other or refused text."""
    try:
        _, vars_line, offset_line, body = text.split("\n", 3)
        n, offset = int(vars_line[5:]), float(offset_line[7:])
        start = len(text) - len(body)  # the first term line
        cut = max(text.find("\nlabel ", start - 1), start - 1)  # the newline after them
        lines = text[cut + 1:].split("\n")
        labels = [line.partition(" ")[2].partition(" ")[2] for line in lines[:-1]]
        if not (text[:start] == f"{FORMAT_MAGIC}\nvars {n}\noffset {offset!r}\n" and n <= MAX_VARS
                and lines == [*(f"label {k} {s}" for k, s in enumerate(labels)), ""]
                and not _ODD_TERM.search(text, start - 1, cut)):
            return None
        return QuboModel(n, ((), (), ()) if cut <= start else np.loadtxt(
            text[start:cut].split("\n"), "intp,intp,f8", delimiter=" ", comments=None,
            ndmin=1, unpack=True), offset, labels)
    except ValueError:
        return None


def parse_qubo(text: str) -> QuboModel:
    """Parse the qubo-v1 text format; inverse of export_qubo."""
    if (model := _read_canonical(text)) is not None:
        return model
    rows = ((lineno, line) for lineno, line in enumerate(map(str.strip, text.splitlines()), 1)
            if line and not line.startswith("#"))  # one pass: header, then the rest
    try:
        (ln0, magic), (ln1, vars_line), (ln2, offset_line) = islice(rows, 3)
    except ValueError:
        raise QuboParseError("truncated file: expected qubo-v1 header") from None
    if magic != FORMAT_MAGIC:
        raise QuboParseError(f"line {ln0}: expected {FORMAT_MAGIC!r} header, got {magic!r}")
    parts = vars_line.split()
    if len(parts) != 2 or parts[0] != "vars" or not parts[1].isdigit():
        raise QuboParseError(f"line {ln1}: expected 'vars <n>', got {vars_line!r}")
    n = _parse_index(parts[1], f"line {ln1}")
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

    ti, tj, tc = [], [], []  # the terms' i, j and c
    labels: dict[int, str] = {}
    for lineno, line in rows:
        parts = line.split()
        if parts[0] == "label":
            if len(parts) < 3:
                raise QuboParseError(f"line {lineno}: expected 'label <i> <string>'")
            if not parts[1].isdigit():
                raise QuboParseError(f"line {lineno}: bad label index {parts[1]!r}")
            i = _parse_index(parts[1], f"line {lineno}")
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
        ti.append(_parse_index(si, f"line {lineno}"))
        tj.append(_parse_index(sj, f"line {lineno}"))
        try:
            tc.append(float(sc))
        except ValueError:
            raise QuboParseError(f"line {lineno}: bad float {sc!r}") from None

    if labels and len(labels) != n:
        missing = sorted(set(range(n)) - set(labels))
        raise QuboParseError(f"label table incomplete: missing {missing}")
    try:
        return QuboModel(n, (ti, tj, tc), offset, [s for _, s in sorted(labels.items())] or None)
    except ValueError as exc:
        raise QuboParseError(str(exc)) from None

