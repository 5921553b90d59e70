"""Builders for two-body models embedding ReLU-type penalties.

A ReLU-type f(m) = max(a*m, b*m) is the Legendre form max over t in
[a, b] of m*t.  The Wolfe multipliers z1, z2 >= 0 of the constraints
t >= a and t <= b turn it into one gadget, minimized jointly over m's
bits and fresh auxiliary variables t, z1, z2:

    C(m) + m*t + z1*(t - a) + z2*(b - t) + M*r^2,   r = -m - z1 + z2,

whose penalty part equals a*m + (b - a)*z2 - (t - a)*r + M*r^2.  Once
a large M drives r to zero, any t is optimal and the minimum over the
z grid is max(a*m, b*m): the t interval [-1, 0] of ReluPenaltySpec
gives the hinge max(0, -m), [-1, 1] gives |m| and [0, 1] ReLU.  The
JSON config builds the hinge only.  Every product is affine times
affine, so the result is structurally two-body.  Builders are pure
functions over immutable specs and are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    AffineExpr,
    QuadraticExpr,
    QuboModel,
    _abs_sum_finite,
    _as_float,
    _check_bits,
    affine_mul,
    quad_scale_add,
    quadratic_to_model,
)
from .encoding import BinaryExpansion


class ConfigError(ValueError):
    """Build-config validation failure; `path` names the offending JSON key."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at '{path}': {message}")


@dataclass(frozen=True)
class ReluPenaltySpec:
    """Expansions for t, z1, z2 plus the constraint weight M.

    t's interval [a, b] is the function max(a*m, b*m); z1 and z2 must
    start at 0 so the inequality constraints hold by construction.  A
    state with r != 0 costs at least f(m) - (b - a)*|r| + M*r^2, so M is
    sound when M times the smallest reachable |r| exceeds b - a.
    """

    t_exp: BinaryExpansion
    z1_exp: BinaryExpansion
    z2_exp: BinaryExpansion
    M: float

    def __post_init__(self) -> None:
        for name, exp in (("z1", self.z1_exp), ("z2", self.z2_exp)):
            if exp.beta != 0.0:
                raise ConfigError(f"penalty.{name}", f"{name} expansion must have lower "
                                                     f"bound exactly 0, got beta = {exp.beta}")
        if not (math.isfinite(self.M) and self.M > 0):
            raise ConfigError("penalty.M", f"penalty weight M must be finite and positive, "
                                           f"got {self.M!r}")


@dataclass(frozen=True)
class LinearModelSpec:
    """m = sum_d w_d x_d with one shared expansion for every weight."""

    inputs: tuple[float, ...]
    w_exp: BinaryExpansion

    def __post_init__(self) -> None:
        if len(self.inputs) < 1:
            raise ValueError("need at least one input dimension")
        object.__setattr__(self, "inputs", tuple(float(x) for x in self.inputs))
        step = self.w_exp.weights[0]  # bit k of w[d] enters m as weights[k] * x_d
        for d, x in enumerate(self.inputs):
            if not math.isfinite(x):
                raise ValueError(f"input x[{d}] must be finite, got {x!r}")
            if x == 0.0:
                raise ConfigError(f"model.inputs[{d}]", f"must be nonzero, got {x!r}")
            if step * x == 0.0:
                raise ConfigError(f"model.inputs[{d}]", f"{x!r} times the weight step {step!r} "
                                                        f"is 0, so its weight bits drop out of m")

    @property
    def dim(self) -> int:
        return len(self.inputs)

    def m_range(self) -> tuple[float, float]:
        """Interval of reachable m over all weight assignments."""
        lo_w, hi_w = self.w_exp.bounds
        lo = hi = 0.0
        for x in self.inputs:
            a, b = x * lo_w, x * hi_w
            lo += min(a, b)
            hi += max(a, b)
        return (lo, hi)


MAX_BUILD_VARS = 4096  # a build's n x n forms peak near 70 B per n^2: 1.2 GB at the cap


def _layout(m: LinearModelSpec | float,
            penalty: Sequence[BinaryExpansion] = ()) -> dict[str, range]:
    """Model bits of each group: w[d] the depth bits from d * depth on (none
    for a constant m), then t, z1, z2 those of the expansions in penalty.
    Over MAX_BUILD_VARS bits in all, a ConfigError naming 'model.inputs'."""
    dim, depth = (m.dim, m.w_exp.depth) if isinstance(m, LinearModelSpec) else (0, 0)
    n_vars = dim * depth + sum(exp.depth for exp in penalty)
    if n_vars > MAX_BUILD_VARS:
        raise ConfigError("model.inputs", f"the model would have {n_vars} variables, "
                                          f"more than the cap of {MAX_BUILD_VARS}")
    ranges = {f"w[{d}]": range(d * depth, (d + 1) * depth) for d in range(dim)}
    k = dim * depth
    for name, exp in zip(("t", "z1", "z2"), penalty):
        ranges[name], k = range(k, k + exp.depth), k + exp.depth
    return ranges


@dataclass(frozen=True)
class BuiltModel:
    """A built QUBO plus the specs it was built from, to decode its bits.

    m is the LinearModelSpec of the weight bits, or the constant m of a
    model without them, and cost_params the (target, scale) of the cost
    scale*(m - target)^2.
    """

    model: QuboModel
    penalty_spec: ReluPenaltySpec
    m: LinearModelSpec | float
    cost_params: tuple[float, float]

    @property
    def var_ranges(self) -> dict[str, range]:
        """Model indices of each group ('w[0]', 't', 'z1', 'z2'), as the build laid them out."""
        spec = self.penalty_spec
        return _layout(self.m, (spec.t_exp, spec.z1_exp, spec.z2_exp))

    def decode(self, assignment: Sequence[int]) -> tuple[float, float, float, float, float]:
        """(m, t, z1, z2, r) at the given assignment, r = -m - z1 + z2; m is
        sum_d x_d * w_d of the decoded weights, or the constant m.
        The assignment must be model.n_vars entries of 0 or 1."""
        _check_bits(assignment, self.model.n_vars)
        ranges, spec, m = self.var_ranges, self.penalty_spec, self.m

        def value(name: str, exp: BinaryExpansion) -> float:
            return exp.decode([assignment[i] for i in ranges[name]])

        if isinstance(m, LinearModelSpec):
            lin, m = m, 0.0
            for d, x in enumerate(lin.inputs):
                m += x * value(f"w[{d}]", lin.w_exp)
        t, z1, z2 = value("t", spec.t_exp), value("z1", spec.z1_exp), value("z2", spec.z2_exp)
        return m, t, z1, z2, -m - z1 + z2


def build_linear_model_expr(spec: LinearModelSpec) -> AffineExpr:
    """Affine form of m = sum_d x_d * w_d over the weight bits of _layout(spec)."""
    terms = zip(spec.inputs, _layout(spec).values())
    return sum((spec.w_exp.to_affine(bits).scaled(x) for x, bits in terms), AffineExpr())


def _finite(expr: QuadraticExpr, path: str) -> QuadraticExpr:
    """expr, or a ConfigError naming path when its |constant| + sum |coefficient|,
    the bound QuboModel puts on a model's energies, overflows float64."""
    if not _abs_sum_finite(expr.constant, expr.matrix):
        raise ConfigError(path, "the model's coefficients overflow float64")
    return expr


def build_cost_plus_relu(spec: ReluPenaltySpec, m: LinearModelSpec | float,
                         cost: tuple[float, float] = (0.0, 0.0)) -> BuiltModel:
    """C(m) = scale*(m - target)^2 of cost = (target, scale), plus the gadget
    formed as a*m + (b - a)*z2 - (t - a)*r + M*r^2.

    [a, b] are the spec's t bounds.  Its two products, (t - a)*(-r) and
    r*r, give each coefficient the same float as the primal form's four:
    each entry sums the same products, plus zeros.  m is a LinearModelSpec,
    whose weight bits come first, or a constant; t, z1, z2 bits follow
    (_layout, which refuses a model over MAX_BUILD_VARS bits before any
    product).  Bit i of group g is labeled g[i].  An overflowing product
    of forms is a ConfigError naming 'model', M times the squared residual
    one naming 'penalty.M', and the scaled cost one naming 'cost.scale'.
    """
    target, scale = cost
    exps = (spec.t_exp, spec.z1_exp, spec.z2_exp)
    ranges = _layout(m, exps)
    # an overflowing product is a ConfigError naming its key, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(m, LinearModelSpec):
            m_expr = build_linear_model_expr(m)
        else:
            m = float(m)
            m_expr = AffineExpr(constant=m)
        cost_expr = QuadraticExpr()
        if scale != 0.0:  # quad_scale_add would discard the whole product
            shifted = m_expr - target
            square = _finite(affine_mul(shifted, shifted), "model")
            cost_expr = _finite(quad_scale_add(cost_expr, square, scale), "cost.scale")
        t, z1, z2 = (exp.to_affine(ranges[name]) for name, exp in zip(("t", "z1", "z2"), exps))
        a, b = spec.t_exp.bounds
        residual = -m_expr - z1 + z2
        dual = m_expr.scaled(a) + z2.scaled(b - a)  # linear, so all on the diagonal
        dual = QuadraticExpr(np.diag(dual.coeffs), dual.constant)
        penalty = _finite(quad_scale_add(affine_mul(t - a, -residual), dual, 1.0), "model")
        square = _finite(affine_mul(residual, residual), "model")
        penalty = _finite(quad_scale_add(penalty, square, spec.M), "penalty.M")
        total = _finite(quad_scale_add(cost_expr, penalty, 1.0), "cost.scale")
        labels = [f"{name}[{i}]" for name, bits in ranges.items() for i in range(len(bits))]
        return BuiltModel(quadratic_to_model(total, labels), spec, m, (target, scale))


def recommend_M(m_lo: float, m_hi: float,
                z1_exp: BinaryExpansion, z2_exp: BinaryExpansion) -> float:
    """Constraint weight M = max(1, 4*max(|m_lo|, |m_hi|) / min z resolution).

    Sized so that violating the equality constraint by one z-grid step
    costs more than any objective gain available on the m range.
    """
    res = min(z1_exp.resolution, z2_exp.resolution)
    return max(1.0, 4.0 * max(abs(m_lo), abs(m_hi)) / res)


# --- JSON build config -------------------------------------------------------
#
# { "cost":    {"kind": "quadratic", "target": a, "scale": c},   C(m) = c*(m-a)^2
#   "model":   {"inputs": [x_1, ..., x_D], "w": {expansion}},
#   "penalty": {"t": {expansion}, "z1": {expansion}, "z2": {expansion},
#               "M": number | "auto"} }
# with {expansion} = {"depth": d, "alpha": a, "beta": b}.  t covers
# exactly [-1, 0]: a config builds the hinge.  "M": "auto" applies
# recommend_M to the reachable m range.


def _require(cfg: Mapping, key: str, path: str) -> object:
    if not isinstance(cfg, Mapping):
        raise ConfigError(path or key, "expected an object")
    if key not in cfg:
        full = f"{path}.{key}" if path else key
        raise ConfigError(full, "missing required key")
    return cfg[key]


def _number(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    number = _as_float(value, path)  # JSON integers past float range are +-inf
    if not math.isfinite(number):
        raise ConfigError(path, "must be finite")
    return number


def _expansion_from_config(cfg: object, path: str) -> BinaryExpansion:
    if not isinstance(cfg, Mapping):
        raise ConfigError(path, "expected an object {depth, alpha, beta}")
    depth = _require(cfg, "depth", path)
    alpha = _number(_require(cfg, "alpha", path), f"{path}.alpha")
    beta = _number(_require(cfg, "beta", path), f"{path}.beta")
    try:
        return BinaryExpansion(depth, alpha, beta)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def read_config(cfg: Mapping) -> tuple[ReluPenaltySpec, LinearModelSpec,
                                       tuple[float, float]]:
    """The checked (penalty spec, m spec, cost (target, scale)) of the JSON
    config schema above, the arguments of build_cost_plus_relu; builds nothing.

    Raises ConfigError naming the first offending JSON path on any schema
    or value problem, a model over MAX_BUILD_VARS variables included.
    """
    if not isinstance(cfg, Mapping):
        raise ConfigError("", "top-level config must be an object")

    cost_cfg = _require(cfg, "cost", "")
    kind = _require(cost_cfg, "kind", "cost")
    if kind != "quadratic":
        raise ConfigError("cost.kind", f"unsupported cost kind {kind!r}")
    target = _number(_require(cost_cfg, "target", "cost"), "cost.target")
    scale = _number(_require(cost_cfg, "scale", "cost"), "cost.scale")

    model_cfg = _require(cfg, "model", "")
    inputs = _require(model_cfg, "inputs", "model")
    if not isinstance(inputs, Sequence) or isinstance(inputs, (str, bytes)) or not inputs:
        raise ConfigError("model.inputs", "expected a non-empty array of numbers")
    xs = tuple(_number(x, f"model.inputs[{d}]") for d, x in enumerate(inputs))
    w_exp = _expansion_from_config(_require(model_cfg, "w", "model"), "model.w")
    lin_spec = LinearModelSpec(xs, w_exp)

    pen_cfg = _require(cfg, "penalty", "")
    t_exp = _expansion_from_config(_require(pen_cfg, "t", "penalty"), "penalty.t")
    z1_exp = _expansion_from_config(_require(pen_cfg, "z1", "penalty"), "penalty.z1")
    z2_exp = _expansion_from_config(_require(pen_cfg, "z2", "penalty"), "penalty.z2")
    _layout(lin_spec, (t_exp, z1_exp, z2_exp))
    m_value = _require(pen_cfg, "M", "penalty")
    if m_value == "auto":
        M = recommend_M(*lin_spec.m_range(), z1_exp, z2_exp)
        if not math.isfinite(M):
            raise ConfigError("penalty.M", "the automatic M overflows float64")
    else:
        M = _number(m_value, "penalty.M")
    if t_exp.bounds != (-1.0, 0.0):  # verify, sweep and auto M assume the hinge
        raise ConfigError("penalty.t", f"must cover exactly [-1, 0], the hinge's t "
                                       f"interval, got {t_exp.bounds}")
    return ReluPenaltySpec(t_exp, z1_exp, z2_exp, M), lin_spec, (target, scale)


def build_from_config(cfg: Mapping) -> BuiltModel:
    """Build a model from the JSON config schema above (read_config)."""
    return build_cost_plus_relu(*read_config(cfg))
