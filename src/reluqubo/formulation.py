"""Builders for two-body models embedding ReLU-type penalties.

A ReLU-type f(m) = max(a*m, b*m) is the Legendre form max over t in
[a, b] of m*t.  The Wolfe multipliers z1, z2 >= 0 of the constraints
t >= a and t <= b turn it into one gadget, minimized jointly over m's
bits and fresh auxiliary variables t, z1, z2:

    C(m) + m*t + z1*(t - a) + z2*(b - t) + M * (-m - z1 + z2)^2 .

With the residual r = -m - z1 + z2 the penalty part equals
-a*z1 + b*z2 - t*r + M*r^2; once a large M drives r to zero, its
minimum over the feasible z grid is max(a*m, b*m).  The t bounds select
the function: [-1, 0] gives the hinge penalty max(0, -m)
(ReluPenaltySpec), [-1, 1] gives |m| (AbsPenaltySpec).  t is degenerate
at feasibility, so any t assignment is optimal once r = 0.

All continuous quantities are binary-expanded; every product here is
affine times affine, so the result is structurally two-body.  Builders
are pure functions over immutable specs and are safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Mapping, Sequence

from .algebra import (
    AffineExpr,
    BitVar,
    QuadraticExpr,
    QuboModel,
    affine_mul,
    quad_scale_add,
    quadratic_to_model,
)
from .encoding import BinaryExpansion, delta


class ConfigError(ValueError):
    """Build-config validation failure; `path` names the offending JSON key."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"config error at '{path}': {message}")


@dataclass(frozen=True)
class ReluPenaltySpec:
    """Expansions for t, z1, z2 plus the constraint weight M.

    t must cover exactly T_BOUNDS, [-1, 0] for the hinge; z1 and z2 must
    start at 0 so the inequality constraints hold by construction.
    """

    T_BOUNDS: ClassVar[tuple[float, float]] = (-1.0, 0.0)

    t_exp: BinaryExpansion
    z1_exp: BinaryExpansion
    z2_exp: BinaryExpansion
    M: float

    def __post_init__(self) -> None:
        if self.t_exp.bounds != self.T_BOUNDS:
            lo, hi = self.T_BOUNDS
            raise ValueError(f"t expansion must cover exactly [{lo:g}, {hi:g}], "
                             f"got {self.t_exp.bounds}")
        _check_z_bounds(self.z1_exp, "z1")
        _check_z_bounds(self.z2_exp, "z2")
        if not (math.isfinite(self.M) and self.M > 0):
            raise ValueError(f"penalty weight M must be positive, got {self.M!r}")


class AbsPenaltySpec(ReluPenaltySpec):
    """ReluPenaltySpec with t covering [-1, 1], for the |m| gadget."""

    T_BOUNDS: ClassVar[tuple[float, float]] = (-1.0, 1.0)


def _check_z_bounds(exp: BinaryExpansion, name: str) -> None:
    if exp.beta != 0.0:
        raise ValueError(f"{name} expansion must have lower bound exactly 0, "
                         f"got beta = {exp.beta}")


@dataclass(frozen=True)
class LinearModelSpec:
    """m = sum_d w_d x_d with one shared expansion for every weight."""

    inputs: tuple[float, ...]
    w_exp: BinaryExpansion

    def __post_init__(self) -> None:
        if len(self.inputs) < 1:
            raise ValueError("need at least one input dimension")
        for d, x in enumerate(self.inputs):
            if not math.isfinite(x):
                raise ValueError(f"input x[{d}] must be finite, got {x!r}")
        object.__setattr__(self, "inputs", tuple(float(x) for x in self.inputs))

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


@dataclass
class BuiltModel:
    """A built QUBO plus the bookkeeping to decode its bits.

    var_ranges maps a group name ('w[0]', 't', 'z1', 'z2') to the range
    of model indices realizing it; the ranges are disjoint and cover all
    variables.  cost_params is the (target, scale) of the quadratic cost
    scale*(m - target)^2 when the model was built from a config.
    """

    model: QuboModel
    var_ranges: dict[str, range]
    penalty_spec: ReluPenaltySpec
    linear_spec: LinearModelSpec | None = None
    cost_params: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        covered: list[int] = []
        for r in self.var_ranges.values():
            covered.extend(r)
        if sorted(covered) != list(range(self.model.n_vars)):
            raise ValueError("var_ranges must be disjoint and cover all model variables")

    def group_bits(self, name: str, assignment: Sequence[int]) -> list[int]:
        return [assignment[i] for i in self.var_ranges[name]]

    def decode_m(self, assignment: Sequence[int]) -> float:
        """Decoded m = sum_d x_d * w_d at the given assignment."""
        if self.linear_spec is None:
            raise ValueError("model was built without a linear weight model")
        total = 0.0
        for d, x in enumerate(self.linear_spec.inputs):
            bits = self.group_bits(f"w[{d}]", assignment)
            total += x * self.linear_spec.w_exp.decode(bits)
        return total

    def decode_penalty_vars(self, assignment: Sequence[int]) -> tuple[float, float, float]:
        """(t, z1, z2) decoded at the given assignment."""
        spec = self.penalty_spec
        return (spec.t_exp.decode(self.group_bits("t", assignment)),
                spec.z1_exp.decode(self.group_bits("z1", assignment)),
                spec.z2_exp.decode(self.group_bits("z2", assignment)))

    def residual(self, assignment: Sequence[int]) -> float:
        """Constraint violation -m - z1 + z2 at the given assignment."""
        _, z1, z2 = self.decode_penalty_vars(assignment)
        return -self.decode_m(assignment) - z1 + z2


def make_bits(prefix: str, start_id: int, count: int) -> list[BitVar]:
    """Fresh bit variables labeled prefix[0..count-1] with consecutive ids."""
    return [BitVar(start_id + k, f"{prefix}[{k}]") for k in range(count)]


def build_linear_model_expr(spec: LinearModelSpec,
                            bit_groups: Sequence[Sequence[BitVar]]) -> AffineExpr:
    """Affine form of m = sum_d x_d * w_d over per-dimension weight bits."""
    if len(bit_groups) != spec.dim:
        raise ValueError(f"expected {spec.dim} bit groups, got {len(bit_groups)}")
    m = AffineExpr.from_constant(0.0)
    for x, bits in zip(spec.inputs, bit_groups):
        m = m + spec.w_exp.to_affine(bits).scaled(x)
    return m


def _check_disjoint(groups: Mapping[str, Sequence[BitVar]]) -> None:
    seen: dict[int, str] = {}
    for name, bits in groups.items():
        for v in bits:
            if v.id in seen:
                raise ValueError(f"bit collision: id {v.id} used by both "
                                 f"{seen[v.id]} and {name}")
            seen[v.id] = name


def build_relu_penalty(m_expr: AffineExpr,
                       spec: ReluPenaltySpec,
                       t_bits: Sequence[BitVar],
                       z1_bits: Sequence[BitVar],
                       z2_bits: Sequence[BitVar]) -> QuadraticExpr:
    """Two-body form of m*t + z1*(t - a) + z2*(b - t) + M*(-m - z1 + z2)^2.

    [a, b] are the spec's t bounds.  Minimized jointly over the fresh t/z
    bits this equals max(a*m, b*m) of the decoded m, up to the z-grid
    resolution: the hinge penalty max(0, -m) for ReluPenaltySpec, |m| for
    AbsPenaltySpec.  The t/z bits must be disjoint from m's bits.
    """
    _check_disjoint({"m": sorted(m_expr.variables(), key=lambda v: v.id),
                     "t": t_bits, "z1": z1_bits, "z2": z2_bits})
    a, b = spec.t_exp.bounds
    t = spec.t_exp.to_affine(t_bits)
    z1 = spec.z1_exp.to_affine(z1_bits)
    z2 = spec.z2_exp.to_affine(z2_bits)
    residual = -m_expr - z1 + z2

    penalty = affine_mul(m_expr, t)
    penalty = quad_scale_add(penalty, affine_mul(z1, t - a), 1.0)
    penalty = quad_scale_add(penalty, affine_mul(z2, b - t), 1.0)
    penalty = quad_scale_add(penalty, affine_mul(residual, residual), spec.M)
    return penalty


def build_cost_plus_relu(cost: QuadraticExpr,
                         m_expr: AffineExpr,
                         spec: ReluPenaltySpec,
                         m_groups: Mapping[str, Sequence[BitVar]] | None = None,
                         linear_spec: LinearModelSpec | None = None) -> BuiltModel:
    """Assemble C(m) + the spec's ReLU-type penalty into one model.

    The cost may only touch m's bits (plus constants).  m's bits must
    have dense ids 0..k-1; fresh t, z1, z2 bits are allocated after them
    in that order.  m_groups optionally names per-dimension weight bit
    ranges for the variable map; by default all of m's bits form one
    group 'm'.
    """
    m_vars = sorted(m_expr.variables(), key=lambda v: v.id)
    if [v.id for v in m_vars] != list(range(len(m_vars))):
        raise ValueError("m bits must have dense ids 0..k-1")
    stray = cost.variables().difference(m_vars)
    if stray:
        raise ValueError(f"cost uses bits outside the m expression: {sorted(stray)}")

    next_id = len(m_vars)
    t_bits = make_bits("t", next_id, spec.t_exp.depth)
    next_id += spec.t_exp.depth
    z1_bits = make_bits("z1", next_id, spec.z1_exp.depth)
    next_id += spec.z1_exp.depth
    z2_bits = make_bits("z2", next_id, spec.z2_exp.depth)
    next_id += spec.z2_exp.depth

    penalty = build_relu_penalty(m_expr, spec, t_bits, z1_bits, z2_bits)
    total = quad_scale_add(cost, penalty, 1.0)
    variables = m_vars + t_bits + z1_bits + z2_bits
    model = quadratic_to_model(total, variables)

    if m_groups is None:
        m_groups = {"m": m_vars} if m_vars else {}
    ranges: dict[str, range] = {}
    for name, bits in m_groups.items():
        if not bits:
            continue
        ids = [v.id for v in bits]
        if ids != list(range(ids[0], ids[-1] + 1)):
            raise ValueError(f"bit group {name!r} must be a contiguous ascending id range")
        ranges[name] = range(ids[0], ids[-1] + 1)
    ranges["t"] = range(t_bits[0].id, t_bits[-1].id + 1)
    ranges["z1"] = range(z1_bits[0].id, z1_bits[-1].id + 1)
    ranges["z2"] = range(z2_bits[0].id, z2_bits[-1].id + 1)
    return BuiltModel(model, ranges, spec, linear_spec)


def recommend_M(m_lo: float, m_hi: float,
                z1_exp: BinaryExpansion, z2_exp: BinaryExpansion) -> float:
    """Constraint weight M = max(1, 4*max(|m_lo|, |m_hi|) / min z resolution).

    Sized so that violating the equality constraint by one z-grid step
    costs more than any objective gain available on the m range.
    """
    if m_lo > m_hi:
        raise ValueError(f"m_lo {m_lo} > m_hi {m_hi}")
    res = min(z1_exp.resolution, z2_exp.resolution)
    if res <= 0:
        raise ValueError("z expansions must have positive resolution")
    return max(1.0, 4.0 * max(abs(m_lo), abs(m_hi)) / res)


# --- JSON build config -------------------------------------------------------
#
# { "cost":    {"kind": "quadratic", "target": a, "scale": c},   C(m) = c*(m-a)^2
#   "model":   {"inputs": [x_1, ..., x_D], "w": {expansion}},
#   "penalty": {"t": {expansion}, "z1": {expansion}, "z2": {expansion},
#               "M": number | "auto"} }
# with {expansion} = {"depth": d, "alpha": a, "beta": b}.  "M": "auto"
# applies recommend_M to the reachable m range.


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
    try:
        number = float(value)
    except OverflowError:  # JSON integers past float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(path, "must be finite")
    return number


def _expansion_from_config(cfg: object, path: str) -> BinaryExpansion:
    if not isinstance(cfg, Mapping):
        raise ConfigError(path, "expected an object {depth, alpha, beta}")
    depth = _require(cfg, "depth", path)
    if isinstance(depth, bool) or not isinstance(depth, int):
        raise ConfigError(f"{path}.depth", f"expected an integer, got {depth!r}")
    alpha = _number(_require(cfg, "alpha", path), f"{path}.alpha")
    beta = _number(_require(cfg, "beta", path), f"{path}.beta")
    try:
        return BinaryExpansion(depth, alpha, beta)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def build_from_config(cfg: Mapping) -> BuiltModel:
    """Build a model from the JSON config schema above.

    Raises ConfigError (with the offending JSON path) on any schema or
    value problem.
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
    # bit k of w[d] enters m with coefficient (alpha * delta(k)) * x_d; one
    # that is 0 drops the bit out of m.  The lowest bit's is the smallest.
    step = w_exp.alpha * delta(1, w_exp.depth)
    if step == 0.0:
        raise ConfigError("model.w", f"alpha {w_exp.alpha!r} gives weight bits of "
                                     f"coefficient 0, which drop out of m")
    for d, x in enumerate(xs):
        if x == 0.0:
            raise ConfigError(f"model.inputs[{d}]", f"must be nonzero, got {x!r}")
        if step * x == 0.0:
            raise ConfigError(f"model.inputs[{d}]", f"{x!r} times the weight step {step!r} "
                                                    f"is 0, so its weight bits drop out of m")
    lin_spec = LinearModelSpec(xs, w_exp)

    pen_cfg = _require(cfg, "penalty", "")
    t_exp = _expansion_from_config(_require(pen_cfg, "t", "penalty"), "penalty.t")
    z1_exp = _expansion_from_config(_require(pen_cfg, "z1", "penalty"), "penalty.z1")
    z2_exp = _expansion_from_config(_require(pen_cfg, "z2", "penalty"), "penalty.z2")
    m_value = _require(pen_cfg, "M", "penalty")
    if m_value == "auto":
        lo, hi = lin_spec.m_range()
        try:
            M = recommend_M(lo, hi, z1_exp, z2_exp)
        except ValueError as exc:
            raise ConfigError("penalty.M", str(exc)) from None
    else:
        M = _number(m_value, "penalty.M")
    try:
        pen_spec = ReluPenaltySpec(t_exp, z1_exp, z2_exp, M)
    except ValueError as exc:
        raise ConfigError("penalty", str(exc)) from None

    groups: dict[str, Sequence[BitVar]] = {}
    bit_groups: list[list[BitVar]] = []
    next_id = 0
    for d in range(lin_spec.dim):
        bits = make_bits(f"w[{d}]", next_id, w_exp.depth)
        next_id += w_exp.depth
        bit_groups.append(bits)
        groups[f"w[{d}]"] = bits
    m_expr = build_linear_model_expr(lin_spec, bit_groups)

    cost = QuadraticExpr()
    if scale != 0.0:  # quad_scale_add would discard the whole product
        shifted = m_expr - target
        cost = quad_scale_add(cost, affine_mul(shifted, shifted), scale)
    built = build_cost_plus_relu(cost, m_expr, pen_spec,
                                 m_groups=groups, linear_spec=lin_spec)
    built.cost_params = (target, scale)
    return built
