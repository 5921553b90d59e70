"""Builders for two-body models embedding ReLU-type penalties.

A ReLU-type f(m) = max(a*m, b*m) is the Legendre form max over t in
[a, b] of m*t.  The Wolfe multipliers z1, z2 >= 0 of the constraints
t >= a and t <= b turn it into one gadget, minimized jointly over m's
bits and fresh auxiliary variables t, z1, z2:

    C(m) + m*t + z1*(t - a) + z2*(b - t) + M*r^2,   r = -m - z1 + z2,

whose penalty part equals a*m + (b - a)*z2 - (t - a)*r + M*r^2.  Once
a large M drives r to zero, any t is optimal and the minimum over the
z grid is max(a*m, b*m): the t interval [-1, 0] of ReluPenaltySpec
gives the hinge max(0, -m), [-1, 1] gives |m| and [0, 1] ReLU, from a
spec or a JSON config alike.  Every product is affine times affine, so
the result is structurally two-body.  Builders are pure
functions over immutable specs and are safe to call concurrently.
"""

from __future__ import annotations

import math
import sys
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
            raise ConfigError("model.inputs", "expected a non-empty array of numbers")
        object.__setattr__(self, "inputs", tuple(float(x) for x in self.inputs))
        step = self.w_exp.weights[0]  # bit k of w[d] enters m as weights[k] * x_d
        for d, x in enumerate(self.inputs):
            if not math.isfinite(x):
                raise ConfigError(f"model.inputs[{d}]", "must be finite")
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


MAX_BUILD_VARS = 4096  # a build's n x n forms peak near 67 B per n^2: 1.1 GB at the cap


def _layout(m: LinearModelSpec | float, penalty: Sequence[BinaryExpansion] = ()
            ) -> dict[str, tuple[BinaryExpansion, range]]:
    """Each model group's expansion and bits: w[d] the weight expansion on
    the depth bits from d * depth on (none for a constant m), then t, z1,
    z2 those of the expansions in penalty, each on the bits that follow.
    Over MAX_BUILD_VARS bits in all, a ConfigError naming 'model.inputs'."""
    exps = [(f"w[{d}]", m.w_exp) for d in range(m.dim)] if isinstance(m, LinearModelSpec) else []
    exps += zip(("t", "z1", "z2"), penalty)
    n_vars = sum(exp.depth for _, exp in exps)
    if n_vars > MAX_BUILD_VARS:
        raise ConfigError("model.inputs", f"the model would have {n_vars} variables, "
                                          f"more than the cap of {MAX_BUILD_VARS}")
    groups, k = {}, 0
    for name, exp in exps:
        groups[name], k = (exp, range(k, k + exp.depth)), k + exp.depth
    return groups


def _placed(exp: BinaryExpansion, bits: range, n: int) -> AffineExpr:
    """Affine form beta + sum weights[k]*b_k of exp over n model bits, with
    exp's bits at the indices in bits, which lists the LSB first."""
    coeffs = np.zeros(n)
    coeffs[bits] = exp.weights
    return AffineExpr(coeffs, exp.beta)


@dataclass(frozen=True)
class BuiltModel:
    """A built QUBO plus the specs it was built from, to decode and pin its bits.

    m is the LinearModelSpec of the weight bits, or the constant m of a
    model without them, and cost_params the (target, scale) of the cost
    scale*(m - target)^2.
    """

    model: QuboModel
    penalty_spec: ReluPenaltySpec
    m: LinearModelSpec | float
    cost_params: tuple[float, float]

    def _groups(self) -> dict[str, tuple[BinaryExpansion, range]]:
        """_layout's table of this model: each group's expansion and bits."""
        spec = self.penalty_spec
        return _layout(self.m, (spec.t_exp, spec.z1_exp, spec.z2_exp))

    @property
    def var_ranges(self) -> dict[str, range]:
        """Model indices of each group ('w[0]', 't', 'z1', 'z2'), as the build laid them out."""
        return {name: bits for name, (_, bits) in self._groups().items()}

    def decode(self, assignment: Sequence[int]) -> tuple[float, float, float, float, float]:
        """(m, t, z1, z2, r) at the given assignment, r = -m - z1 + z2; m is
        sum_d x_d * w_d of the decoded weights, or the constant m.
        The assignment must be model.n_vars entries of 0 or 1."""
        _check_bits(assignment, self.model.n_vars)
        *ws, t, z1, z2 = (exp.decode([assignment[i] for i in bits])
                          for exp, bits in self._groups().values())
        m = self.m
        if isinstance(m, LinearModelSpec):
            xs, m = m.inputs, 0.0
            for x, w in zip(xs, ws):
                m += x * w
        return m, t, z1, z2, -m - z1 + z2

    def pins(self, ms: Sequence[float]) -> list[dict[int, int]]:
        """The w bits each m pins, model index to bit, taken greedily: with
        rest = m, input by input, w[d] at quantize(rest / x_d), held in
        float range, then rest -= x_d * w_hat_d; for D = 1, quantize(m / x).
        A model of constant m has no w bits: a ValueError."""
        lin = self.m
        if not isinstance(lin, LinearModelSpec):
            raise ValueError(f"the model of constant m = {lin!r} has no w bits to pin")
        w_groups, big, pins = list(zip(lin.inputs, _layout(lin).values())), sys.float_info.max, []
        for m in ms:
            fix, rest = {}, m
            for x, (exp, bits) in w_groups:
                pattern = exp.quantize(min(max(rest / x, -big), big))
                fix.update(zip(bits, pattern))
                rest -= x * exp.decode(pattern)
            pins.append(fix)
        return pins


def _finite(expr: QuadraticExpr, path: str) -> QuadraticExpr:
    """expr, or a ConfigError naming path when its |constant| + sum |coefficient|,
    the bound QuboModel puts on a model's energies, overflows float64."""
    if not _abs_sum_finite(expr.constant, expr.matrix):
        raise ConfigError(path, "the model's coefficients overflow float64")
    return expr


def build_cost_plus_relu(spec: ReluPenaltySpec, m: LinearModelSpec | float,
                         cost: tuple[float, float] = (0.0, 0.0)) -> BuiltModel:
    """The gadget, formed as a*m + (b - a)*z2 - (t - a)*r + M*r^2, plus
    C(m) = scale*(m - target)^2 of cost = (target, scale).

    [a, b] are the spec's t bounds.  Its two products, (t - a)*(-r) and
    r*r, give each coefficient the same float as the primal form's four:
    each entry sums the same products, plus zeros.  m is a LinearModelSpec,
    whose weight bits come first, or a constant; t, z1, z2 bits follow
    (_layout, which refuses a model over MAX_BUILD_VARS bits before any
    product).  Every form spans all n model bits, and one form, total,
    takes the gadget, then the cost, which a scale of 0 leaves out.  Bit i
    of group g is labeled g[i].  The stages are checked in that order: an
    overflowing product of forms is a ConfigError naming 'model', M times
    the squared residual one naming 'penalty.M', and the scaled cost one
    naming 'cost.scale'.
    """
    target, scale = cost
    groups = _layout(m, (spec.t_exp, spec.z1_exp, spec.z2_exp))
    n = sum(len(bits) for _, bits in groups.values())
    # an overflowing product is a ConfigError naming its key, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        *ws, t, z1, z2 = (_placed(exp, bits, n) for exp, bits in groups.values())
        if isinstance(m, LinearModelSpec):
            m_expr = sum((w.scaled(x) for x, w in zip(m.inputs, ws)), AffineExpr(np.zeros(n)))
        else:
            m = float(m)
            m_expr = AffineExpr(np.zeros(n), m)
        a, b = spec.t_exp.bounds
        residual = -m_expr - z1 + z2
        dual = m_expr.scaled(a) + z2.scaled(b - a)  # linear, so all on the diagonal
        dual = QuadraticExpr(np.diag(dual.coeffs), dual.constant)
        total = _finite(quad_scale_add(affine_mul(t - a, -residual), dual, 1.0), "model")
        square = _finite(affine_mul(residual, residual), "model")
        total = _finite(quad_scale_add(total, square, spec.M), "penalty.M")
        if scale != 0.0:  # a far target at scale 0 must not overflow a product
            shifted = m_expr - target
            square = _finite(affine_mul(shifted, shifted), "model")
            total = _finite(quad_scale_add(total, square, scale), "cost.scale")
        labels = [f"{name}[{i}]" for name, (_, bits) in groups.items() for i in range(len(bits))]
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
# with {expansion} = {"depth": d, "alpha": a, "beta": b}.  t's interval
# [a, b] is the function max(a*m, b*m).  "M": "auto" is (b - a) times
# recommend_M of the reachable m range, as ReluPenaltySpec's bound asks.


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
        a, b = t_exp.bounds
        M = (b - a) * recommend_M(*lin_spec.m_range(), z1_exp, z2_exp)
        if not math.isfinite(M):
            raise ConfigError("penalty.M", "the automatic M overflows float64")
    else:
        M = _number(m_value, "penalty.M")
    return ReluPenaltySpec(t_exp, z1_exp, z2_exp, M), lin_spec, (target, scale)


def build_from_config(cfg: Mapping) -> BuiltModel:
    """Build a model from the JSON config schema above (read_config)."""
    return build_cost_plus_relu(*read_config(cfg))
