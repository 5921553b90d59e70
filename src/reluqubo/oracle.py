"""Continuous-domain reference functions and numerical checks.

These are the independent yardsticks the QUBO construction is verified
against: the hinge penalty f(m) = -min(0, m) = max(0, -m), the q-loss
and its single-variable min form, a grid-based convex conjugate, and the
closed-form optimum of the dual problem that motivates the z variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MAX_GRID_POINTS = 10 ** 6


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid lo, lo+step, ... truncated to [lo, hi] (lo inclusive)."""

    lo: float
    hi: float
    step: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("grid endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"lo {self.lo} > hi {self.hi}")
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        # compared before n_points floors it: the quotient may be inf
        if not self._last_index() < MAX_GRID_POINTS:
            raise ValueError(f"grid has more than {MAX_GRID_POINTS} points")

    def _last_index(self) -> float:
        # 1e-9 slack keeps hi on the grid when (hi-lo)/step is an integer
        # up to float rounding.
        return (self.hi - self.lo) / self.step + 1e-9

    @property
    def n_points(self) -> int:
        return int(math.floor(self._last_index())) + 1

    def points(self) -> np.ndarray:
        return self.lo + self.step * np.arange(self.n_points)


def relu_reference(m: float) -> float:
    """Hinge penalty f(m) = -min(0, m): linear on m < 0, zero on m >= 0."""
    if not math.isfinite(m):
        raise ValueError(f"m must be finite, got {m!r}")
    return max(0.0, -m)


def qloss_reference(m: float, q: float) -> float:
    """Robust loss min((1-q)^2, max(0, 1-m)^2) for q < 0.

    Saturates at the plateau (1-q)^2 for strongly negative m and vanishes
    for m >= 1.
    """
    if not q < 0:
        raise ValueError(f"q must be negative, got {q!r}")
    if not math.isfinite(m):
        raise ValueError(f"m must be finite, got {m!r}")
    return min((1.0 - q) ** 2, max(0.0, 1.0 - m) ** 2)


def qloss_min_form(m: float, q: float, t_grid: Grid1D) -> float:
    """Grid minimum of (m-t)^2 + (1-q)^2 * (1 - sign(t-1)) / 2 over t.

    This is the single-auxiliary-variable form of the q-loss; its plateau
    branch carries the squared coefficient (1-q)^2 so the minimum matches
    qloss_reference.  sign(0) = 0, so t = 1 pays half the plateau.  The
    grid should cover the stationary point t = m and the breakpoint t = 1.
    """
    if not q < 0:
        raise ValueError(f"q must be negative, got {q!r}")
    t = t_grid.points()
    values = (m - t) ** 2 + (1.0 - q) ** 2 * (1.0 - np.sign(t - 1.0)) / 2.0
    return float(values.min())


def legendre_conjugate_num(t: float, m_grid: Grid1D) -> float:
    """Grid supremum of t*m - f(m) with f the hinge penalty.

    The true conjugate is 0 on t in [-1, 0] and +infinity outside; on a
    finite grid the unbounded region shows up as growth proportional to
    the grid radius, so callers detect it by widening the grid.
    """
    m = m_grid.points()
    return float((t * m - np.maximum(0.0, -m)).max())


class WolfeDualOptimum(NamedTuple):
    z1: float
    z2: float
    value: float


def wolfe_dual_analytic(m: float) -> WolfeDualOptimum:
    """Closed-form optimum of the dual of min{-mt : -1 <= t <= 0}.

    The dual maximizes -mt - z1*(t+1) + z2*t subject to -m - z1 + z2 = 0
    and z1, z2 >= 0; on the constraint manifold the objective is -z1, so
    the optimum sits at z1 = max(0, -m), z2 = max(0, m) with value
    min(0, m) and t arbitrary in [-1, 0].  -value equals the hinge
    penalty for every m.
    """
    if not math.isfinite(m):
        raise ValueError(f"m must be finite, got {m!r}")
    return WolfeDualOptimum(max(0.0, -m), max(0.0, m), min(0.0, m))
