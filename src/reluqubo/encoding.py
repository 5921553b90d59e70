"""Uniform binary expansion of bounded continuous variables.

A variable with expansion (depth d, multiplier alpha, offset beta) takes
the values  beta + alpha * j / (2^d - 1)  for j = 0 .. 2^d - 1, i.e. the
uniform grid on [beta, alpha + beta].  Bit k (0-based, LSB first) carries
the weight alpha * 2^k / (2^d - 1), weights[k].  An expansion refuses an
alpha that gives a bit weight or the grid step of 0, so every bit enters
a model and every grid has a positive step.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import AffineExpr

# j / (2^depth - 1) is formed in doubles, whose 53-bit significand holds
# every j exactly only up to depth 53; past it, neighbouring grid values
# stop being distinct and 2^depth - 1 soon overflows a float.
MAX_DEPTH = 53


@dataclass(frozen=True)
class BinaryExpansion:
    """(depth, alpha, beta) triple fixing a uniform grid on [beta, alpha+beta]."""

    depth: int
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if isinstance(self.depth, bool) or not isinstance(self.depth, int) or self.depth < 1:
            raise ValueError(f"depth must be a positive integer, got {self.depth!r}")
        if self.depth > MAX_DEPTH:
            raise ValueError(f"depth must be at most {MAX_DEPTH}, got {self.depth}")
        if not math.isfinite(self.alpha) or not math.isfinite(self.beta):
            raise ValueError("alpha and beta must be finite")
        # a bit of coefficient 0 drops out of every model, and a subnormal
        # alpha can round the smallest coefficient or the grid step to 0
        if not (self.weights[0] > 0.0 and self.resolution > 0.0):
            raise ValueError(f"alpha must be positive and give every bit a nonzero "
                             f"coefficient, got {self.alpha!r}")

    @property
    def n_levels(self) -> int:
        return 1 << self.depth

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.beta, self.alpha + self.beta)

    @property
    def weights(self) -> tuple[float, ...]:
        """Coefficient alpha * 2^k / (2^depth - 1) of bit k, LSB first."""
        top = float(self.n_levels - 1)
        return tuple(self.alpha * (float(1 << k) / top) for k in range(self.depth))

    @property
    def resolution(self) -> float:
        """Grid spacing alpha / (2^depth - 1)."""
        return self.alpha / float(self.n_levels - 1)

    def _level(self, j: int | np.ndarray) -> float | np.ndarray:
        return self.beta + self.alpha * (j / float(self.n_levels - 1))

    def decode(self, bits: Sequence[int]) -> float:
        """Grid value realized by a {0,1}^depth bit pattern (LSB first)."""
        if len(bits) != self.depth:
            raise ValueError(f"expected {self.depth} bits, got {len(bits)}")
        j = 0
        for k, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {b!r}")
            j |= int(b) << k
        return self._level(j)

    def quantize(self, value: float) -> tuple[int, ...]:
        """Bit pattern of the grid point nearest to value.

        Out-of-range values clamp to the nearest endpoint; exact midpoints
        round toward the lower grid index.  A value that a grid point
        decodes to comes back as that point.
        """
        if not math.isfinite(value):
            raise ValueError(f"value must be finite, got {value!r}")
        top = self.n_levels - 1
        # clamped before rounding: a far value would overflow to inf
        x = min(max((value - self.beta) / self.resolution, 0.0), top)
        j = math.floor(x)
        if x - j > 0.5:  # exact, where x - 0.5 would round past 2^52
            j += 1
        # x carries roundings of about 2^(depth - 53) steps, more on a
        # subnormal step; a j a step or more off gives way to bisection
        level = self._level
        if (j > 0 and level(j - 1) >= value) or (j < top and level(j + 1) <= value):
            j = bisect.bisect_left(range(1, top + 1), value, key=level)  # level(j+1) >= value
            if j < top and level(j + 1) - value < value - level(j):
                j += 1
        return tuple((j >> k) & 1 for k in range(self.depth))

    def to_affine(self, bits: range) -> AffineExpr:
        """Affine form beta + sum weights[k]*b_k over the model bits in bits,
        which lists the LSB first."""
        if len(bits) != self.depth:
            raise ValueError(f"expected {self.depth} bits, got {len(bits)}")
        coeffs = np.zeros(bits.stop)
        coeffs[bits] = self.weights
        return AffineExpr(coeffs, self.beta)

    def grid(self) -> np.ndarray:
        """All 2^depth grid values in increasing order."""
        return self._level(np.arange(self.n_levels))
