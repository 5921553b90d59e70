"""Test-only helpers: every {0, 1} assignment, and models written as dicts."""

from reluqubo.algebra import QuboModel


def all_assignments(n):
    """All {0,1}^n assignments in integer order (LSB = variable 0)."""
    for k in range(1 << n):
        yield tuple((k >> i) & 1 for i in range(n))


def qubo(n, linear, quadratic, offset=0.0, labels=None):
    """QuboModel from {i: c} linear terms and {(i, j): c} couplings."""
    keys = [(i, i) for i in linear] + list(quadratic)
    return QuboModel(n, ([i for i, _ in keys], [j for _, j in keys],
                         [*linear.values(), *quadratic.values()]), offset, labels)
