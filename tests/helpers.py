"""Test-only helpers: every {0, 1} assignment, models written as dicts,
the benchmark's README configs, and its modules loaded from perfbench/."""

import importlib.util
import sys
from pathlib import Path

from reluqubo.algebra import QuboModel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def all_assignments(n):
    """All {0,1}^n assignments in integer order (LSB = variable 0)."""
    for k in range(1 << n):
        yield tuple((k >> i) & 1 for i in range(n))


def qubo(n, linear, quadratic, offset=0.0, labels=None):
    """QuboModel from {i: c} linear terms and {(i, j): c} couplings."""
    keys = [(i, i) for i in linear] + list(quadratic)
    return QuboModel(n, ([i for i, _ in keys], [j for _, j in keys],
                         [*linear.values(), *quadratic.values()]), offset, labels)


def readme_config(dim=1):
    """The README config with dim all-ones inputs (perfbench's models)."""
    def expansion(depth, alpha, beta):
        return {"depth": depth, "alpha": alpha, "beta": beta}

    return {
        "cost": {"kind": "quadratic", "target": 0.0, "scale": 0.0},
        "model": {"inputs": [1.0] * dim, "w": expansion(6, 8.0, -4.0)},
        "penalty": {"t": expansion(4, 1.0, -1.0),
                    "z1": expansion(6, 4.0, 0.0),
                    "z2": expansion(6, 4.0, 0.0),
                    "M": "auto"},
    }


def load(name):
    """perfbench/<name>.py as a module, which is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module
