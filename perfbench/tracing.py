"""Spans around the public functions of each reluqubo layer.

`install` replaces each traced function under the name its caller looks
it up by (e.g. `reluqubo.cli.exhaustive_solve`, `reluqubo.solvers.fix_bits`),
so the program's source stays untouched.  A function bound under two
names gets one wrapper per name, and each wrapper calls the original, so
every call is recorded once.  `layer_metrics` turns one run's spans into
the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from typing import Any, Callable

Span = list  # [name, start, end, parent index or -1, attributes or None]


def _built_attrs(args, kwargs, out) -> dict:
    return {"n_vars": out.model.n_vars, "n_couplings": len(out.model.quadratic)}


def _exhaustive_attrs(args, kwargs, out) -> dict:
    model = args[0]
    fixed = kwargs.get("fixed", args[1] if len(args) > 1 else None)
    return {"assignments": 1 << (model.n_vars - len(fixed or ()))}


def _anneal_attrs(args, kwargs, out) -> dict:
    model, config = args[0], args[1] if len(args) > 1 else kwargs["config"]
    tol = 1e-9 * max(1.0, abs(out.energy))
    return {"proposals": config.sweeps * model.n_vars * config.restarts,
            "restarts": config.restarts,
            "restart_hits": sum(abs(e - out.energy) <= tol for e in out.restart_energies)}


# (owner, attribute, span name, attribute extractor)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("reluqubo.cli", "build_from_config", "formulation.build_from_config", _built_attrs),
    ("reluqubo.formulation", "affine_mul", "algebra.affine_mul", None),
    ("reluqubo.algebra", "affine_mul", "algebra.affine_mul", None),
    ("reluqubo.formulation", "quad_scale_add", "algebra.quad_scale_add", None),
    ("reluqubo.algebra", "quad_scale_add", "algebra.quad_scale_add", None),
    ("reluqubo.formulation", "quadratic_to_model", "algebra.quadratic_to_model", None),
    ("reluqubo.cli", "export_qubo", "algebra.export_qubo",
     lambda a, k, out: {"bytes": len(out.encode())}),
    ("reluqubo.cli", "parse_qubo", "algebra.parse_qubo",
     lambda a, k, out: {"bytes": len(a[0].encode())}),
    ("reluqubo.algebra", "energy", "algebra.energy", None),
    ("reluqubo.solvers", "energy", "algebra.energy", None),
    ("reluqubo.encoding:BinaryExpansion", "quantize", "encoding.quantize", None),
    ("reluqubo.cli", "fix_bits", "solvers.fix_bits", None),
    ("reluqubo.solvers", "fix_bits", "solvers.fix_bits", None),
    ("reluqubo.cli", "exhaustive_solve", "solvers.exhaustive_solve", _exhaustive_attrs),
    ("reluqubo.cli", "simulated_anneal", "solvers.simulated_anneal", _anneal_attrs),
    ("reluqubo.cli", "relu_reference", "oracle.relu_reference", None),
)

LAYER_FUNCTIONS = sorted({name for _, _, name, _ in TARGETS})
CLI_COMMANDS = ("build", "solve", "verify", "sweep")


class Tracer:
    """Records nested spans in memory; one instance per process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             attrs: Callable | None = None) -> Any:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span[4] = attrs(args, kwargs, out)
        return out


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS entry; call after importing reluqubo.cli."""
    for owner_path, attr, name, attrs in TARGETS:
        module_name, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if cls:
            owner = getattr(owner, cls)
        setattr(owner, attr, _wrap(tracer, getattr(owner, attr), name, attrs))


def _wrap(tracer: Tracer, fn: Callable, name: str, attrs: Callable | None) -> Callable:
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs)
    return traced


def _percentile_ms(values: list[float], q: float) -> float:
    """Nearest-rank percentile in milliseconds; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1e3 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose process took wall_s."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    totals: dict[str, float] = defaultdict(float)
    n_vars = n_couplings = top_level = 0.0
    for k, (name, start, end, parent, attrs) in enumerate(spans):
        busy[name] += end - start
        own[name] += end - start - child[k]
        calls[name] += 1
        durations[name].append(end - start)
        if parent < 0:
            top_level += end - start
        for key, value in (attrs or {}).items():
            totals[f"{name}.{key}"] += value
        if attrs and "n_vars" in attrs:
            n_vars = max(n_vars, attrs["n_vars"])
            n_couplings = max(n_couplings, attrs["n_couplings"])

    metrics: dict[str, float] = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}_s"] = busy[name]
        metrics[f"{name}_calls"] = calls[name]
    restarts = totals["solvers.simulated_anneal.restarts"]
    metrics.update({
        "formulation.build_self_s": own["formulation.build_from_config"],
        "formulation.n_vars": n_vars,
        "formulation.n_couplings": n_couplings,
        "algebra.export_bytes": totals["algebra.export_qubo.bytes"],
        "algebra.parse_bytes": totals["algebra.parse_qubo.bytes"],
        "solvers.exhaustive_self_s": own["solvers.exhaustive_solve"],
        "solvers.exhaustive_p50_ms": _percentile_ms(durations["solvers.exhaustive_solve"], 0.5),
        "solvers.exhaustive_p90_ms": _percentile_ms(durations["solvers.exhaustive_solve"], 0.9),
        "solvers.exhaustive_assignments": totals["solvers.exhaustive_solve.assignments"],
        "solvers.anneal_self_s": own["solvers.simulated_anneal"],
        "solvers.anneal_proposals": totals["solvers.simulated_anneal.proposals"],
        "solvers.anneal_restart_hit_frac":
            totals["solvers.simulated_anneal.restart_hits"] / restarts if restarts else 0.0,
    })
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}_s"] = busy[f"cli.{command}"]
    metrics["cli.self_s"] = sum(own[f"cli.{command}"] for command in CLI_COMMANDS)
    metrics["trace.uncovered_frac"] = 1.0 - top_level / wall_s
    return metrics
