"""Command-line front end: build, solve, verify, sweep.

Exit codes: 0 ok, 1 verification failure, 2 input or output error, 3 resource cap.
stdout carries data (summaries, SolveResult JSON, TSV reports);
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence, TextIO

from .algebra import QuboModel, QuboParseError, _parse_index, export_qubo, parse_qubo
from .formulation import BuiltModel, ConfigError, _number, build_from_config
from .oracle import Grid1D, relu_reference
from .solvers import (
    AnnealConfig,
    BitCapExceeded,
    exhaustive_solve,
    exhaustive_solve_many,
    fix_bits,  # noqa: F401  unused here; perfbench/tracing.py wraps reluqubo.cli.fix_bits
    simulated_anneal,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_CAP = 3

TSV_COLUMNS = ("m", "qubo_min", "reference", "abs_error", "residual_at_min")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}") from None
    except ValueError as exc:  # bad syntax or encoding, or an over-long integer
        raise ConfigError(path, f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(path, "invalid JSON: nested too deeply") from None


def _load_model(path: str) -> QuboModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_qubo(fh.read())
    except OSError as exc:
        raise QuboParseError(f"cannot read model {path!r}: {exc}") from None


def cmd_build(args: argparse.Namespace) -> int:
    built = build_from_config(_load_json(args.config))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(export_qubo(built.model))
    spec = built.penalty_spec
    lin = built.linear_spec
    print(f"wrote {args.out}: {built.model.n_vars} vars "
          f"(w {lin.w_exp.depth}x{lin.dim}, t {spec.t_exp.depth}, z1 {spec.z1_exp.depth}, "
          f"z2 {spec.z2_exp.depth}), M={spec.M!r}")
    return EXIT_OK


def _parse_fixes(model: QuboModel, pairs: Sequence[str]) -> dict[int, int]:
    fixes: dict[int, int] = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or value not in ("0", "1"):
            raise QuboParseError(f"--fix expects NAME=0 or NAME=1, got {item!r}")
        if name.isdigit():  # the solvers check the range
            idx = _parse_index(name, "--fix")
        else:
            try:
                idx = model.labels.index(name)
            except ValueError:
                raise QuboParseError(f"--fix: no variable labeled {name!r}") from None
        if fixes.setdefault(idx, int(value)) != int(value):
            raise QuboParseError(f"--fix {item!r} conflicts with an earlier pin of "
                                 f"variable {idx} to {fixes[idx]}")
    return fixes


def _anneal_config(args: argparse.Namespace) -> AnnealConfig:
    try:
        return AnnealConfig(sweeps=args.sweeps, beta_initial=args.beta0,
                            beta_final=args.beta1, restarts=args.restarts,
                            seed=args.seed)
    except ValueError as exc:
        raise ConfigError("solver flags", str(exc)) from None


def cmd_solve(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    fixes = _parse_fixes(model, args.fix)
    if args.solver == "exhaustive":
        result = exhaustive_solve(model, fixed=fixes)
    else:
        result = simulated_anneal(model, _anneal_config(args), fixed=fixes)
    print(json.dumps(result.to_json_dict()))
    print(f"solved in {result.wall_time_s:.3f}s", file=sys.stderr)
    return EXIT_OK


def _verify_tolerance(built: BuiltModel) -> float:
    """res_z * (1 + M * res_z) + res_z with res_z the coarser z spacing."""
    spec = built.penalty_spec
    res_z = max(spec.z1_exp.resolution, spec.z2_exp.resolution)
    return res_z * (1.0 + spec.M * res_z) + res_z


def _report_rows(built: BuiltModel, ms: Sequence[float]
                 ) -> list[tuple[float, float, float, float, float]]:
    """Solve with each m pinned; rows of (m, qubo_min, reference, abs_err, residual).

    Every m pins the same w bits, so one family solve covers them all and
    each distinct w pattern is folded and enumerated once.  qubo_min
    excludes the configured quadratic cost at the pinned m, so the row
    isolates the penalty part against the hinge reference.
    """
    lin = built.linear_spec
    if lin.inputs != (1.0,):
        raise ConfigError("model.inputs", "verify/sweep need D=1 with inputs [1] "
                          "so m maps one-to-one onto the weight grid")
    w_range = built.var_ranges["w[0]"]
    fixes = [dict(zip(w_range, lin.w_exp.quantize(m))) for m in ms]
    cost_target, cost_scale = built.cost_params
    decoded: dict[tuple[int, ...], tuple[float, float]] = {}  # per distinct result
    rows = []
    for m, result in zip(ms, exhaustive_solve_many(built.model, fixes)):
        a = result.assignment
        if a not in decoded:
            m_hat, _, _, _, residual = built.decode(a)
            decoded[a] = (result.energy - cost_scale * (m_hat - cost_target) ** 2, residual)
        qubo_min, residual = decoded[a]
        reference = relu_reference(m)
        rows.append((m, qubo_min, reference, abs(qubo_min - reference), residual))
    return rows


def _emit_tsv(rows: Sequence[tuple[float, ...]], out: TextIO) -> None:
    out.write("\t".join(TSV_COLUMNS) + "\n")
    for row in rows:
        out.write("\t".join(repr(v) for v in row) + "\n")


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config)
    built = build_from_config(cfg)
    verify_cfg = cfg.get("verify")
    if not isinstance(verify_cfg, dict) or "m_points" not in verify_cfg:
        raise ConfigError("verify.m_points", "missing required key")
    points = verify_cfg["m_points"]
    if not isinstance(points, list) or not points:
        raise ConfigError("verify.m_points", "expected a non-empty array of numbers")
    points = [_number(m, "verify.m_points") for m in points]
    tol = _verify_tolerance(built)
    rows = _report_rows(built, points)
    failures = sum(row[3] > tol for row in rows)
    _emit_tsv(rows, sys.stdout)
    print(f"verify: {len(rows) - failures}/{len(rows)} points within "
          f"tolerance {tol!r}", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def _parse_grid(text: str) -> Grid1D:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("--grid", f"expected lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
        return Grid1D(lo, hi, step)
    except ValueError as exc:
        raise ConfigError("--grid", str(exc)) from None


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config)
    built = build_from_config(cfg)
    grid = _parse_grid(args.grid)
    rows = _report_rows(built, [float(m) for m in grid.points()])
    if args.out is None:
        _emit_tsv(rows, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            _emit_tsv(rows, fh)
    print(f"sweep: {len(rows)} rows", file=sys.stderr)
    return EXIT_OK


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reluqubo",
        description="Build, solve, and verify two-body models embedding the "
                    "hinge penalty -min(0, m).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a model from a JSON config")
    p_build.add_argument("config")
    p_build.add_argument("out")
    p_build.set_defaults(func=cmd_build)

    p_solve = sub.add_parser("solve", help="minimize a qubo-v1 model file")
    p_solve.add_argument("model")
    p_solve.add_argument("--solver", choices=("exhaustive", "sa"), default="exhaustive")
    p_solve.add_argument("--sweeps", type=int, default=1000)
    p_solve.add_argument("--beta0", type=float, default=0.1)
    p_solve.add_argument("--beta1", type=float, default=10.0)
    p_solve.add_argument("--restarts", type=int, default=8)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--fix", action="append", default=[], metavar="NAME=BIT",
                         help="pin a variable (label or index) to 0 or 1; repeatable")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser(
        "verify", help="check the built model against the hinge reference at "
                       "the config's verify.m_points")
    p_verify.add_argument("config")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="emit a TSV of minima over an m grid")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--grid", required=True, metavar="LO:HI:STEP")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BitCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except (ValueError, OSError) as exc:  # ConfigError and QuboParseError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
