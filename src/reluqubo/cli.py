"""Command-line front end: build, solve, verify, sweep.

Exit codes: 0 ok, 1 verification failure, 2 input or output error, 3 resource cap
(the exhaustive bit cap, or memory ran out).
stdout carries data (summaries, SolveResult JSON, TSV reports);
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence, TextIO

from .algebra import QuboModel, QuboParseError, _parse_index, export_qubo, parse_qubo
from .formulation import BuiltModel, ConfigError, _number, _require, build_from_config
from .oracle import MAX_GRID_POINTS, Grid1D, relu_reference
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
    except UnicodeDecodeError as exc:
        raise QuboParseError(f"cannot read model {path!r}: not UTF-8 text: {exc}") from None


def cmd_build(args: argparse.Namespace) -> int:
    built = build_from_config(_load_json(args.config))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(export_qubo(built.model))
    spec, lin = built.penalty_spec, built.m
    print(f"wrote {args.out}: {built.model.n_vars} vars "
          f"(w {lin.w_exp.depth}x{lin.dim}, t {spec.t_exp.depth}, z1 {spec.z1_exp.depth}, "
          f"z2 {spec.z2_exp.depth}), M={spec.M!r}")
    return EXIT_OK


def _parse_fixes(model: QuboModel, pairs: Sequence[str]) -> dict[int, int]:
    """Pins by label, or by index when NAME is all digits and no label;
    NAME ends at the last '=', so a label may hold '='."""
    fixes: dict[int, int] = {}
    for item in pairs:
        name, sep, value = item.rpartition("=")
        if not sep or value not in ("0", "1"):
            raise QuboParseError(f"--fix expects NAME=0 or NAME=1, got {item!r}")
        try:
            idx = model.labels.index(name)
        except ValueError:
            if not name.isdigit():
                raise QuboParseError(f"--fix: no variable labeled {name!r}") from None
            idx = _parse_index(name, "--fix")  # the solvers check the range
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


def _report_rows(built: BuiltModel, ms: Sequence[float]
                 ) -> tuple[list[tuple[float, float, float, float, float]], int]:
    """Solve with each m pinned; rows of (m, qubo_min, reference, abs_error,
    residual), and how many rows miss, that is, have an abs_error over
    1e-9 * max(1, |f(m_hat)|, |C(m_hat)|).

    Each m pins the same w bits, by the model's rule (built.pins), so one
    family solve covers them all, each distinct w pattern enumerated once.
    m is the requested point; every other column belongs to the pinned
    m_hat: qubo_min excludes the configured cost C(m_hat), so the row
    isolates the penalty, and reference is f(m_hat) of the spec's t interval.
    """
    (a, b), (cost_target, cost_scale) = built.penalty_spec.t_exp.bounds, built.cost_params
    tails: dict[tuple[int, ...], tuple[tuple[float, float, float, float], bool]] = {}
    rows, misses = [], 0
    for m, result in zip(ms, exhaustive_solve_many(built.model, built.pins(ms))):
        bits = result.assignment
        if bits not in tails:  # one row tail per distinct result
            m_hat, _, _, _, residual = built.decode(bits)
            # C(m_hat); at scale +-0 the build leaves it out, and ** may raise OverflowError
            cost = cost_scale * (m_hat - cost_target) ** 2 if cost_scale != 0.0 else cost_scale
            qubo_min, f_hat = result.energy - cost, relu_reference(m_hat, a, b)
            error = abs(qubo_min - f_hat)
            tails[bits] = ((qubo_min, f_hat, error, residual),
                           error <= 1e-9 * max(1.0, abs(f_hat), abs(cost)))
        tail, within = tails[bits]
        misses += not within
        rows.append((m, *tail))
    return rows, misses


def _emit_tsv(rows: Sequence[tuple[float, ...]], out: TextIO) -> None:
    out.write("\t".join(TSV_COLUMNS) + "\n")
    for row in rows:
        out.write("\t".join(repr(v) for v in row) + "\n")


def _verify_points(cfg: object) -> list[float]:
    """The config's verify.m_points as floats; read before the model is
    built, so a config refused for its points costs no build."""
    if not isinstance(cfg, dict):  # read_config's first check
        raise ConfigError("", "top-level config must be an object")
    points = _require(cfg.get("verify", {}), "m_points", "verify")
    if not isinstance(points, list) or not points:
        raise ConfigError("verify.m_points", "expected a non-empty array of numbers")
    if len(points) > MAX_GRID_POINTS:  # --grid's cap
        raise ConfigError("verify.m_points", f"has more than {MAX_GRID_POINTS} points")
    return [_number(m, "verify.m_points") for m in points]


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config)
    points = _verify_points(cfg)
    rows, misses = _report_rows(build_from_config(cfg), points)
    _emit_tsv(rows, sys.stdout)
    print(f"verify: {len(rows) - misses}/{len(rows)} points within "
          f"1e-9 * max(1, |f|, |C|) of f at the pinned grid point", file=sys.stderr)
    return EXIT_OK if misses == 0 else EXIT_VERIFY_FAILED


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
    grid = _parse_grid(args.grid)  # before the build, which a bad grid need not pay
    rows, _ = _report_rows(build_from_config(cfg), [float(m) for m in grid.points()])
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
                    "ReLU-type penalty max(a*m, b*m) of a t interval [a, b].")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a model from a JSON config")
    p_build.add_argument("config")
    p_build.add_argument("out")
    p_build.set_defaults(func=cmd_build)

    p_solve = sub.add_parser("solve", help="minimize a qubo-v1 model file")
    p_solve.add_argument("model")
    p_solve.add_argument("--solver", choices=("exhaustive", "sa"), default="exhaustive")
    anneal = AnnealConfig()
    p_solve.add_argument("--sweeps", type=int, default=anneal.sweeps)
    p_solve.add_argument("--beta0", type=float, default=anneal.beta_initial)
    p_solve.add_argument("--beta1", type=float, default=anneal.beta_final)
    p_solve.add_argument("--restarts", type=int, default=anneal.restarts)
    p_solve.add_argument("--seed", type=int, default=anneal.seed)
    p_solve.add_argument("--fix", action="append", default=[], metavar="NAME=BIT",
                         help="pin a variable to 0 or 1 by its label, or by its index when "
                              "no label is NAME; NAME ends at the last '='; repeatable")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser(
        "verify", help="check the built model against max(a*m, b*m) at the grid "
                       "point each of the config's verify.m_points pins the w bits to")
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
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except (ValueError, OSError) as exc:  # ConfigError and QuboParseError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
