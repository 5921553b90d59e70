"""Workload inputs and output checks for the reluqubo CLI benchmark.

Each workload is one process's worth of CLI calls (`reluqubo.cli.main`
argv lists) plus the JSON configs they read and a check that judges the
captured outputs against references computed here, outside the program.
Inputs depend only on the workload seed, which sets the SA seeds and the
pinned-m draw; `smoke=True` shrinks every size so a run takes seconds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SWEEP_REFERENCE = HERE / "sweep_reference.json"

# The README config: m = w on a 64-point grid over [-4, 4] whose spacing
# 8/63 is a multiple of the z spacing 4/63, so every w point is on the z grids.
SWEEP_GRID = (-4.0, 4.0, 0.0125)


def expansion(depth: int, alpha: float, beta: float) -> dict:
    return {"depth": depth, "alpha": alpha, "beta": beta}


def readme_config(inputs: int = 1) -> dict:
    return {
        "cost": {"kind": "quadratic", "target": 0.0, "scale": 0.0},
        "model": {"inputs": [1.0] * inputs, "w": expansion(6, 8.0, -4.0)},
        "penalty": {"t": expansion(4, 1.0, -1.0),
                    "z1": expansion(6, 4.0, 0.0),
                    "z2": expansion(6, 4.0, 0.0),
                    "M": "auto"},
    }


def grid_points(depth: int, alpha: float, beta: float) -> list[float]:
    top = (1 << depth) - 1
    return [beta + alpha * (k / float(top)) for k in range(top + 1)]


def relu(m: float) -> float:
    return max(0.0, -m)


def close(value: float, ref: float, scale: float = 1.0) -> bool:
    """Within 1e-9 relative to max(1, |ref|, scale)."""
    return abs(value - ref) <= 1e-9 * max(1.0, abs(ref), scale)


@dataclass
class Checks:
    """Outcome of checking one run's CLI outputs."""

    calls: int = 0
    failed: int = 0
    grid_misses: int = 0
    sa_instances: int = 0
    sa_hits: int = 0
    sa_energy_gap: float | None = None
    errors: list[str] = field(default_factory=list)

    def call(self, ok: bool, what: str) -> None:
        self.calls += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


@dataclass
class Workload:
    name: str
    files: dict[str, dict]            # config file name -> JSON body
    commands: list[list[str]]         # CLI argv lists, run in order
    work: int                         # points, states or proposals per run
    work_unit: str
    work_commands: tuple[str, ...]    # commands whose time the work rate divides
    check: Callable[[Path, list[dict]], Checks]

    def write_inputs(self, workdir: Path) -> None:
        for name, body in self.files.items():
            (workdir / name).write_text(json.dumps(body), encoding="utf-8")


# --- independent reading of the program's outputs ------------------------

def read_qubo(path: Path) -> tuple[int, float, list[tuple[int, int, float]]]:
    """(n_vars, offset, terms) of a qubo-v1 file; i == j terms are linear."""
    n, offset, terms = 0, 0.0, []
    for line in path.read_text(encoding="utf-8").splitlines():
        parts = line.split()
        if not parts or parts[0] in ("qubo-v1", "label") or parts[0].startswith("#"):
            continue
        if parts[0] == "vars":
            n = int(parts[1])
        elif parts[0] == "offset":
            offset = float(parts[1])
        else:
            terms.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return n, offset, terms


def qubo_energy(model: tuple, bits: str) -> tuple[float, float]:
    """Correctly rounded energy of an assignment string, and its term scale."""
    _, offset, terms = model
    active = [offset] + [c for i, j, c in terms if bits[i] == "1" and bits[j] == "1"]
    return math.fsum(active), sum(abs(c) for c in active)


def read_tsv(text: str) -> list[tuple[float, ...]] | None:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("m\tqubo_min\treference"):
        return None
    try:
        return [tuple(float(v) for v in line.split("\t")) for line in lines[1:]]
    except ValueError:
        return None


def read_solve(cmd: dict, n_vars: int) -> dict | None:
    """The solver JSON of a successful solve call, or None."""
    if cmd["rc"] != 0:
        return None
    try:
        out = json.loads(cmd["stdout"])
    except ValueError:
        return None
    if out.get("n_vars") != n_vars or len(out.get("assignment", "")) != n_vars:
        return None
    return out


def consistent(out: dict, model: tuple) -> bool:
    """Reported energy equals the model's energy at the reported assignment."""
    value, scale = qubo_energy(model, out["assignment"])
    return close(out["energy"], value, scale)


# --- workloads -------------------------------------------------------------

def sweep_pinned(seed: int, smoke: bool) -> Workload:
    """verify on all 64 on-grid w points, then sweep 641 mostly off-grid m."""
    points = grid_points(6, 8.0, -4.0)[::(21 if smoke else 1)]
    lo, hi, step = SWEEP_GRID
    if smoke:
        step = 0.5
    n_grid = int(math.floor((hi - lo) / step + 1e-9)) + 1
    cfg = readme_config()
    cfg["verify"] = {"m_points": points}
    ref = json.loads(SWEEP_REFERENCE.read_text(encoding="utf-8"))["qubo_min"]

    def check(workdir: Path, cmds: list[dict]) -> Checks:
        checks = Checks()
        for cmd, expect in ((cmds[0], [(m, relu(m)) for m in points]),
                            (cmds[1], [(lo + step * k, ref[round(step * k / SWEEP_GRID[2])])
                                       for k in range(n_grid)])):
            rows = read_tsv(cmd["stdout"]) if cmd["rc"] == 0 else None
            ok = rows is not None and len(rows) == len(expect)
            if ok:
                for (m, qmin, *_), (m_ref, q_ref) in zip(rows, expect):
                    if not close(m, m_ref, 0.0):
                        ok = False
                    elif not close(qmin, q_ref):
                        checks.grid_misses += 1
                        ok = False
            checks.call(ok, f"{cmd['argv'][0]}: rc {cmd['rc']}, bad rows or grid misses")
        return checks

    return Workload(
        "sweep_pinned", {"pinned.json": cfg},
        [["verify", "pinned.json"], ["sweep", "pinned.json", f"--grid={lo}:{hi}:{step}"]],
        len(points) + n_grid, "points", ("verify", "sweep"), check)


def exhaustive_full(seed: int, smoke: bool) -> Workload:
    """build, then one unpinned exhaustive solve over 24 (smoke: 17) bits."""
    d_w, d_t, d_z = (5, 2, 5) if smoke else (7, 3, 7)
    cfg = {
        "cost": {"kind": "quadratic", "target": -1.0, "scale": 1.0},
        "model": {"inputs": [1.0], "w": expansion(d_w, 8.0, -4.0)},
        "penalty": {"t": expansion(d_t, 1.0, -1.0),
                    "z1": expansion(d_z, 4.0, 0.0),
                    "z2": expansion(d_z, 4.0, 0.0),
                    "M": "auto"},
    }
    n_vars = d_w + d_t + 2 * d_z
    # w grid spacing 8/(2^d-1) is twice the z spacing: every w point is feasible
    ref = min((m + 1.0) ** 2 + relu(m) for m in grid_points(d_w, 8.0, -4.0))

    def check(workdir: Path, cmds: list[dict]) -> Checks:
        checks = Checks()
        build, solve = cmds
        checks.call(build["rc"] == 0 and f": {n_vars} vars" in build["stdout"],
                    f"build: rc {build['rc']}")
        out = read_solve(solve, n_vars)
        ok = out is not None and consistent(out, read_qubo(workdir / "full.qubo"))
        if ok and not close(out["energy"], ref):
            checks.grid_misses += 1
            ok = False
        checks.call(ok, f"solve: rc {solve['rc']}, inconsistent or off the reference {ref!r}")
        return checks

    return Workload(
        "exhaustive_full", {"full.json": cfg},
        [["build", "full.json", "full.qubo"],
         ["solve", "full.qubo", "--solver", "exhaustive"]],
        1 << n_vars, "states", ("solve",), check)


def anneal_wide(seed: int, smoke: bool) -> Workload:
    """build the D=32 all-ones-input model (208 vars), then one SA solve."""
    dim, sweeps, restarts = (4, 50, 2) if smoke else (32, 1000, 8)
    n_vars = 6 * dim + 16
    ground = 0.0  # cost scale 0, and m = 0 is reachable with r = 0

    def check(workdir: Path, cmds: list[dict]) -> Checks:
        checks = Checks()
        build, solve = cmds
        checks.call(build["rc"] == 0 and f": {n_vars} vars" in build["stdout"],
                    f"build: rc {build['rc']}")
        out = read_solve(solve, n_vars)
        ok = (out is not None and consistent(out, read_qubo(workdir / "wide.qubo"))
              and len(out["restart_energies"]) == restarts
              and close(min(out["restart_energies"]), out["energy"])
              and out["energy"] >= ground - 1e-9)
        if ok:
            checks.sa_energy_gap = out["energy"] - ground
        checks.call(ok, f"solve: rc {solve['rc']}, inconsistent or below the ground energy")
        return checks

    return Workload(
        "anneal_wide", {"wide.json": readme_config(dim)},
        [["build", "wide.json", "wide.qubo"],
         ["solve", "wide.qubo", "--solver", "sa", "--sweeps", str(sweeps),
          "--restarts", str(restarts), "--seed", str(seed)]],
        sweeps * n_vars * restarts, "proposals", ("solve",), check)


def anneal_pinned(seed: int, smoke: bool) -> Workload:
    """build the README model, then SA solves with w pinned to seeded grid points."""
    count, sweeps, restarts = (3, 50, 4) if smoke else (20, 1000, 16)
    rng = random.Random(seed)
    ks = [rng.randrange(64) for _ in range(count)]
    commands = [["build", "pinned.json", "pinned.qubo"]]
    for i, k in enumerate(ks):
        fixes = [f"--fix=w[0][{b}]={(k >> b) & 1}" for b in range(6)]
        commands.append(["solve", "pinned.qubo", "--solver", "sa", "--sweeps", str(sweeps),
                         "--restarts", str(restarts), "--seed", str(seed + i), *fixes])
    refs = [relu(-4.0 + 8.0 * k / 63.0) for k in ks]  # on-grid: pinned minimum is f(m)

    def check(workdir: Path, cmds: list[dict]) -> Checks:
        checks = Checks()
        checks.call(cmds[0]["rc"] == 0 and ": 22 vars" in cmds[0]["stdout"],
                    f"build: rc {cmds[0]['rc']}")
        model = read_qubo(workdir / "pinned.qubo")
        for cmd, k, ref in zip(cmds[1:], ks, refs):
            out = read_solve(cmd, 22)
            pinned = "".join(str((k >> b) & 1) for b in range(6))
            ok = (out is not None and out["assignment"][:6] == pinned
                  and consistent(out, model) and out["energy"] >= ref - 1e-9)
            if ok:
                checks.sa_instances += 1
                checks.sa_hits += close(out["energy"], ref)
            checks.call(ok, f"solve k={k}: rc {cmd['rc']}, wrong pins, inconsistent "
                            f"or below f(m) = {ref!r}")
        return checks

    return Workload(
        "anneal_pinned", {"pinned.json": readme_config()}, commands,
        count * sweeps * 16 * restarts, "proposals", ("solve",), check)


WORKLOADS = {w.__name__: w for w in (sweep_pinned, exhaustive_full, anneal_wide, anneal_pinned)}
