"""Benchmark of the reluqubo CLI pipeline: config -> build -> solve -> verify.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N    # every workload, one report
    python3 perfbench/run.py --smoke                    # tiny sizes, both modes

Each run of a workload is a fresh Python process (perfbench/worker.py)
that imports `reluqubo.cli` from ./src and calls `main([...])` for every
CLI command of the workload.  Runs repeat until --seconds is used up
(at least three), and every run's outputs are checked.  Right after each
run a second process times a fixed probe kernel, and every time of the
run is scaled by PROBE_REF_S / probe time: the shared box's speed swings
by up to 2x in phases longer than a run, and the probe cancels most of
that.  Each metric is the median over the runs.  With --trace 1,
untraced and traced runs alternate: the traced ones give the per-layer
metrics, and both give the tracing overhead.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics;
the lines before it are a readable report with quartiles, run counts
and the unscaled wall times.  Exit status: 0 all
checks passed, 1 a check failed, 2 the harness could not run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
from workloads import WORKLOADS, Checks, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".perfbench_work"

BLAS_THREADS = 1          # at or below nproc; one thread keeps runs steady
MIN_RUNS = 3
RUN_TIMEOUT_S = 150
SA_HIT_FLOOR = 0.5        # anneal_pinned quality floor at full size
PROBE_REF_S = 0.15        # probe time in a fast phase of a 2-vCPU Xeon; sets the scale only

END_TO_END_UNITS = {"setup_s": "s", "total_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Run:
    traced: bool
    metrics: dict[str, float]        # end-to-end, times scaled by the probe
    wall: dict[str, float]           # the same, unscaled, plus probe_s
    checks: Checks
    layers: dict[str, float] | None  # per-layer, times scaled by the probe


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_frac", "fraction"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "RELUQUBO_BIT_CAP")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str:
    """HEAD of the checkout's own .git, or 'unknown' outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def probe_seconds(env: dict[str, str]) -> float:
    proc = subprocess.run([sys.executable, str(WORKER), "--probe"], env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise HarnessError(f"speed probe failed: {proc.stderr[-2000:]}")
    return float(proc.stdout)


def run_once(wl: Workload, workdir: Path, traced: bool, env: dict[str, str]) -> Run:
    job = {"src": str(SRC), "commands": wl.commands, "trace": traced, "out": "result.json"}
    (workdir / "job.json").write_text(json.dumps(job), encoding="utf-8")
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), "job.json"], cwd=workdir,
                              env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{wl.name}: run exceeded {RUN_TIMEOUT_S} s") from None
    total_s = time.monotonic() - spawned
    if proc.returncode != 0 or not result_path.is_file():
        raise HarnessError(f"{wl.name}: worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    probe_s = probe_seconds(env)
    scale = PROBE_REF_S / probe_s
    result = json.loads(result_path.read_text(encoding="utf-8"))
    cmds = result["commands"]
    build_s = sum(c["seconds"] for c in cmds if c["argv"][0] == "build")
    work_s = sum(c["seconds"] for c in cmds if c["argv"][0] in wl.work_commands)
    wall = {"setup_s": result["import_done"] - spawned + build_s,
            "total_s": total_s,
            "work_per_s": wl.work / work_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "probe_s": probe_s}
    metrics = {"setup_s": wall["setup_s"] * scale, "total_s": total_s * scale,
               "work_per_s": wall["work_per_s"] / scale, "peak_rss_mb": wall["peak_rss_mb"]}
    layers = None
    if traced:
        layers = {name: value * scale if layer_unit(name) in ("s", "ms") else value
                  for name, value in tracing.layer_metrics(result["spans"], total_s).items()}
    return Run(traced, metrics, wall, wl.check(workdir, cmds), layers)


def measure(wl: Workload, seconds: float, trace: bool, smoke: bool,
            env: dict[str, str]) -> list[Run]:
    """Runs until `seconds` would be exceeded; untraced and traced alternate with trace."""
    workdir = WORK_ROOT / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    runs: list[Run] = []
    try:
        wl.write_inputs(workdir)
        start = time.monotonic()
        min_runs = (2 if smoke else MIN_RUNS) + trace
        while True:
            runs.append(run_once(wl, workdir, trace and len(runs) % 2 == 1, env))
            elapsed = time.monotonic() - start
            if len(runs) >= min_runs and (smoke or elapsed * (1 + 1 / len(runs)) > seconds):
                return runs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3); quartiles as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def summarize(wl: Workload, runs: list[Run], trace: bool, smoke: bool) -> tuple[dict, list[str]]:
    """The result object and the readable report of one workload."""
    calls = sum(r.checks.calls for r in runs)
    failed = sum(r.checks.failed for r in runs)
    rows: list[tuple[str, str, list[float]]] = []
    plain = [r for r in runs if not r.traced]
    work_label = f"{wl.work_unit}_per_s"
    for name, unit in END_TO_END_UNITS.items():
        label = work_label if name == "work_per_s" else name
        rows.append((label, unit, [r.metrics[name] for r in plain]))
    for name, unit in (("setup_s", "s"), ("total_s", "s"), ("work_per_s", "1/s"),
                       ("probe_s", "s")):
        label = "wall " + (work_label if name == "work_per_s" else name)
        rows.append((label, unit, [r.wall[name] for r in plain]))
    rows.append(("failed_frac", "fraction", [r.checks.failed / r.checks.calls for r in runs]))
    if wl.name in ("sweep_pinned", "exhaustive_full"):
        rows.append(("grid_misses", "count", [r.checks.grid_misses for r in runs]))
    if wl.name == "anneal_pinned":
        rows.append(("sa_hit_frac", "fraction",
                     [r.checks.sa_hits / max(1, r.checks.sa_instances) for r in runs]))
    if wl.name == "anneal_wide":
        rows.append(("sa_energy_gap", "energy",
                     [r.checks.sa_energy_gap for r in runs if r.checks.sa_energy_gap is not None]
                     or [float("nan")]))

    correct = failed == 0
    if wl.name == "anneal_pinned" and not smoke:
        hits = sum(r.checks.sa_hits for r in runs)
        correct = correct and hits >= SA_HIT_FLOOR * sum(r.checks.sa_instances for r in runs)

    if trace:
        traced = [r.layers for r in runs if r.traced]
        metrics = {n: {"value": statistics.median(t[n] for t in traced), "unit": layer_unit(n)}
                   for n in traced[0]}
        overhead = (statistics.median(r.metrics["total_s"] for r in runs if r.traced)
                    / statistics.median(r.metrics["total_s"] for r in plain) - 1.0)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
        rows.append(("trace.overhead_frac", "fraction", [overhead]))
        rows.append(("trace.uncovered_frac", "fraction",
                     [t["trace.uncovered_frac"] for t in traced]))
    else:
        metrics = {n: {"value": statistics.median(r.metrics[n] for r in plain), "unit": unit}
                   for n, unit in END_TO_END_UNITS.items()}

    report = [f"{wl.name}: {len(plain)} untraced + {len(runs) - len(plain)} traced runs, "
              f"{calls} CLI calls, {failed} failed",
              f"  {'metric':<24}{'unit':<10}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}"]
    for label, unit, values in rows:
        med, q1, q3 = spread(values)
        report.append(f"  {label:<24}{unit:<10}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{len(values):>4}")
    for r in runs:
        report.extend(f"  check failed: {e}" for e in r.checks.errors[:3])
    return {"correct": correct, "attempted": calls, "failed": failed, "metrics": metrics}, report


def smoke_problems(result: dict, trace: bool, spec: dict) -> list[str]:
    """Differences between the printed metrics and BENCHMARK.json."""
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {n: m["unit"] for n, m in result["metrics"].items()}
    problems = [f"missing metric {n}" for n in expected.keys() - printed.keys()]
    problems += [f"unlisted metric {n}" for n in printed.keys() - expected.keys()]
    problems += [f"{n}: unit {printed[n]!r}, BENCHMARK.json says {expected[n]!r}"
                 for n in expected.keys() & printed.keys() if printed[n] != expected[n]]
    return problems + ([] if result["correct"] else ["a correctness check failed"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tiny size, untraced and traced; "
                             "checks outputs and metric names/units against BENCHMARK.json")
    args = parser.parse_args(argv)

    try:
        if not (SRC / "reluqubo" / "cli.py").is_file():
            raise HarnessError(f"no program source at {SRC / 'reluqubo'}")
        if not compileall.compile_dir(str(SRC / "reluqubo"), quiet=1):
            raise HarnessError("the program source does not compile")
        env = child_env()
        env_proc = subprocess.run([sys.executable, str(WORKER), "--env"], env=env,
                                  capture_output=True, text=True, timeout=60)
        if env_proc.returncode != 0:
            raise HarnessError(f"environment record failed: {env_proc.stderr[-2000:]}")
        record = {**json.loads(env_proc.stdout), "commit": git_commit(), "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke}
        print("env " + json.dumps(record, sort_keys=True))

        names = list(WORKLOADS) if args.workload == "all" or args.smoke else [args.workload]
        modes = (0, 1) if args.smoke else (args.trace,)
        spec = json.loads(SPEC.read_text(encoding="utf-8")) if args.smoke else None
        results, problems = {}, []
        for name in names:
            wl = WORKLOADS[name](args.seed, args.smoke)
            for trace in modes:
                runs = measure(wl, args.seconds, bool(trace), args.smoke, env)
                result, report = summarize(wl, runs, bool(trace), args.smoke)
                print("\n".join(report), flush=True)
                results[name] = result
                if spec is not None:
                    problems += [f"{name} trace {trace}: {p}"
                                 for p in smoke_problems(result, bool(trace), spec)]
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.smoke:
        print("\n".join(problems) or "smoke: all workloads ran, checks passed, "
                                     "metric names and units match BENCHMARK.json")
        return 1 if problems else 0
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{n}": m for w, r in results.items()
                             for n, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
