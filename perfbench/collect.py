"""Repeat the benchmark over seeds and summarize the spread across runs.

    python3 perfbench/collect.py --runs 10 [--workloads a,b] [--trace 0|1] [--out FILE]

Runs `run.py` once per seed (1..N) and workload, with BENCHMARK.json's
run_seconds, and reports for every metric the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread
(q3 - q1) / median next to the metric's bound.  --out stores the
summary in a JSON file under "end_to_end" or "per_layer" (by --trace),
keeping the other section; perfbench/baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(env record, final result object) of one benchmark invocation."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=240)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    env = json.loads(lines[0].removeprefix("env "))
    return env, json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "n": len(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in SPEC[kind]}
    section: dict = {"runs": args.runs, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    env: dict = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            env, result = run(workload, seed, args.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: a correctness check failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        stats = {name: summary(v) for name, v in values.items()}
        section["workloads"][workload] = stats
        print(f"{workload} ({args.runs} runs)")
        for name, s in stats.items():
            line = f"  {name:<34}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}"
            if s["spread"] is not None:
                line += f"  spread {s['spread']:7.3f}"
            if bounds.get(name) is not None:
                line += f"  bound {bounds[name]:.2f}"
            print(line, flush=True)
    if args.out:
        out = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        out["env"] = {k: v for k, v in env.items() if k not in ("seed", "trace")}
        out[kind] = section
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
