"""The benchmark's tracer wraps functions by name; each name must resolve,
and a benchmark worker must run a workload to the end, traced or not."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import PERFBENCH, load

import reluqubo


def test_every_trace_target_resolves():
    tracing = load("tracing")
    assert tracing.TARGETS
    for owner_path, attr, _, _ in tracing.TARGETS:
        module_name, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr} does not resolve"


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_worker_runs_anneal_wide_smoke(tmp_path, trace):
    # the benchmark counts a worker that exits non-zero as a harness failure,
    # and then measures nothing; tracing must not break a run either
    workload = load("workloads").anneal_wide(1, smoke=True)
    workload.write_inputs(tmp_path)
    src = str(Path(reluqubo.__file__).resolve().parent.parent)
    job = {"src": src, "commands": workload.commands, "trace": trace, "out": "result.json"}
    (tmp_path / "job.json").write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), "job.json"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert [c["rc"] for c in result["commands"]] == [0] * len(workload.commands), \
        [c["stderr"] for c in result["commands"]]
    assert (result["spans"] is not None) == trace
    assert workload.check(tmp_path, result["commands"]).failed == 0
