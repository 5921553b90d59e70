"""tools/output_hashes.py, the byte-identity check of the benchmark
workloads' CLI outputs, must keep running and give stable fingerprints."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import reluqubo

ROOT = Path(__file__).resolve().parent.parent


def test_output_hashes_cover_every_workload_and_repeat():
    src = str(Path(reluqubo.__file__).resolve().parent.parent)
    argv = [sys.executable, str(ROOT / "tools" / "output_hashes.py"), src, "--smoke",
            "--seeds", "1,2"]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True)
            for _ in range(2)]
    hashes = json.loads(runs[0].stdout)
    assert sorted(hashes) == ["anneal_pinned", "anneal_wide", "exhaustive_full",
                              "multi_input", "sweep_pinned"]
    for by_seed in hashes.values():
        assert sorted(by_seed) == ["1", "2"]
        assert all(re.fullmatch("[0-9a-f]{64}", h) for h in by_seed.values())
    assert hashes["anneal_wide"]["1"] != hashes["anneal_wide"]["2"]  # the SA seed is hashed
    assert hashes["multi_input"]["1"] == hashes["multi_input"]["2"]  # no seed, no workload
    assert runs[1].stdout == runs[0].stdout


def test_output_hashes_take_a_negative_seed_first():
    # "--seeds -5,2" would read as an option; space-separated, -5 is a value
    src = str(Path(reluqubo.__file__).resolve().parent.parent)
    argv = [sys.executable, str(ROOT / "tools" / "output_hashes.py"), src, "--smoke",
            "--seeds", "-5", "4294967296,2"]
    hashes = json.loads(subprocess.run(argv, capture_output=True, text=True, timeout=300,
                                       check=True).stdout)
    for by_seed in hashes.values():
        assert sorted(by_seed) == ["-5", "2", "4294967296"]


@pytest.mark.parametrize("token", ["1,,2", "x"])
def test_output_hashes_refuse_a_bad_seed_as_usage_error(token):
    src = str(Path(reluqubo.__file__).resolve().parent.parent)
    argv = [sys.executable, str(ROOT / "tools" / "output_hashes.py"), src, "--smoke",
            "--seeds", token]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert run.returncode == 2
    assert run.stdout == ""
    assert f"argument --seeds: expected integers, got {token!r}" in run.stderr
    assert "Traceback" not in run.stderr
