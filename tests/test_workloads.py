"""The benchmark's own output checks pass at full size: each workload's
CLI argv lists run through reluqubo.cli.main in a fresh directory, in this
process, and its check reports no failure, as perfbench/run.py requires
of every run."""

import pytest
from helpers import PERFBENCH, load

from reluqubo.cli import main

WORKLOADS = load("workloads").WORKLOADS


def run_workload(name, seed, tmp_path, monkeypatch, capsys):
    """The workload's Checks after one full-size run in tmp_path."""
    workload = WORKLOADS[name](seed, smoke=False)
    monkeypatch.chdir(tmp_path)
    workload.write_inputs(tmp_path)
    cmds = []
    for argv in workload.commands:
        rc = main(argv)
        cmds.append({"argv": argv, "rc": rc, "stdout": capsys.readouterr().out})
    checks = workload.check(tmp_path, cmds)
    assert checks.failed == 0, checks.errors
    return checks


# anneal_wide at ten seeds: its check reads the SA energy against the ground
# energy 0 with an absolute 1e-9, and the model's ground states round to about
# +-2e-7, so a change to its coefficients or walks can fail at some seeds only.
# At seed 701 the walks reach a ground state that reads -4.415e-8, below the
# check's bound: a scaled tolerance takes the mark off.
ROUNDED_BELOW_ZERO = pytest.mark.xfail(
    strict=True, reason="anneal_wide's ground state reads -4.415e-8 at seed 701, "
                        "and its check refuses any energy below -1e-9")


@pytest.mark.parametrize("name, seed", [("sweep_pinned", 1), ("exhaustive_full", 1),
                                        *(("anneal_wide", s) for s in range(1, 11)),
                                        pytest.param("anneal_wide", 701,
                                                     marks=ROUNDED_BELOW_ZERO)])
def test_checks_pass(tmp_path, monkeypatch, capsys, name, seed):
    run_workload(name, seed, tmp_path, monkeypatch, capsys)


def test_anneal_pinned_checks_pass_and_reach_the_hit_floor(tmp_path, monkeypatch, capsys):
    checks = run_workload("anneal_pinned", 1, tmp_path, monkeypatch, capsys)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings by name
    assert checks.sa_hits >= load("run").SA_HIT_FLOOR * checks.sa_instances
