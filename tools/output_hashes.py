"""Fingerprint every benchmark workload's CLI outputs, to show a change keeps them.

    python3 tools/output_hashes.py SRC [--smoke] [--seeds SEED[,SEED...] ...]

Imports `reluqubo.cli` from the source tree SRC and, for each workload of
perfbench/workloads.py and each seed, writes the workload's configs to a
fresh temporary directory and runs its CLI argv lists there, in this
process.  One sha256 per workload and seed covers each command's argv,
exit code and stdout, then the name and bytes of every file left in the
directory.  stderr carries timings, so it is left out.  Prints one JSON
object {workload: {seed: sha256}}; run it on two trees and compare.
Seeds are given space- or comma-separated (`--seeds -5 4294967296`,
`--seeds=1,2,3`); the default is 1, 2 and 3.

One more entry, multi_input, is no benchmark workload: `verify` and
`sweep` on two configs of several inputs, the same at every seed and size.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS, Workload, expansion, readme_config  # noqa: E402


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of main(argv); stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def seed_list(token: str) -> list[int]:
    """The integer seeds of one comma-separated --seeds token."""
    try:
        return [int(s) for s in token.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {token!r}") from None


def multi_input() -> Workload:
    """m = w[0] + w[1] with w depth 6 on [-2, 2], where every m is on the z
    grids, and m = w[0] + 2 w[1] - 3 w[2] with w depth 3 on [-1, 1], where
    most m are not, each verified at its m lattice and swept."""
    two = readme_config(2)
    two["model"]["w"] = expansion(6, 4.0, -2.0)
    two["verify"] = {"m_points": [-4 + 4 * k / 63 for k in range(127)]}
    three = {"cost": {"kind": "quadratic", "target": 0.7, "scale": 0.3},
             "model": {"inputs": [1.0, 2.0, -3.0], "w": expansion(3, 2.0, -1.0)},
             "penalty": {"t": expansion(3, 1.0, -1.0), "z1": expansion(5, 4.0, 0.0),
                         "z2": expansion(5, 4.0, 0.0), "M": "auto"},
             "verify": {"m_points": [-6 + 2 * k / 7 for k in range(43)]}}
    commands = [["verify", "two.json"], ["sweep", "two.json", "--grid=-4:4:0.0625"],
                ["verify", "three.json"], ["sweep", "three.json", "--grid=-6:6:0.125"]]
    # no benchmark run reads the work count or the check
    return Workload("multi_input", {"two.json": two, "three.json": three}, commands,
                    0, "points", (), None)


def workload_hash(main, workload: Workload) -> str:
    digest = hashlib.sha256()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            workload.write_inputs(Path(tmp))
            for argv in workload.commands:
                rc, stdout = run_cli(main, argv)
                digest.update(json.dumps([argv, rc, stdout]).encode())
            for path in sorted(Path(tmp).rglob("*")):
                if path.is_file():
                    digest.update(json.dumps(str(path.relative_to(tmp))).encode())
                    digest.update(path.read_bytes())
        finally:
            os.chdir(home)
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="source tree that holds the reluqubo package")
    parser.add_argument("--smoke", action="store_true", help="the workloads' tiny sizes")
    # argparse reads a lone "-5" as a value but "-5,2" as an option, so seeds may come
    # one token each
    parser.add_argument("--seeds", nargs="+", type=seed_list, default=[[1, 2, 3]],
                        metavar="SEED", help="workload seeds, space- or comma-separated")
    args = parser.parse_args(argv)
    seeds = [seed for token in args.seeds for seed in token]

    src = str(Path(args.src).resolve())
    sys.path.insert(0, src)
    import reluqubo.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"reluqubo.cli imported from {cli.__file__}, not {src}")

    hashes = {name: {str(seed): workload_hash(cli.main, make(seed, args.smoke))
                     for seed in seeds} for name, make in WORKLOADS.items()}
    hashes["multi_input"] = dict.fromkeys(map(str, seeds), workload_hash(cli.main, multi_input()))
    print(json.dumps(hashes, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
