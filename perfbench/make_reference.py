"""Write sweep_reference.json: the pinned minima of the sweep_pinned grid.

    python3 perfbench/make_reference.py

Runs `reluqubo sweep` on the README config over the sweep_pinned grid
with the program in ./src and stores its qubo_min column.  Most grid
points are off the w grid, where the pinned minimum is not f(m), so the
benchmark checks those rows against the values of the commit recorded in
the file.  Regenerate it only when a change is meant to alter them.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from run import SRC, git_commit
from workloads import SWEEP_GRID, SWEEP_REFERENCE, read_tsv, readme_config


def main() -> int:
    sys.path.insert(0, str(SRC))
    from reluqubo.cli import main as cli_main

    config_path = SWEEP_REFERENCE.with_name("reference_config.tmp.json")
    config_path.write_text(json.dumps(readme_config()), encoding="utf-8")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli_main(["sweep", str(config_path), "--grid=%s:%s:%s" % SWEEP_GRID])
    finally:
        config_path.unlink()
    rows = read_tsv(out.getvalue())
    if rc != 0 or not rows:
        print(f"error: sweep exited {rc}", file=sys.stderr)
        return 1
    SWEEP_REFERENCE.write_text(json.dumps({
        "commit": git_commit(),
        "config": readme_config(),
        "grid": "%s:%s:%s" % SWEEP_GRID,
        "qubo_min": [row[1] for row in rows],
    }, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} rows to {SWEEP_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
