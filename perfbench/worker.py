"""One benchmark run in a fresh process: import the CLI, run its commands.

    python3 worker.py JOB.json    run the job, write its result file
    python3 worker.py --env       print the environment record as JSON
    python3 worker.py --probe     print the seconds the speed probe took

The job names the source tree to import, the CLI argv lists, whether to
trace, and the result file.  The run's work directory is the current
directory.  stdout and stderr of every command are captured in the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def probe() -> float:
    """Seconds for a fixed piece of work that never touches reluqubo.

    Half of it is interpreter-bound (single-bit-flip updates on a random
    sparse model, like SA), half numpy-bound (energies of all 2^16
    assignments, like the exhaustive kernel).  Timed next to each run,
    it measures how fast the shared box is at that moment.
    """
    import random

    import numpy as np

    rng = random.Random(0)
    n = 64
    adj = [[(rng.randrange(n), rng.uniform(-1, 1)) for _ in range(8)] for _ in range(n)]
    field = [rng.uniform(-1, 1) for _ in range(n)]
    bits = [0] * n
    table = ((np.arange(1 << 16)[:, None] >> np.arange(16)) & 1).astype(float)
    coupling = np.arange(256.0).reshape(16, 16) / 256
    start = time.perf_counter()
    for _ in range(3000):
        for i in range(n):
            de = -field[i] if bits[i] else field[i]
            if de > 0.0 and rng.random() >= 0.3:
                continue
            sign = -1 if bits[i] else 1
            bits[i] ^= 1
            for j, c in adj[i]:
                field[j] += sign * c
    for _ in range(30):
        np.einsum("ij,ij->i", table @ coupling, table).argmin()
    return time.perf_counter() - start


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    import reluqubo.cli as cli
    import_done = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(job["src"] + os.sep):
        raise SystemExit(f"reluqubo.cli imported from {cli.__file__}, not {job['src']}")

    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    commands = []
    for argv in job["commands"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.call(f"cli.{argv[0]}", cli.main, (argv,), {})
            except SystemExit as exc:  # argparse rejects the argv
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed call, not a lost run
                traceback.print_exc()
                rc = -1
        commands.append({"argv": argv, "rc": rc, "seconds": time.monotonic() - start,
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
    return {"import_done": import_done, "commands": commands,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "spans": tracer.spans if tracer else None}


def main(argv: list[str]) -> int:
    if argv == ["--env"]:
        print(json.dumps(environment()))
        return 0
    if argv == ["--probe"]:
        print(json.dumps(probe()))
        return 0
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
