"""The README's library quickstart runs as printed."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    energy, state = out.getvalue().splitlines()
    # m = -1.5 is off the z grid (step 4/63), so the minimum sits above
    # f(-1.5) = 1.5 by at most the README's res_z * (1 + M * res_z)
    res_z, M = 4.0 / 63.0, 252.0
    assert 1.5 <= float(energy) <= 1.5 + res_z * (1.0 + M * res_z)
    m, t, z1, z2, r = eval(state)
    # off the z grid no state reaches r = 0; the nearest z1 is 24 steps
    assert (m, t, z2) == (-1.5, -1.0, 0.0)
    assert z1 == pytest.approx(24 * res_z) and r == pytest.approx(1.5 - 24 * res_z)
