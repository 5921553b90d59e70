"""End-to-end tests of the command-line interface."""

import csv
import ctypes
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reluqubo
from reluqubo.algebra import energy, parse_qubo
from reluqubo.cli import main
from reluqubo.encoding import BinaryExpansion
from reluqubo.formulation import build_from_config, recommend_M
from reluqubo.oracle import Grid1D, relu_reference
from reluqubo import cli, formulation, solvers
from reluqubo.solvers import AnnealConfig, exhaustive_solve

from helpers import all_assignments


def expansion(depth, alpha, beta):
    return {"depth": depth, "alpha": alpha, "beta": beta}


def config_negative_range():
    """w covers [-4, 0] on the same spacing as the z grids."""
    return {
        "cost": {"kind": "quadratic", "target": 0.0, "scale": 0.0},
        "model": {"inputs": [1.0], "w": expansion(6, 4.0, -4.0)},
        "penalty": {"t": expansion(4, 1.0, -1.0),
                    "z1": expansion(6, 4.0, 0.0),
                    "z2": expansion(6, 4.0, 0.0),
                    "M": 252.0},
    }


def config_positive_range():
    cfg = config_negative_range()
    cfg["model"]["w"] = expansion(6, 4.0, 0.0)
    return cfg


def grid_points(depth, alpha, beta):
    top = (1 << depth) - 1
    return [beta + alpha * (k / float(top)) for k in range(top + 1)]


def readme_config(M="auto"):
    """The README config, verified at every point of its 64-point w grid."""
    cfg = config_negative_range()
    cfg["model"]["w"] = expansion(6, 8.0, -4.0)
    cfg["penalty"]["M"] = M
    cfg["verify"] = {"m_points": grid_points(6, 8.0, -4.0)}
    return cfg


def eleven_var_config():
    """w on [-4s, 3s] with step s = 0.4/7, z on [0, 0.4] with the same
    step, depth 3 each, and t of depth 2: 11 vars, at every w point."""
    s = 0.4 / 7
    w = (3, 7 * s, -4 * s)
    return {"cost": {"kind": "quadratic", "target": 0.0, "scale": 0.0},
            "model": {"inputs": [1.0], "w": expansion(*w)},
            "penalty": {"t": expansion(2, 1.0, -1.0), "z1": expansion(3, 0.4, 0.0),
                        "z2": expansion(3, 0.4, 0.0), "M": 16.0},
            "verify": {"m_points": grid_points(*w)}}


def unreachable_residual_config():
    """w of depth 6 on [-2, 2] has the z spacing 4/63, but its points are
    odd multiples of 2/63, so no z1, z2 reach r = 0."""
    cfg = config_negative_range()
    cfg["model"]["w"] = expansion(6, 4.0, -2.0)
    cfg["penalty"]["M"] = "auto"
    cfg["verify"] = {"m_points": [-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0]}
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(*args):
    """The CLI in a child process that imports the same reluqubo as this
    one, however it was found; stdout and stderr captured as text."""
    src = str(Path(reluqubo.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "reluqubo", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def read_tsv(text):
    rows = list(csv.DictReader(text.splitlines(), delimiter="\t"))
    return [{k: float(v) for k, v in row.items()} for row in rows]


class TestBuild:
    def test_minimal_config_builds_eight_vars(self, tmp_path, capsys):
        cfg = {
            "cost": {"kind": "quadratic", "target": 0.0, "scale": 0.0},
            "model": {"inputs": [1.0], "w": expansion(2, 2.0, 0.0)},
            "penalty": {"t": expansion(2, 1.0, -1.0),
                        "z1": expansion(2, 2.0, 0.0),
                        "z2": expansion(2, 2.0, 0.0),
                        "M": 4.0},
        }
        out = tmp_path / "model.qubo"
        code = main(["build", write_config(tmp_path, cfg), str(out)])
        assert code == 0
        model = parse_qubo(out.read_text())
        assert model.n_vars == 8
        assert "8 vars" in capsys.readouterr().out

    def test_auto_m_printed_in_summary(self, tmp_path, capsys):
        cfg = config_negative_range()
        cfg["penalty"]["M"] = "auto"
        out = tmp_path / "model.qubo"
        code = main(["build", write_config(tmp_path, cfg), str(out)])
        assert code == 0
        z = BinaryExpansion(6, 4.0, 0.0)
        expected = recommend_M(-4.0, 0.0, z, z)
        assert f"M={expected!r}" in capsys.readouterr().out

    def test_missing_penalty_names_key(self, tmp_path, capsys):
        cfg = config_negative_range()
        del cfg["penalty"]
        code = main(["build", write_config(tmp_path, cfg), str(tmp_path / "m.qubo")])
        assert code == 2
        assert "penalty" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,path", [("cost", "target", "cost.target"),
                                                  ("penalty", "M", "penalty.M"),
                                                  ("model", "inputs", "model.inputs[0]")])
    def test_integer_past_float_range_is_input_error(self, tmp_path, capsys,
                                                     section, key, path):
        cfg = config_negative_range()
        huge = 10 ** 400  # json writes it as a 401-digit integer
        cfg[section][key] = [huge] if key == "inputs" else huge
        code = main(["build", write_config(tmp_path, cfg), str(tmp_path / "m.qubo")])
        assert code == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["model.w", "penalty.z1"])
    @pytest.mark.parametrize("depth", [54, 1100])
    def test_depth_past_double_precision_is_input_error(self, tmp_path, capsys,
                                                        path, depth):
        cfg = config_negative_range()
        cfg["penalty"]["M"] = "auto"
        section, key = path.split(".")
        cfg[section][key]["depth"] = depth
        code = main(["build", write_config(tmp_path, cfg), str(tmp_path / "m.qubo")])
        assert code == 2
        err = capsys.readouterr().err
        assert path in err and "at most 53" in err

    @pytest.mark.parametrize("inputs, path", [([1.0, 0.0], "model.inputs[1]"),
                                              ([0.0, 1.0], "model.inputs[0]"),
                                              ([1.0, -0.0], "model.inputs[1]")])
    def test_zero_input_names_its_key(self, tmp_path, capsys, inputs, path):
        cfg = config_negative_range()
        cfg["model"]["inputs"] = inputs
        code = main(["build", write_config(tmp_path, cfg), str(tmp_path / "m.qubo")])
        assert code == 2
        assert f"'{path}': must be nonzero" in capsys.readouterr().err

    def test_underflowing_input_names_its_key(self, tmp_path, capsys):
        cfg = config_negative_range()
        cfg["model"]["inputs"] = [1.0, 5e-324]
        code = main(["build", write_config(tmp_path, cfg), str(tmp_path / "m.qubo")])
        assert code == 2
        assert "'model.inputs[1]': 5e-324 times the weight step" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", [0.0, 5e-324])
    def test_zero_weight_step_names_w(self, tmp_path, capsys, alpha):
        cfg = config_negative_range()
        cfg["model"]["w"]["alpha"] = alpha
        code = main(["build", write_config(tmp_path, cfg), str(tmp_path / "m.qubo")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: config error at 'model.w': alpha must be positive and give every "
            f"bit a nonzero coefficient, got {alpha!r}\n")

    @pytest.mark.parametrize("M", [5.0, "auto"])
    @pytest.mark.parametrize("key", ["z1", "z2"])
    def test_zero_z_step_names_its_key(self, tmp_path, capsys, key, M):
        # z bits of coefficient 0 would appear in no term of the model
        cfg = config_negative_range()
        cfg["penalty"]["M"] = M
        cfg["penalty"][key]["alpha"] = 0.0
        code = main(["build", write_config(tmp_path, cfg), str(tmp_path / "m.qubo")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: config error at 'penalty.{key}': alpha must be positive and give "
            f"every bit a nonzero coefficient, got 0.0\n")

    @pytest.mark.parametrize("section, key, value, path", [
        ("penalty", "M", 1e308, "penalty.M"),
        ("penalty", "M", 3e306, "penalty.M"),  # finite coefficients, but their sum is not
        ("model", "w", expansion(6, 1e200, -4.0), "model"),
        ("cost", "scale", 1e308, "cost.scale"),
    ], ids=["penalty.M", "penalty.M-sum", "model", "cost.scale"])
    def test_overflowing_config_names_its_key(self, tmp_path, section, key, value, path):
        # in a child process, so a numpy overflow warning would show on stderr
        cfg = config_negative_range()
        cfg[section][key] = value
        proc = run_cli("build", write_config(tmp_path, cfg), str(tmp_path / "m.qubo"))
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(f"error: config error at '{path}': ")

    @pytest.mark.parametrize("section, key, value", [
        ("penalty", "z1", expansion(6, 1e-320, 0.0)),  # a subnormal z step
        ("model", "w", expansion(6, 1e308, -1e308)),
    ], ids=["subnormal-z-step", "huge-w-range"])
    def test_overflowing_auto_m_names_penalty_m(self, tmp_path, capsys, section, key, value):
        cfg = config_negative_range()
        cfg["penalty"]["M"] = "auto"
        cfg[section][key] = value
        code = main(["build", write_config(tmp_path, cfg), str(tmp_path / "m.qubo")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: config error at 'penalty.M': the automatic M overflows float64\n")

    def test_invalid_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        code = main(["build", str(path), str(tmp_path / "m.qubo")])
        assert code == 2

    def test_overlong_integer_literal_is_invalid_json(self, tmp_path, capsys):
        # past Python's 4300-digit limit on int conversion, a ValueError
        path = tmp_path / "long.json"
        path.write_text('{"cost": ' + "9" * 5000 + "}")
        code = main(["build", str(path), str(tmp_path / "m.qubo")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error at '{path}': invalid JSON: Exceeds the limit" in err

    def test_over_the_variable_cap_is_input_error(self, tmp_path, capsys):
        # 700 inputs of 6 weight bits plus 16 penalty bits: 4216 > 4096
        cfg = config_negative_range()
        cfg["model"]["inputs"] = [1.0] * 700
        out = tmp_path / "m.qubo"
        with mock.patch("reluqubo.formulation.affine_mul") as mul:
            code = main(["build", write_config(tmp_path, cfg), str(out)])
        assert code == 2
        assert not mul.called and not out.exists()
        err = capsys.readouterr().err
        assert "config error at 'model.inputs': the model would have 4216 variables" in err

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code = main(["build", str(path), str(tmp_path / "m.qubo")])
        assert code == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_unwritable_output_is_input_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_negative_range())
        code = main(["build", cfg, str(tmp_path / "missing" / "m.qubo")])
        assert code == 2
        captured = capsys.readouterr()
        assert "No such file or directory" in captured.err
        assert captured.out == ""


class TestSolve:
    def build_model(self, tmp_path, cfg):
        out = tmp_path / "model.qubo"
        assert main(["build", write_config(tmp_path, cfg), str(out)]) == 0
        return out

    @pytest.mark.parametrize("data", [b"\xff\xfequbo-v1\nvars 1\noffset 0.0\n",
                                      b"qubo-v1\nvars 1\noffset 0.0\nlabel 0 w\xe9\n"],
                             ids=["first-byte", "label-line"])
    def test_non_utf8_model_names_its_path(self, tmp_path, capsys, data):
        path = tmp_path / "m.qubo"
        path.write_bytes(data)
        assert main(["solve", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: cannot read model {str(path)!r}: not UTF-8 text: ")

    def test_trivial_model_solves_to_offset(self, tmp_path, capsys):
        path = tmp_path / "m.qubo"
        path.write_text("qubo-v1\nvars 2\noffset 1.25\n")
        capsys.readouterr()
        assert main(["solve", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["energy"] == 1.25
        assert payload["assignment"] == "00"

    def test_comment_and_crlf_rewrite_solves_as_the_export(self, tmp_path, capsys):
        # the rewrite leaves export_qubo's layout, so the line loop reads it
        path = self.build_model(tmp_path, config_negative_range())
        text = path.read_text(encoding="utf-8")
        rewritten = tmp_path / "rewritten.qubo"
        rewritten.write_bytes(("# rewritten\n" + text).replace("\n", "\r\n").encode())
        outs = []
        for model in (path, rewritten):
            capsys.readouterr()
            assert main(["solve", str(model)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and json.loads(outs[0])["assignment"]

    def test_flags_default_to_anneal_config(self):
        args = cli._make_parser().parse_args(["solve", "m.qubo"])
        assert cli._anneal_config(args) == AnnealConfig()

    def test_fixed_m_reproduces_direct_solve(self, tmp_path, capsys):
        cfg = config_negative_range()
        model_path = self.build_model(tmp_path, cfg)
        built = build_from_config(cfg)
        w_bits = built.m.w_exp.quantize(-2.0)
        fixes = [f"w[0][{k}]={b}" for k, b in enumerate(w_bits)]
        capsys.readouterr()
        args = ["solve", str(model_path)]
        for f in fixes:
            args += ["--fix", f]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        direct = exhaustive_solve(
            built.model,
            fixed={built.var_ranges["w[0]"][k]: b for k, b in enumerate(w_bits)})
        assert payload["energy"] == direct.energy
        assert payload["energy"] == pytest.approx(2.0, abs=0.2)

    def test_sa_same_seed_identical_bytes(self, tmp_path):
        cfg = config_negative_range()
        model_path = self.build_model(tmp_path, cfg)
        cmd = ["solve", str(model_path), "--solver", "sa", "--sweeps", "200",
               "--restarts", "4", "--seed", "11"]
        first, second = run_cli(*cmd), run_cli(*cmd)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.strip()

    def test_sa_with_fixed_bits_keeps_pins(self, tmp_path, capsys):
        cfg = config_negative_range()
        model_path = self.build_model(tmp_path, cfg)
        built = build_from_config(cfg)
        w_bits = built.m.w_exp.quantize(-2.0)
        args = ["solve", str(model_path), "--solver", "sa", "--sweeps", "200",
                "--restarts", "4", "--seed", "3"]
        args += [f"--fix=w[0][{k}]={b}" for k, b in enumerate(w_bits)]
        capsys.readouterr()
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assignment = tuple(int(c) for c in payload["assignment"])
        assert [assignment[i] for i in built.var_ranges["w[0]"]] == list(w_bits)
        assert payload["energy"] == energy(built.model, assignment)

    def test_unparseable_model_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "junk.qubo"
        path.write_text("not a model\n")
        assert main(["solve", str(path)]) == 2

    def test_overlong_integer_in_model_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "long.qubo"
        path.write_text(f"qubo-v1\nvars {'9' * 5000}\noffset 0.0\n")
        assert main(["solve", str(path)]) == 2
        assert "line 2: bad integer" in capsys.readouterr().err

    def test_term_out_of_order_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "m.qubo"
        path.write_text("qubo-v1\nvars 2\noffset 0.0\n1 0 1.0\n")
        assert main(["solve", str(path)]) == 2
        assert "quadratic key (1, 0) must satisfy 0 <= i < j < n" in capsys.readouterr().err

    def test_index_past_intp_is_input_error(self, tmp_path, capsys):
        # 20 digits overflow a C long; the range check still names the key
        path = tmp_path / "m.qubo"
        path.write_text("qubo-v1\nvars 2\noffset 0.0\n0 99999999999999999999 1.0\n")
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: quadratic key (0, 99999999999999999999) must satisfy 0 <= i < j < n\n")

    def test_bit_cap_is_resource_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RELUQUBO_BIT_CAP", "4")
        path = tmp_path / "wide.qubo"
        path.write_text("qubo-v1\nvars 8\noffset 0.0\n")
        assert main(["solve", str(path)]) == 3

    def test_negative_bit_cap_is_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RELUQUBO_BIT_CAP", "-1")
        path = tmp_path / "m.qubo"
        path.write_text("qubo-v1\nvars 2\noffset 0.0\n")
        assert main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: RELUQUBO_BIT_CAP must be an integer >= 0, got '-1'\n"

    def test_bit_cap_message_names_states_and_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("RELUQUBO_BIT_CAP", raising=False)
        path = tmp_path / "wide.qubo"
        path.write_text("qubo-v1\nvars 31\noffset 0.0\n")
        assert main(["solve", str(path)]) == 3
        assert capsys.readouterr().err == (
            "error: 31 free bits (2^31 = 2.1e9 states) exceeds the exhaustive cap of 30; "
            "set RELUQUBO_BIT_CAP to raise it\n")

    def test_out_of_memory_is_resource_error(self, tmp_path, capsys, monkeypatch):
        # a 52-free-bit solve under RELUQUBO_BIT_CAP=52 asks numpy for 13 GiB in
        # _energies; the stand-in raises as numpy does, allocating nothing
        message = ("Unable to allocate 13.0 GiB for an array with shape (67108864, 26) "
                   "and data type float64")

        def no_memory(Q, diagonals):
            raise MemoryError(message)

        monkeypatch.setattr(solvers, "_min_out_argmins", no_memory)
        path = tmp_path / "m.qubo"
        path.write_text("qubo-v1\nvars 8\noffset 0.0\n")
        assert main(["solve", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: out of memory: {message}\n"

    def test_fix_by_index(self, tmp_path, capsys):
        # and by the default labels b0, b1
        path = tmp_path / "m.qubo"
        path.write_text("qubo-v1\nvars 2\noffset 0.0\n0 0 -1.0\n1 1 -1.0\n")
        capsys.readouterr()
        for fix, assignment in [("0=0", "01"), ("b0=0", "01"), ("1=0", "10"), ("b1=0", "10")]:
            assert main(["solve", str(path), "--fix", fix]) == 0
            assert json.loads(capsys.readouterr().out)["assignment"] == assignment

    def test_fix_by_label_with_equals_sign_or_digits(self, tmp_path, capsys):
        # NAME ends at the last '='; a label wins over an index of the same digits
        path = tmp_path / "m.qubo"
        path.write_text("qubo-v1\nvars 3\noffset 0.0\n0 0 1.0\n1 1 -1.0\n2 2 -2.0\n"
                        "label 0 a=b\nlabel 1 7\nlabel 2 1\n")
        for fixes, assignment in [(["a=b=1", "7=0"], "101"), (["1=0"], "010"),
                                  (["0=1"], "111"), (["2=0"], "010")]:
            args = ["solve", str(path)] + [f"--fix={f}" for f in fixes]
            assert main(args) == 0
            assert json.loads(capsys.readouterr().out)["assignment"] == assignment

    @pytest.mark.parametrize("solver", ["exhaustive", "sa"])
    def test_energies_past_float_range_are_input_error(self, tmp_path, capsys, solver):
        path = tmp_path / "m.qubo"
        path.write_text("qubo-v1\nvars 2\noffset 0.0\n0 0 1e308\n0 1 1e308\n1 1 1e308\n")
        assert main(["solve", str(path), "--solver", solver]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: |offset| + sum |coefficient| overflows float64, "
                                "so energies would too\n")

    def test_bad_fix_rejected(self, tmp_path, capsys):
        path = tmp_path / "m.qubo"
        path.write_text("qubo-v1\nvars 1\noffset 0.0\n")
        assert main(["solve", str(path), "--fix", "b0=2"]) == 2
        assert main(["solve", str(path), "--fix", "nosuch=1"]) == 2

    @pytest.mark.parametrize("solver", ["exhaustive", "sa"])
    def test_fix_index_out_of_range_rejected(self, tmp_path, capsys, solver):
        path = tmp_path / "m.qubo"
        path.write_text("qubo-v1\nvars 2\noffset 0.0\n")
        assert main(["solve", str(path), "--solver", solver, "--fix", "7=1"]) == 2
        assert "fixed index 7 out of range [0, 2)" in capsys.readouterr().err

    def test_fix_index_tokens_worded_like_the_parser(self, tmp_path, capsys):
        # str.isdigit() passes both; int() refuses them
        path = tmp_path / "m.qubo"
        path.write_text("qubo-v1\nvars 1\noffset 0.0\n")
        assert main(["solve", str(path), "--fix", "\u00b2=1"]) == 2
        assert capsys.readouterr().err == "error: --fix: bad integer '\u00b2'\n"
        assert main(["solve", str(path), "--fix", "9" * 5000 + "=1"]) == 2
        assert capsys.readouterr().err == (
            f"error: --fix: bad integer '{'9' * 20}'... (5000 characters)\n")

    @pytest.mark.parametrize("beta0, beta1", [("inf", "inf"), ("1", "inf"), ("nan", "1"),
                                              ("1e-300", "1e300")])
    def test_non_finite_betas_are_input_error(self, tmp_path, capsys, beta0, beta1):
        path = tmp_path / "m.qubo"
        path.write_text("qubo-v1\nvars 1\noffset 0.0\n0 0 1.0\n")
        args = ["solve", str(path), "--solver", "sa", "--beta0", beta0, "--beta1", beta1]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: config error at 'solver flags': ")

    def test_conflicting_fixes_rejected(self, tmp_path, capsys):
        path = tmp_path / "m.qubo"
        path.write_text("qubo-v1\nvars 2\noffset 0.0\nlabel 0 w[0][0]\nlabel 1 t[0]\n")
        for solver in ("exhaustive", "sa"):
            args = ["solve", str(path), "--solver", solver, "--fix"]
            assert main(args + ["w[0][0]=1", "--fix", "0=0"]) == 2
            assert "conflicts" in capsys.readouterr().err
            assert main(args + ["0=1", "--fix", "w[0][0]=1"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["assignment"][0] == "1"


class TestVerify:
    def test_negative_points_pass(self, tmp_path, capsys):
        cfg = config_negative_range()
        cfg["verify"] = {"m_points": [0.0, -2.0, -4.0]}
        code = main(["verify", write_config(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 0
        rows = read_tsv(captured.out)
        assert [r["m"] for r in rows] == [0.0, -2.0, -4.0]
        # m = 0 sits on the weight grid: the all-zero z assignment is
        # feasible, so the minimum vanishes
        assert abs(rows[0]["qubo_min"]) <= 1e-9
        # -2.0 is a midpoint of the weight grid and pins the lower point
        w_exp = BinaryExpansion(6, 4.0, -4.0)
        assert rows[1]["reference"] == relu_reference(w_exp.decode(w_exp.quantize(-2.0)))
        assert rows[1]["reference"] == pytest.approx(2 + 2 / 63, abs=1e-15)
        for row in rows:
            assert row["abs_error"] == abs(row["qubo_min"] - row["reference"])
            assert row["abs_error"] <= 1e-9 * max(1.0, row["reference"])

    def test_positive_point_passes(self, tmp_path, capsys):
        cfg = config_positive_range()
        cfg["verify"] = {"m_points": [0.0, 1.0, 3.0]}
        code = main(["verify", write_config(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 0
        rows = read_tsv(captured.out)
        assert rows[1]["reference"] == 0.0
        for row in rows:
            assert row["abs_error"] <= 1e-9 * max(1.0, row["reference"])

    def test_far_point_clamps_to_the_weight_grid(self, tmp_path, capsys):
        # (m - beta) / resolution overflows to inf; the point pins w's top
        cfg = config_negative_range()
        cfg["model"]["w"] = expansion(6, 8.0, -4.0)
        cfg["verify"] = {"m_points": [4.0, 1.7e308]}
        assert main(["verify", write_config(tmp_path, cfg)]) == 0
        top, far = read_tsv(capsys.readouterr().out)
        assert far["m"] == 1.7e308
        assert far["qubo_min"] == top["qubo_min"]
        assert far["residual_at_min"] == top["residual_at_min"] == 0.0

    def test_undersized_z_range_fails_with_report(self, tmp_path, capsys):
        cfg = config_negative_range()
        cfg["penalty"]["z1"] = expansion(6, 1.0, 0.0)  # cannot reach z1 = 3
        cfg["penalty"]["M"] = 64.0
        cfg["verify"] = {"m_points": [-3.0]}
        code = main(["verify", write_config(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 1
        rows = read_tsv(captured.out)  # report still emitted
        assert len(rows) == 1
        assert rows[0]["abs_error"] > 1.0

    def test_readme_config_passes_at_auto_m(self, tmp_path, capsys):
        cfg = readme_config()
        ms = cfg["verify"]["m_points"]
        assert main(["verify", write_config(tmp_path, cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.out == pointwise_tsv(build_from_config(cfg), ms)
        assert captured.err == ("verify: 64/64 points within 1e-9 * max(1, |f|, |C|) "
                                "of f at the pinned grid point\n")

    @pytest.mark.parametrize("cfg, within", [
        # rounding at this M alone moves the pinned minima by up to 0.012
        (readme_config(M=1e12), "0/64"),
        # M = 16 is auto M at depth 3; the sound threshold 1/r_min is 17.5
        (eleven_var_config(), "1/8"),
        # w points sit half a z step off the z grid: r = 0 is unreachable
        (unreachable_residual_config(), "0/8"),
    ], ids=["readme-M-1e12", "eleven-var-M-16", "r-unreachable"])
    def test_minimum_off_f_at_the_pinned_point_fails(self, tmp_path, capsys, cfg, within):
        ms = cfg["verify"]["m_points"]
        assert main(["verify", write_config(tmp_path, cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == pointwise_tsv(build_from_config(cfg), ms)  # report still emitted
        assert captured.err.startswith(f"verify: {within} points within ")

    def test_missing_points_is_input_error(self, tmp_path, capsys):
        cfg = config_negative_range()
        code = main(["verify", write_config(tmp_path, cfg)])
        assert code == 2
        assert "verify.m_points" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [None, "x", True, 10 ** 400])
    def test_non_number_point_is_input_error(self, tmp_path, capsys, bad):
        cfg = config_negative_range()
        cfg["verify"] = {"m_points": [0.0, bad]}
        code = main(["verify", write_config(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert "verify.m_points" in captured.err
        assert captured.out == ""

    def test_points_over_the_grid_cap_are_input_error(self, tmp_path, capsys, monkeypatch):
        # --grid's cap, checked before any point is quantized or solved
        def refuse(*args, **kwargs):
            raise AssertionError("a point was quantized or solved past the cap")

        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 3)
        cfg = config_negative_range()
        cfg["verify"] = {"m_points": [0.0, -1.0, -2.0, -3.0]}
        with monkeypatch.context() as patch:
            patch.setattr(BinaryExpansion, "quantize", refuse)
            patch.setattr(cli, "exhaustive_solve_many", refuse)
            assert main(["verify", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert "config error at 'verify.m_points': has more than 3 points" in captured.err
        assert captured.out == ""
        cfg["verify"]["m_points"].pop()
        assert main(["verify", write_config(tmp_path, cfg)]) == 0

    # a section that is not an object is named as read_config names one
    @pytest.mark.parametrize("section, key, message", [
        ({}, "verify.m_points", "missing required key"),
        ({"verify": {"m_points": "none"}}, "verify.m_points",
         "expected a non-empty array of numbers"),
        ({"verify": {"m_points": []}}, "verify.m_points",
         "expected a non-empty array of numbers"),
        ({"verify": {"m_points": [0.0, -1.0, -2.0, -3.0]}}, "verify.m_points",
         "has more than 3 points"),
        ({"verify": {"m_points": [0.0, "x"]}}, "verify.m_points", "expected a number, got 'x'"),
        ({"verify": [1]}, "verify", "expected an object"),
        ({"verify": 3}, "verify", "expected an object"),
        ({"verify": None}, "verify", "expected an object"),
        ({"verify": "x"}, "verify", "expected an object"),
    ], ids=["missing", "not-a-list", "empty", "over-the-cap", "not-a-number",
            "section-a-list", "section-a-number", "section-null", "section-a-string"])
    def test_points_are_refused_before_the_build(self, tmp_path, capsys, monkeypatch,
                                                 section, key, message):
        def no_build(cfg):
            raise AssertionError("the model was built before the points were checked")

        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 3)
        monkeypatch.setattr(cli, "build_from_config", no_build)
        cfg = config_negative_range()
        cfg.update(section)
        assert main(["verify", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config error at '{key}': {message}\n"
        assert captured.out == ""

    def test_non_object_config_is_refused_as_build_refuses_it(self, tmp_path, capsys):
        # read_config's key and message, not a missing verify.m_points
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: config error at '': top-level config must be an object\n"
        assert captured.out == ""

    def test_multi_dim_model_verifies(self, tmp_path, capsys):
        cfg = config_negative_range()
        cfg["model"]["inputs"] = [1.0, 1.0]
        cfg["verify"] = {"m_points": [0.0]}
        assert main(["verify", write_config(tmp_path, cfg)]) == 0
        out, err = capsys.readouterr()
        assert read_tsv(out)[0]["reference"] == 0.0  # both weights pinned at 0
        assert err.startswith("verify: 1/1 points within")

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_cost_of_scale_zero_is_never_evaluated(self, tmp_path, capsys, command):
        # scale * (m_hat - 1e300) ** 2 would raise OverflowError; the build leaves it out
        args = {"verify": [], "sweep": ["--grid=-4:4:0.5"]}[command]
        outs = []
        for target in (1e300, 0.0):
            cfg = readme_config()
            cfg["cost"]["target"] = target
            assert main([command, write_config(tmp_path, cfg), *args]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestSweep:
    def sweep_rows(self, tmp_path, capsys, grid="-4:4:0.5"):
        cfg = config_negative_range()
        cfg["model"]["w"] = expansion(6, 8.0, -4.0)  # span [-4, 4]
        code = main(["sweep", write_config(tmp_path, cfg), f"--grid={grid}"])
        captured = capsys.readouterr()
        assert code == 0
        return read_tsv(captured.out)

    def test_grid_row_count(self, tmp_path, capsys):
        rows = self.sweep_rows(tmp_path, capsys)
        assert len(rows) == 17
        assert rows[0]["m"] == -4.0
        assert rows[-1]["m"] == 4.0

    def test_far_grid_clamps_to_the_weight_grid(self, tmp_path, capsys):
        rows = self.sweep_rows(tmp_path, capsys, grid="1e308:1.7e308:7e307")
        top = self.sweep_rows(tmp_path, capsys, grid="4:4:1")
        assert [r["m"] for r in rows] == [1e308, 1.7e308]
        assert [r["qubo_min"] for r in rows] == [top[0]["qubo_min"]] * 2

    def test_negative_half_monotone_decreasing(self, tmp_path, capsys):
        rows = self.sweep_rows(tmp_path, capsys)
        negative = [r["qubo_min"] for r in rows if r["m"] < 0]
        assert all(a >= b - 1e-9 for a, b in zip(negative, negative[1:]))

    def test_tsv_roundtrips_via_csv_parser(self, tmp_path, capsys):
        rows = self.sweep_rows(tmp_path, capsys, grid="-1:1:0.5")
        assert len(rows) == 5
        assert set(rows[0]) == {"m", "qubo_min", "reference", "abs_error",
                                "residual_at_min"}

    def test_out_file(self, tmp_path, capsys):
        cfg = config_negative_range()
        out = tmp_path / "sweep.tsv"
        code = main(["sweep", write_config(tmp_path, cfg),
                     "--grid=-2:0:1", "--out", str(out)])
        assert code == 0
        rows = read_tsv(out.read_text())
        assert len(rows) == 3

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        cfg = config_negative_range()
        code = main(["sweep", write_config(tmp_path, cfg), "--grid=-2:0:1",
                     "--out", str(tmp_path / "missing" / "sweep.tsv")])
        assert code == 2
        assert "No such file or directory" in capsys.readouterr().err

    def test_bad_grid_is_input_error(self, tmp_path, capsys):
        cfg = config_negative_range()
        assert main(["sweep", write_config(tmp_path, cfg), "--grid", "0:1"]) == 2

    @pytest.mark.parametrize("grid", ["0:1", "a:1:0.5", "1:0:0.5", "0:1:1e-10"])
    def test_grid_is_refused_before_the_build(self, tmp_path, capsys, monkeypatch, grid):
        def no_build(cfg):
            raise AssertionError("the model was built before --grid was parsed")

        monkeypatch.setattr(cli, "build_from_config", no_build)
        assert main(["sweep", write_config(tmp_path, config_negative_range()),
                     f"--grid={grid}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config error at '--grid': ")
        assert captured.out == ""

    def test_grid_over_point_cap_is_input_error(self, tmp_path, capsys, monkeypatch):
        def points(self):
            raise AssertionError("grid points built before the cap was checked")
        monkeypatch.setattr(Grid1D, "points", points)
        cfg = config_negative_range()
        for grid in ("0:1:1e-10", "0:1000000:1", "-1e308:1e308:1e-300"):
            assert main(["sweep", write_config(tmp_path, cfg), f"--grid={grid}"]) == 2
            assert "--grid" in capsys.readouterr().err


class TestOneInputRule:
    """verify and sweep read model.inputs as build does, any number of them:
    build_from_config checks the whole config before it forms a product."""

    ARGS = {"verify": [], "sweep": ["--grid=-1:0:0.5"]}

    def run(self, tmp_path, monkeypatch, command, inputs, build=True, cost_kind="quadratic"):
        if not build:
            def no_product(a, b):
                raise AssertionError("a product was formed before the config was checked")
            monkeypatch.setattr(formulation, "affine_mul", no_product)
        cfg = config_negative_range()
        cfg["cost"]["kind"] = cost_kind
        cfg["model"]["inputs"] = inputs
        cfg["verify"] = {"m_points": [-1.0, 0.0]}
        return main([command, write_config(tmp_path, cfg), *self.ARGS[command]])

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    @pytest.mark.parametrize("inputs, cost_kind, message", [
        ([0.0], "quadratic", "'model.inputs[0]': must be nonzero, got 0.0"),
        ([1.0] * 700, "quadratic", "'model.inputs': the model would have 4216 variables, "
                                   "more than the cap of 4096"),
        ([1.0, 1.0], "linear", "'cost.kind': unsupported cost kind 'linear'"),
    ], ids=["zero-input", "over-the-cap", "cost-first"])
    def test_the_first_broken_key_is_named_before_the_build(self, tmp_path, capsys, monkeypatch,
                                                            command, inputs, cost_kind, message):
        assert self.run(tmp_path, monkeypatch, command, inputs, build=False,
                        cost_kind=cost_kind) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config error at {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    @pytest.mark.parametrize("inputs", [[1], [1.0]])
    def test_one_unit_input_passes(self, tmp_path, capsys, monkeypatch, command, inputs):
        assert self.run(tmp_path, monkeypatch, command, inputs) == 0

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    @pytest.mark.parametrize("inputs", [[2], [0.5], [-1]])
    def test_any_one_nonzero_input_passes(self, tmp_path, capsys, monkeypatch, command, inputs):
        # m pins w at quantize(m / x); here each m_hat = x * w_hat lies on the z grid
        assert self.run(tmp_path, monkeypatch, command, inputs) == 0

    def test_m_over_x_past_float_range_pins_a_w_grid_end(self, tmp_path, capsys):
        # +-1e308 / 0.5 overflows to +-inf; the pin is the w grid's end, as for any far m
        cfg = config_negative_range()
        cfg["model"]["inputs"] = [0.5]
        cfg["verify"] = {"m_points": [1e308, -1e308]}
        assert main(["verify", write_config(tmp_path, cfg)]) == 1
        out, err = capsys.readouterr()
        assert [row["reference"] for row in read_tsv(out)] == [0.0, 2.0]  # m_hat 0 and -2
        assert err.startswith("verify: 1/2 points within")

    @pytest.mark.parametrize("inputs, message", [
        ([], "'model.inputs': expected a non-empty array of numbers"),
        ("1", "'model.inputs': expected a non-empty array of numbers"),
        ([True], "'model.inputs[0]': expected a number, got True"),
        ([1.0, "x"], "'model.inputs[1]': expected a number, got 'x'"),
        ([1.0, 10 ** 400], "'model.inputs[1]': must be finite"),
    ])
    def test_malformed_inputs_keep_the_build_message(self, tmp_path, capsys, monkeypatch,
                                                     inputs, message):
        assert self.run(tmp_path, monkeypatch, "verify", inputs) == 2
        assert f"config error at {message}" in capsys.readouterr().err


class TestReluTypeIntervals:
    """t on [a, b] builds max(a*m, b*m) through the CLI, with the auto M
    scaled by b - a, on the README grids at every w grid point."""

    @pytest.mark.parametrize("t, M", [((2.0, -1.0), 504.0), ((1.0, 0.0), 252.0),
                                      ((0.75, 0.25), 189.0)], ids=["abs", "relu", "leaky-relu"])
    def test_build_prints_the_scaled_m_and_verify_passes(self, tmp_path, capsys, t, M):
        cfg = readme_config()
        cfg["penalty"]["t"] = expansion(4, *t)
        path = write_config(tmp_path, cfg)
        assert main(["build", path, str(tmp_path / "m.qubo")]) == 0
        assert capsys.readouterr().out.endswith(f"M={M!r}\n")
        assert main(["verify", path]) == 0
        out, err = capsys.readouterr()
        assert err.startswith("verify: 64/64 points within")
        a, b = t[1], t[0] + t[1]
        w_exp = build_from_config(cfg).m.w_exp
        for row in read_tsv(out):
            m_hat = w_exp.decode(w_exp.quantize(row["m"]))
            assert row["reference"] == max(a * m_hat, b * m_hat) + 0.0

    def test_abs_sweep_reference_is_abs_m_hat_within_the_verify_rule(self, tmp_path, capsys):
        cfg = readme_config()
        cfg["penalty"]["t"] = expansion(4, 2.0, -1.0)
        assert main(["sweep", write_config(tmp_path, cfg), f"--grid=-4:4:{8 / 63!r}"]) == 0
        rows = read_tsv(capsys.readouterr().out)
        w_exp = build_from_config(cfg).m.w_exp
        m_hats = [w_exp.decode(w_exp.quantize(row["m"])) for row in rows]
        assert sorted(m_hats) == sorted(w_exp.grid().tolist())
        for row, m_hat in zip(rows, m_hats):
            assert row["reference"] == abs(m_hat)
            assert row["abs_error"] <= 1e-9 * max(1.0, row["reference"])


def pointwise_tsv(built, ms):
    """The verify/sweep TSV built one exhaustive_solve per m: every column
    but m belongs to the pinned grid point m_hat."""
    lin = built.m
    w_range = built.var_ranges["w[0]"]
    target, scale = built.cost_params
    lines = ["m\tqubo_min\treference\tabs_error\tresidual_at_min"]
    for m in ms:
        fixed = {idx: b for idx, b in zip(w_range, lin.w_exp.quantize(m))}
        res = exhaustive_solve(built.model, fixed=fixed)
        m_hat, _, _, _, residual = built.decode(res.assignment)
        qubo_min = res.energy - scale * (m_hat - target) ** 2
        ref = relu_reference(m_hat)
        row = (m, qubo_min, ref, abs(qubo_min - ref), residual)
        lines.append("\t".join(repr(v) for v in row))
    return "\n".join(lines) + "\n"


class TestFamilyRows:
    """verify and sweep rows equal rows solved point by point."""

    def config(self):
        cfg = config_negative_range()
        cfg["cost"] = {"kind": "quadratic", "target": 0.75, "scale": 0.5}
        cfg["model"]["w"] = expansion(5, 4.0, -2.0)  # spacing 4/31, off the z grid
        return cfg

    def test_sweep_rows(self, tmp_path, capsys):
        cfg = self.config()
        # 81 points onto a 32-point w grid: most are off-grid, many share a pattern
        assert main(["sweep", write_config(tmp_path, cfg), "--grid=-2.5:2.5:0.0625"]) == 0
        ms = [float(m) for m in Grid1D(-2.5, 2.5, 0.0625).points()]
        assert capsys.readouterr().out == pointwise_tsv(build_from_config(cfg), ms)

    def test_verify_rows(self, tmp_path, capsys):
        cfg = self.config()
        ms = [-1.0, 0.3, -1.0, 1.9, -0.06, 0.3, -2.0, 5.0]
        cfg["verify"] = {"m_points": ms}
        main(["verify", write_config(tmp_path, cfg)])
        assert capsys.readouterr().out == pointwise_tsv(build_from_config(cfg), ms)


def two_input_config(w_depth):
    """The README t and z grids with m = w[0] + w[1], w on [-2, 2]."""
    cfg = readme_config()
    cfg["model"] = {"inputs": [1.0, 1.0], "w": expansion(w_depth, 4.0, -2.0)}
    return cfg


def three_input_config():
    """m = w[0] + 2 w[1] - 3 w[2] on [-6, 6], w depth 3 on [-1, 1], while the
    z grids cover [0, 4]; a cost 0.3 (m - 0.7)^2 and auto M = 186."""
    return {"cost": {"kind": "quadratic", "target": 0.7, "scale": 0.3},
            "model": {"inputs": [1.0, 2.0, -3.0], "w": expansion(3, 2.0, -1.0)},
            "penalty": {"t": expansion(3, 1.0, -1.0), "z1": expansion(5, 4.0, 0.0),
                        "z2": expansion(5, 4.0, 0.0), "M": "auto"}}


class TestMultiInput:
    """verify and sweep with D > 1 inputs, at every m of each config's m
    lattice lo + k * step, pinned by the greedy rule of cli._report_rows."""

    CASES = {
        # w's step 4/63 is the z step, so every lattice m is on the z grids
        "two-inputs-depth-6": (two_input_config(6), [-4 + 4 * k / 63 for k in range(127)],
                               "127/127", 0.0),
        # m spans [-6, 6] and the z grids [0, 4]: at |m| = 6, r is 2 at best
        "three-inputs": (three_input_config(), [-6 + 2 * k / 7 for k in range(43)],
                         "2/43", 742.0),
        # w's step 4/15 meets the z step 4/63 only at every fifth m
        "two-inputs-depth-4": (two_input_config(4), [-4 + 4 * k / 15 for k in range(31)],
                               "7/31", 0.1625),
    }

    @pytest.mark.parametrize("cfg, ms, within, worst", CASES.values(), ids=CASES.keys())
    def test_verify_reports_each_lattice_point(self, tmp_path, capsys, cfg, ms, within, worst):
        code = main(["verify", write_config(tmp_path, {**cfg, "verify": {"m_points": ms}})])
        out, err = capsys.readouterr()
        assert code == (0 if worst == 0.0 else 1)
        assert err.startswith(f"verify: {within} points within ")
        rows = read_tsv(out)
        assert [row["m"] for row in rows] == ms
        errors = [row["abs_error"] for row in rows]
        assert max(errors) == pytest.approx(worst, abs=1e-4)
        if worst == 742.0:
            assert errors[-1] == max(errors)  # at m = 6, pinned to m_hat = 6 with r = -2

    def test_wide_config_misses_every_w_point(self, tmp_path, capsys):
        # the benchmark's D = 32 build: M = 8064 and an offset near 1.3e8
        cfg = readme_config()
        cfg["model"]["inputs"] = [1.0] * 32
        assert main(["verify", write_config(tmp_path, cfg)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("verify: 0/64 points within ")
        rows = read_tsv(out)
        past_z = [row for row in rows if row["abs_error"] > 1.0]
        assert [row["m"] for row in past_z] == [4.0]  # m_hat ~ 4.06 > 4, z2's top
        assert past_z[0]["residual_at_min"] == pytest.approx(-4 / 63, abs=1e-12)
        rounding = [row["abs_error"] for row in rows if row["abs_error"] <= 1.0]
        assert 4e-8 < min(rounding) and max(rounding) < 3e-7

    @pytest.mark.parametrize("cfg, ms, within, worst", CASES.values(), ids=CASES.keys())
    def test_sweep_rows_are_verify_rows(self, tmp_path, capsys, cfg, ms, within, worst):
        points = [float(m) for m in Grid1D(ms[0], ms[-1], 0.5).points()]
        path = write_config(tmp_path, {**cfg, "verify": {"m_points": points}})
        assert main(["sweep", path, f"--grid={ms[0]}:{ms[-1]}:0.5"]) == 0
        swept = capsys.readouterr().out
        main(["verify", path])
        assert capsys.readouterr().out == swept


@st.composite
def pinned_configs(draw):
    """Configs of 1-3 nonzero inputs and depths 1-4, with any t interval,
    cost and M, and up to four requested m in and around the reachable range."""
    def expansion(alpha, beta):
        return {"depth": draw(st.integers(1, 4)), "alpha": alpha, "beta": beta}

    real = st.floats(-3.0, 3.0, allow_subnormal=False)
    number = st.one_of(st.integers(-3, 3).map(float), real)
    positive = st.one_of(st.sampled_from([1.0, 2.0, 4.0]), st.floats(0.1, 4.0))
    cfg = {"cost": {"kind": "quadratic", "target": draw(number),
                    "scale": draw(st.one_of(st.just(0.0), number))},
           "model": {"inputs": draw(st.lists(number.filter(bool), min_size=1, max_size=3)),
                     "w": expansion(draw(positive), draw(number))},
           "penalty": {"t": expansion(draw(positive), draw(number)),
                       "z1": expansion(draw(positive), 0.0),
                       "z2": expansion(draw(positive), 0.0),
                       "M": draw(st.one_of(st.just("auto"), st.floats(0.5, 300.0)))}}
    w = cfg["model"]["w"]
    reach = sum(abs(x) for x in cfg["model"]["inputs"]) * (abs(w["beta"]) + w["alpha"])
    ms = draw(st.lists(st.floats(-reach - 1.0, reach + 1.0), min_size=1, max_size=4))
    return cfg, ms


@settings(max_examples=60, deadline=None)
@given(pinned_configs())
def test_rows_follow_the_greedy_pin_rule(case):
    cfg, ms = case
    built = build_from_config(cfg)
    lin, ranges, (a, b) = built.m, built.var_ranges, built.penalty_spec.t_exp.bounds
    target, scale = built.cost_params
    big, families = sys.float_info.max, []

    def solve_many(model, fixes):
        families.append(fixes)
        return solvers.exhaustive_solve_many(model, fixes)

    with mock.patch.object(cli, "exhaustive_solve_many", solve_many):
        rows, _ = cli._report_rows(built, ms)
    # every state of the free t, z1, z2 bits, as rows of a 0/1 matrix
    free = [i for name in ("t", "z1", "z2") for i in ranges[name]]
    states = np.zeros((1 << len(free), built.model.n_vars))
    states[:, free] = list(all_assignments(len(free)))
    q = np.zeros((built.model.n_vars,) * 2)
    for i, c in built.model.linear.items():
        q[i, i] = c
    for (i, j), c in built.model.quadratic.items():
        q[i, j] = c
    for m, row, fixes in zip(ms, rows, families[0]):
        pins, rest, m_hat = {}, m, 0.0
        for d, x in enumerate(lin.inputs):
            pattern = lin.w_exp.quantize(min(max(rest / x, -big), big))
            pins.update(zip(ranges[f"w[{d}]"], pattern))
            w_hat = lin.w_exp.decode(pattern)
            rest -= x * w_hat
            m_hat += x * w_hat
        assert fixes == pins
        if lin.dim == 1:
            assert tuple(pins.values()) == lin.w_exp.quantize(min(max(m / x, -big), big))
        assert row[0] == m and row[2] == relu_reference(m_hat, a, b)
        states[:, list(pins)] = list(pins.values())
        brute = built.model.offset + np.einsum("si,ij,sj->s", states, q, states).min()
        cost = scale * (m_hat - target) ** 2
        assert abs(row[1] - (brute - cost)) <= 1e-9 * max(1.0, abs(row[2]), abs(cost))


def changed_config(section, key, value):
    cfg = config_negative_range()
    cfg[section][key] = value
    return json.dumps(cfg)


# id: (files to write, argv with @name for that file, a piece of the message)
BOUNDARY_ERRORS = {
    "unreadable config": ({}, ["build", "@nosuch.json", "@m.qubo"],
                          "config error at '"),
    "unreadable model": ({}, ["solve", "@nosuch.qubo"], "cannot read model '"),
    "sweeps 0": ({"m.qubo": "qubo-v1\nvars 1\noffset 0.0\n"},
                 ["solve", "@m.qubo", "--solver", "sa", "--sweeps", "0"],
                 "config error at 'solver flags': sweeps must be >= 1"),
    "sweeps past int64": ({"m.qubo": "qubo-v1\nvars 1\noffset 0.0\n"},
                          ["solve", "@m.qubo", "--solver", "sa", "--sweeps", str(10 ** 20)],
                          "config error at 'solver flags': sweeps must be <= 2**63 - 1"),
    "non-object config": ({"c.json": "[1, 2]"}, ["build", "@c.json", "@m.qubo"],
                          "top-level config must be an object"),
    "linear cost": ({"c.json": changed_config("cost", "kind", "linear")},
                    ["build", "@c.json", "@m.qubo"],
                    "config error at 'cost.kind': unsupported cost kind 'linear'"),
    "empty inputs": ({"c.json": changed_config("model", "inputs", [])},
                     ["build", "@c.json", "@m.qubo"],
                     "config error at 'model.inputs': expected a non-empty array"),
    "malformed offset": ({"m.qubo": "qubo-v1\nvars 1\noffset\n"}, ["solve", "@m.qubo"],
                         "line 3: expected 'offset <float>', got 'offset'"),
    "non-finite offset": ({"m.qubo": "qubo-v1\nvars 1\noffset nan\n"}, ["solve", "@m.qubo"],
                          "line 3: non-finite value 'nan'"),
    "duplicate label": ({"m.qubo": "qubo-v1\nvars 2\noffset 0.0\nlabel 0 a\nlabel 0 b\n"},
                        ["solve", "@m.qubo"], "line 5: duplicate label for variable 0"),
    "incomplete labels": ({"m.qubo": "qubo-v1\nvars 3\noffset 0.0\nlabel 1 a\n"},
                          ["solve", "@m.qubo"], "label table incomplete: missing [0, 2]"),
    "M zero": ({"c.json": changed_config("penalty", "M", 0)}, ["build", "@c.json", "@m.qubo"],
               "config error at 'penalty.M': penalty weight M must be finite and positive"),
    "M negative": ({"c.json": changed_config("penalty", "M", -3.0)},
                   ["build", "@c.json", "@m.qubo"],
                   "config error at 'penalty.M': penalty weight M must be finite and positive"),
    "z1 above 0": ({"c.json": changed_config("penalty", "z1", expansion(6, 4.0, 1.0))},
                   ["build", "@c.json", "@m.qubo"],
                   "config error at 'penalty.z1': z1 expansion must have lower bound exactly 0"),
    "z2 below 0": ({"c.json": changed_config("penalty", "z2", expansion(6, 4.0, -0.5))},
                   ["build", "@c.json", "@m.qubo"],
                   "config error at 'penalty.z2': z2 expansion must have lower bound exactly 0"),
    "cost not an object": ({"c.json": json.dumps(config_negative_range() | {"cost": 5})},
                           ["build", "@c.json", "@m.qubo"],
                           "config error at 'cost': expected an object"),
    "w not an object": ({"c.json": changed_config("model", "w", 5)},
                        ["build", "@c.json", "@m.qubo"],
                        "config error at 'model.w': expected an object {depth, alpha, beta}"),
}


@pytest.mark.parametrize("files, argv, message", BOUNDARY_ERRORS.values(),
                         ids=BOUNDARY_ERRORS.keys())
def test_boundary_error_exits_2(tmp_path, capsys, files, argv, message):
    """Bad input at the file or flag boundary: exit 2 and one error line."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = main([str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert message in err


class TestKernelBuild:
    """The annealing kernel is compiled at the first SA solve of a process
    into solvers._CACHE_DIR, here a fresh directory per test."""

    SA = ["--solver", "sa", "--sweeps", "50", "--restarts", "3", "--seed", "4"]

    @pytest.fixture
    def model(self, tmp_path, capsys):
        path = str(tmp_path / "m.qubo")
        assert main(["build", write_config(tmp_path, config_negative_range()), path]) == 0
        capsys.readouterr()
        return path

    def test_processes_building_at_once_leave_one_library(self, tmp_path, capsys, model):
        assert main(["solve", model, *self.SA]) == 0  # the package's own cache
        want = capsys.readouterr().out
        cache = tmp_path / "cache"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from reluqubo import solvers; "
                "solvers._CACHE_DIR = sys.argv[2]; from reluqubo.cli import main; "
                "sys.exit(main(sys.argv[3:]))")
        src = str(Path(reluqubo.__file__).resolve().parent.parent)
        procs = [subprocess.Popen([sys.executable, "-c", code, src, str(cache), "solve", model,
                                   *self.SA], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True) for _ in range(2)]
        outs = [proc.communicate(timeout=120) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], outs
        assert [out for out, _ in outs] == [want, want]
        built = os.listdir(cache)
        assert len(built) == 1 and built[0].startswith("_anneal-") and built[0].endswith(".so")
        assert ctypes.CDLL(str(cache / built[0])).walk  # complete: it loads

    def test_no_compiler_fails_sa_alone(self, tmp_path, monkeypatch, capsys, model):
        cache = tmp_path / "cache"
        monkeypatch.setattr(solvers, "_CACHE_DIR", str(cache))
        (tmp_path / "bin").mkdir()
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))
        assert main(["solve", model, *self.SA]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "C compiler" in err
        assert os.listdir(cache) == []  # the failed build's temporary file is gone
        cfg = write_config(tmp_path, config_negative_range() | {"verify": {"m_points": [-1.0]}})
        for argv in (["build", cfg, str(tmp_path / "b.qubo")], ["solve", model],
                     ["verify", cfg], ["sweep", cfg, "--grid=-1:0:0.5"]):
            assert main(argv) == 0, argv  # a build would fail here, with no compiler

    def test_failing_compiler_fails_sa_alone(self, tmp_path, monkeypatch, capsys, model):
        cache = tmp_path / "cache"
        monkeypatch.setattr(solvers, "_CACHE_DIR", str(cache))
        monkeypatch.setattr(solvers, "_CC", (*solvers._CC, "--no-such-flag"))
        assert main(["solve", model, *self.SA]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: 'cc' could not compile {solvers._KERNEL_SOURCE} (exit 1): ")
        assert os.listdir(cache) == []  # the failed build's temporary file is gone
        assert main(["solve", model]) == 0  # exhaustive needs no kernel

    def test_unwritable_cache_builds_in_a_private_directory(self, tmp_path, monkeypatch, capsys,
                                                            model):
        assert main(["solve", model, *self.SA]) == 0
        want = capsys.readouterr().out
        (tmp_path / "file").write_text("")  # a cache directory below a file cannot be made
        monkeypatch.setattr(solvers, "_CACHE_DIR", str(tmp_path / "file" / "cache"))
        private = tmp_path / "tmp"
        private.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(private))
        assert main(["solve", model, *self.SA]) == 0
        assert capsys.readouterr().out == want
        assert list(private.iterdir()) == []  # built, loaded and deleted
