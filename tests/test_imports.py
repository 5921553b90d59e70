"""Every module-level import in the package is used by its module, every
module-level private function or class is referenced in the package, and
every public name is used by the package, the README or the benchmark;
importing the CLI loads no process-pool module; no source line is longer
than 100 characters."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import reluqubo

PACKAGE = Path(reluqubo.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
# imports kept for code that looks them up under the importing module's name:
# perfbench/tracing.py wraps reluqubo.cli.fix_bits
KEPT = {("cli", "fix_bits")}


def unused_imports(source):
    """Names bound by module-level imports that no expression reads and
    __all__ does not list, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_guard_flags_an_unused_import():
    source = "import itertools\nimport math\nfrom typing import Iterable\nmath.pi\n"
    assert unused_imports(source) == ["itertools", "Iterable"]


def test_guard_counts_all_and_annotations_as_uses():
    source = ("from __future__ import annotations\nfrom .a import f, g\n"
              "import numpy as np\n__all__ = ['f']\ndef h(x: np.ndarray) -> g: ...\n")
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_module_imports(path):
    unused = [name for name in unused_imports(path.read_text(encoding="utf-8"))
              if (path.stem, name) not in KEPT]
    assert unused == [], f"{path.name} imports {unused} without using them"


def package_imports(source):
    """Modules of the package that the source imports, relatively or by name."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    return [name for name in names if name.startswith(".") or name.split(".")[0] == "reluqubo"]


def test_guard_flags_a_package_import():
    source = "import math\nfrom .algebra import A\nfrom . import oracle\nimport reluqubo.cli\n"
    assert package_imports(source) == [".algebra", ".", "reluqubo.cli"]


@pytest.mark.parametrize("stem", ["encoding", "oracle"])
def test_leaf_modules_import_no_package_module(stem):
    # expansions know grids and the oracle plain floats; formulation places
    # the weights on model bits
    imported = package_imports((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
    assert imported == [], f"{stem}.py imports {imported}"


def private_definitions(source):
    """Names of the module-level functions and classes whose names start
    with an underscore, in source order."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")]


def referenced_names(source):
    """Every name the source reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_guard_flags_an_unreferenced_private_definition():
    source = ("def _used(): ...\ndef _twin(): ...\nclass _Dead: ...\n"
              "def public():\n    return _used()\n")
    assert private_definitions(source) == ["_used", "_twin", "_Dead"]
    assert referenced_names(source) >= {"_used"}
    assert not {"_twin", "_Dead"} & referenced_names(source)


def test_no_unreferenced_private_definitions():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*map(referenced_names, sources.values()))
    dead = [f"{stem}.{name}" for stem, source in sources.items()
            for name in private_definitions(source) if name not in referenced]
    assert dead == [], f"private definitions nothing in the package references: {dead}"


# public names that nothing outside the tests uses yet, each with why it stays
UNUSED_PUBLIC_KEPT = {
    "qloss_reference": "criterion 5's q-loss yardstick; ROADMAP item 5 builds on it",
    "qloss_min_form": "criterion 5's closed form of the q-loss yardstick",
    "legendre_conjugate_num": "criterion 4's Legendre-conjugate yardstick",
    "wolfe_dual_analytic": "criterion 3's Wolfe-dual yardstick; ROADMAP item 1 generalises it",
    "ising_from_qubo": "Ising output, until ROADMAP item 8 gives it a CLI path or drops it",
    "qubo_from_ising": "Ising input, until ROADMAP item 8 gives it a CLI path or drops it",
}


def used_names(source):
    """referenced_names plus every string constant, since the benchmark's
    tracer looks functions up by name."""
    return referenced_names(source) | {
        node.value for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def unused_public(public, sources):
    """The names in public that none of the sources reads, in order."""
    used = set().union(*map(used_names, sources))
    return [name for name in public if name not in used]


def test_guard_flags_an_unused_public_name():
    sources = ["from .a import kept\nkept()\n", "wrap(module, 'traced')\n"]
    assert unused_public(["kept", "traced", "planted"], sources) == ["planted"]


def test_every_public_name_is_used_outside_the_tests():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    sources += [path.read_text(encoding="utf-8")
                for path in sorted((ROOT / "perfbench").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                          re.S)
    unused = unused_public(reluqubo.__all__, sources)
    assert [name for name in unused if name not in UNUSED_PUBLIC_KEPT] == [], \
        "public names that only tests use: move them into tests/ or use them"
    assert sorted(set(UNUSED_PUBLIC_KEPT) - set(unused)) == [], \
        "allowlisted names that are used now: drop them from UNUSED_PUBLIC_KEPT"


def test_cli_import_loads_no_process_pool_module():
    # annealing walks its restarts on threading.Thread, which the CLI's imports
    # already load; a pool module would add its import time to every CLI call
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import reluqubo.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures', 'subprocess'} "
            "& set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout == "[]\n"


def test_no_source_line_over_100_characters():
    src = ROOT / "src" / "reluqubo"
    paths = [*sorted(src.glob("*.py")), src / "_anneal.c",
             *sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "tools").glob("*.py"))]
    long = [f"{path.relative_to(ROOT)}:{k}" for path in paths
            for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert long == [], f"lines over 100 characters: {long}"
