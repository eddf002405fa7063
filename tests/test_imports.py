"""Rules every seqcast source keeps.

It stays NumPy-only: its modules import nothing but the standard library and
numpy. And it draws no randomness from NumPy's global state: every draw goes
through a generator from ``np.random.default_rng(seed)``, so any run can be
replayed from its seed.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seqcast"
SOURCES = sorted(PACKAGE.rglob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "seqcast"}


def imported_roots(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert any(path.name == "cli.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_imports_only_stdlib_and_numpy(path):
    roots = set(imported_roots(ast.parse(path.read_text(encoding="utf-8"), str(path))))
    assert roots <= ALLOWED, f"{path.name} imports {sorted(roots - ALLOWED)}"


def test_a_third_party_import_is_caught():
    tree = ast.parse("import os\nfrom numpy import linalg\nimport scipy.stats\nfrom . import data\n")
    assert set(imported_roots(tree)) - ALLOWED == {"scipy"}


def test_cli_start_up_loads_no_executor():
    # compare imports concurrent.futures when it runs, so no command's start-up
    # pays for it or for the logging it loads.
    code = "import sys, seqcast.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def global_random_calls(tree: ast.Module):
    """Each call to a numpy.random function other than default_rng, by its dotted name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            m = re.fullmatch(r"(?:np|numpy)\.random\.(\w+)", name)
            if m and m[1] != "default_rng":
                yield name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_draw_from_numpy_global_state(path):
    calls = list(global_random_calls(ast.parse(path.read_text(encoding="utf-8"), str(path))))
    assert not calls, f"{path.name} calls {calls}"


def test_a_global_draw_is_caught():
    tree = ast.parse(
        "np.random.seed(0)\n"
        "x = np.random.default_rng(1).normal() + numpy.random.normal()\n"
        "g = np.random.Generator(np.random.PCG64(2))\n"
    )
    assert sorted(global_random_calls(tree)) == [
        "np.random.Generator", "np.random.PCG64", "np.random.seed", "numpy.random.normal",
    ]
