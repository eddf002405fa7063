"""seqcast stays NumPy-only: its modules import nothing but the standard library and numpy."""

import ast
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
