"""The runtime is standard library only, and the lattice oracle imports no
flatland code, so it shares nothing with the census it checks."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imports(path: Path) -> list[tuple[int, str]]:
    """(level, top-level package) of every import in a file; level 0 is an
    absolute import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(0, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.level, (node.module or "").split(".")[0]))
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "flatland").glob("*.py")),
                         ids=lambda path: path.name)
def test_runtime_imports_only_the_standard_library(path):
    assert [name for level, name in imports(path)
            if level == 0 and name not in sys.stdlib_module_names] == []


def test_lattice_oracle_imports_only_the_standard_library():
    found = imports(ROOT / "tests" / "lattice_oracle.py")
    assert found and all(level == 0 and name in sys.stdlib_module_names for level, name in found)
