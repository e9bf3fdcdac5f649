"""The runtime is standard library only and imports nothing it does not
use, and the lattice oracle imports no flatland code, so it shares nothing
with the census it checks."""

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


def unused_imports(path: Path) -> list[str]:
    """The names a module binds by import but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(set((ROOT / "src" / "flatland").glob("*.py"))
                                        - {ROOT / "src" / "flatland" / "__init__.py"}),
                         ids=lambda path: path.name)
def test_runtime_uses_every_name_it_imports(path):
    # A name kept only so that code outside the module can patch it is dead
    # code here; `__init__.py` imports to re-export.
    assert unused_imports(path) == []


def test_unused_import_is_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os\nimport os.path as osp\nfrom a import b, c as d\nos.sep, d\n")
    assert unused_imports(path) == ["osp", "b"]


def unread_private_names(path: Path) -> list[str]:
    """The `_`-prefixed names, dunders aside, that a module binds at its top
    level by def, class or assignment but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name.startswith("_") and name not in read
            and not (name.startswith("__") and name.endswith("__"))]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "flatland").glob("*.py")),
                         ids=lambda path: path.name)
def test_runtime_reads_every_private_name_it_defines(path):
    # A private helper that its own module never reads is kept only for a
    # test or for a benchmark to wrap: dead code here.
    assert unread_private_names(path) == []


def test_unread_private_name_is_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("__all__ = []\n_A, B = 1, 2\n_C: int = 3\n_D = 4\n"
                    "def _f(): return _A\nclass _K: pass\ndef g(): _C = 5; return _f\n")
    assert unread_private_names(path) == ["_C", "_D", "_K"]


def test_lattice_oracle_imports_only_the_standard_library():
    found = imports(ROOT / "tests" / "lattice_oracle.py")
    assert found and all(level == 0 and name in sys.stdlib_module_names for level, name in found)
