"""Import structure of the package.

Every import sits at module level: none is hidden inside a function body or
behind ``if TYPE_CHECKING``, where it would mask an import cycle.  The
third-party packages the modules import are exactly the declared runtime
dependencies.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scansim

MODULES = sorted(Path(scansim.__file__).parent.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

#: Distribution names of the imported packages whose names differ.
DISTRIBUTIONS = {"yaml": "pyyaml"}


def hidden_imports(tree: ast.AST) -> list[int]:
    """Line numbers of imports inside a function or a TYPE_CHECKING block."""
    scopes = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        or (isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test))
    ]
    return sorted(
        {
            node.lineno
            for scope in scopes
            for node in ast.walk(scope)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


def test_hidden_imports_detected():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import os\n"
        "def f():\n"
        "    from json import dumps\n"
    )
    assert hidden_imports(ast.parse(source)) == [3, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_at_module_level(path):
    assert hidden_imports(ast.parse(path.read_text())) == []


def third_party_imports(tree: ast.AST) -> set[str]:
    """Top-level names of the absolute, non-standard-library imports at
    module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return {name for name in names if name not in sys.stdlib_module_names}


def test_third_party_imports_detected():
    source = "import os\nimport numpy.linalg\nfrom yaml import safe_load\nfrom . import errors\n"
    assert third_party_imports(ast.parse(source)) == {"numpy", "yaml"}


def test_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    declared = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in declared}
    imported = set()
    for path in MODULES:
        imported |= third_party_imports(ast.parse(path.read_text()))
    assert {DISTRIBUTIONS.get(name, name).lower() for name in imported} == declared


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, scansim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(scansim.__file__).parent.parent)},
    )
    assert out.stdout.strip() == "[]"
