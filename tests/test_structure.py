"""Import structure of the package.

Every import sits at module level: none is hidden inside a function body or
behind ``if TYPE_CHECKING``, where it would mask an import cycle.  The
third-party packages the modules import are exactly the declared runtime
dependencies.  The estimator modules, and the orchestrator outside its
scoring step, name no ground truth.  The filters step bare arrays: they
import nothing from the world model and name no ``Pose``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scansim

PACKAGE = Path(scansim.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
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


#: Ground truth of the simulation, which the estimator may not read.
TRUTH = {"true_pose", "true_global_beacons", "true_transform"}

#: The one orchestrator function that scores a run against ground truth.
SCORING_STEP = "_score"


def names(tree: ast.AST) -> set[str]:
    """Every name, attribute, keyword argument, imported name and string
    constant (as passed to ``getattr``) in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            found.add(node.arg)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_truth_names_detected():
    source = (
        "from .simulator import true_transform\n"
        "x = frame.true_pose\n"
        "y = getattr(frame, 'true_global_beacons')\n"
    )
    assert names(ast.parse(source)) & TRUTH == TRUTH


@pytest.mark.parametrize("module", ["calibration", "filters", "positioning"])
def test_estimator_modules_name_no_truth(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert names(tree) & TRUTH == set()


def test_only_the_scoring_step_of_the_orchestrator_names_truth():
    tree = ast.parse((PACKAGE / "orchestrator.py").read_text())
    scoring = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == SCORING_STEP
    ]
    assert len(scoring) == 1
    assert names(scoring[0]) & TRUTH
    tree.body.remove(scoring[0])
    assert names(tree) & TRUTH == set()


def imported_modules(tree: ast.AST) -> set[str]:
    """The last dotted name of every module ``tree`` imports or imports from;
    for ``from . import a``, a."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.split(".")[-1])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_imported_modules_detected():
    source = (
        "from .scenario import Pose\n"
        "from . import geometry\n"
        "import scansim.simulator\n"
        "from scansim.errors import FilterError\n"
    )
    assert imported_modules(ast.parse(source)) == {"scenario", "geometry", "simulator", "errors"}


def test_filters_step_arrays_not_poses():
    tree = ast.parse((PACKAGE / "filters.py").read_text())
    assert "scenario" not in imported_modules(tree)
    assert "Pose" not in names(tree)
