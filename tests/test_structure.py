"""Import structure of the package.

Every import sits at module level: none is hidden inside a function body or
behind ``if TYPE_CHECKING``, where it would mask an import cycle.
"""

import ast
from pathlib import Path

import pytest

import scansim

MODULES = sorted(Path(scansim.__file__).parent.glob("*.py"))


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
