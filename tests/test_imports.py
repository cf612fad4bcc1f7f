"""Every top-level import of a vkbr module is read by that module.

No linter ships with the project, so this reads each module's syntax tree:
a name bound by a top-level import must be loaded somewhere in the module.
The package's __init__.py is left out; its imports are the public names.
"""

import ast
from pathlib import Path

import pytest

import vkbr

MODULES = sorted(
    path for path in Path(vkbr.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unread_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never loads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unread_imports(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_an_unread_import():
    source = "from dataclasses import dataclass, field\nimport os.path\n\n@dataclass\nclass C:\n    x: int\n"
    assert unread_imports(source) == ["field", "os"]
