"""Every top-level import of a vkbr module is read by that module, every
function it defines is named somewhere, and no module or test imports
numpy.

No linter ships with the project, so this reads each module's syntax tree:
a name bound by a top-level import must be loaded somewhere in the module.
The package's __init__.py is left out; its imports are the public names.
A function, method or property defined in a vkbr module must be named in
the package, the tests, tools/ or perfbench/, where a string that spells
it counts: perfbench/tracing.py wraps functions by string name.
"""

import ast
import re
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


# -- definitions nothing names ---------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
SCANNED = MODULES + [Path(vkbr.__file__)] + sorted(
    path for folder in ("tests", "tools", "perfbench") for path in (ROOT / folder).glob("*.py")
)
_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*\Z")


def defined_functions(source: str) -> set[str]:
    """Names of the functions, methods and properties a module defines,
    dunder names left out."""
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def named(source: str) -> set[str]:
    """Every name a module reads, loads as an attribute or imports, and
    every part of a string constant that is a dotted name, since functions
    can be looked up by a string such as "module.function"."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.match(node.value):
                names.update(node.value.split("."))
    return names


def unnamed_definitions(defining, naming) -> list[str]:
    """Functions defined in the `defining` sources that no source in
    `naming` names."""
    defined = set().union(*map(defined_functions, defining))
    return sorted(defined - set().union(*map(named, naming)))


def test_every_function_is_named_somewhere():
    sources = {path: path.read_text(encoding="utf-8") for path in SCANNED}
    assert unnamed_definitions([sources[path] for path in MODULES], sources.values()) == []


def test_the_scan_sees_an_unnamed_function():
    module = (
        "class C:\n"
        "    @property\n    def used(self): return 1\n"
        "    @property\n    def unused(self): return 2\n"
        "    def __eq__(self, other): return True\n"
        "def by_string(): pass\n"
        "def helper(): pass\n"
    )
    caller = 'LAYERS = [("pkg.module", "by_string")]\nprint(C().used, helper)\n'
    assert unnamed_definitions([module], [module, caller]) == ["unused"]
    assert unnamed_definitions([module], [module]) == ["by_string", "helper", "unused", "used"]


# -- the kernels' boundary -------------------------------------------------
# No module imports numpy, and no test does: the reference sweeps are
# plain loops.  Every module but _kernels reaches _kernels through
# frontier_histogram alone, since the sweeps are the tests' reference.

KERNELS = "_kernels"


def imported_names(source: str) -> list[str]:
    """What each import anywhere in a module names, at any depth, dotted:
    `import a.b` names a.b, and `from a import b` names a.b."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return names


def numpy_imports(source: str) -> list[str]:
    """Imports anywhere in a module, at any depth, of numpy."""
    return [name for name in imported_names(source) if name.split(".")[0] == "numpy"]


def boundary_faults(source: str) -> list[str]:
    """Imports anywhere in a module, at any depth, of numpy, or of any
    name from _kernels but frontier_histogram (_kernels itself included)."""
    return [
        name for name in imported_names(source)
        if name.split(".")[0] == "numpy"
        or KERNELS in name.split(".") and name.split(".")[-2:] != [KERNELS, "frontier_histogram"]
    ]


@pytest.mark.parametrize("path", MODULES + [Path(vkbr.__file__)], ids=lambda path: path.name)
def test_no_module_imports_numpy(path):
    assert numpy_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", sorted((ROOT / "tests").glob("*.py")), ids=lambda path: path.name
)
def test_no_test_imports_numpy(path):
    assert numpy_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.stem != KERNELS], ids=lambda path: path.name
)
def test_only_kernels_reach_numpy_and_the_sweeps(path):
    assert boundary_faults(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_the_boundary_crossed():
    source = (
        "from ._kernels import frontier_histogram, histogram\n"
        "from vkbr import _kernels\n"
        "import vkbr._kernels\n"
        "def sweep():\n"
        "    import numpy as np\n"
        "    from numpy import arange\n"
    )
    assert boundary_faults(source) == [
        "_kernels.histogram", "vkbr._kernels", "vkbr._kernels", "numpy", "numpy.arange"
    ]
    assert numpy_imports(source) == ["numpy", "numpy.arange"]
    assert boundary_faults("from ._kernels import frontier_histogram\n") == []
