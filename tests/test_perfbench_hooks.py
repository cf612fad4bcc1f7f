"""The benchmark's hooks into vkbr still resolve.

perfbench/tracing.py wraps vkbr functions by (module, attribute) name, and
the perfbench scripts import names from vkbr.  A rename in vkbr would
break `perfbench/run.py --trace 1` without failing any other test, so both
are checked here against the live package.  A name that resolves can
still escape its span, when a caller keeps its own reference to the
function, so one traced call per reader must record that reader's span.
"""

import ast
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import vkbr.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _vkbr_uses(path):
    """(dotted path, attribute) for each name a script imports from vkbr,
    and for each attribute it reads off a vkbr module it imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vkbr":
            for alias in node.names:
                found.append((node.module, alias.name))
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "vkbr":
                    found.append((alias.name, None))
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                found.append((modules[node.value.id], node.attr))
    return found


def _lookup(dotted, attr):
    """Import `dotted` (a module, or a module's attribute) and read `attr`."""
    try:
        target = importlib.import_module(dotted)
    except ModuleNotFoundError:
        module_name, _, name = dotted.rpartition(".")
        target = getattr(importlib.import_module(module_name), name)
    if attr is None:
        return target
    if not hasattr(target, attr):
        return importlib.import_module(f"{dotted}.{attr}")  # a submodule
    return getattr(target, attr)


def test_every_traced_layer_resolves_to_a_callable():
    layers = _load_tracing().LAYERS
    targets = [target for _, targets in layers.values() for target in targets]
    assert targets
    for module_name, attr in targets:
        owner, _, name = f"{module_name}.{attr}".rpartition(".")
        assert callable(_lookup(owner, name)), (module_name, attr)


@pytest.mark.parametrize("script", ["workloads.py", "oracle.py", "run.py"])
def test_every_name_used_from_vkbr_exists(script):
    uses = _vkbr_uses(PERFBENCH / script)
    assert uses
    for dotted, attr in uses:
        _lookup(dotted, attr)


@pytest.mark.parametrize(
    "argv, text, span",
    [
        (["verify", "--signed", "-"], "X a b b a o=1\n", "diagram.parse"),
        (["br-poly", "-"], "V u : a1 a2\nE a : a1 a2\n", "ribbon.parse"),
    ],
)
def test_a_traced_call_records_its_parse_span(monkeypatch, capsys, argv, text, span):
    """The command line must look its readers up where the spans are
    installed; a reader it kept a reference to escapes them."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    restore = tracing.instrument(tracer)
    try:
        code = vkbr.cli.main(argv)
    finally:
        restore()
    capsys.readouterr()
    assert code == 0
    assert span in tracer.names
