"""Every exported name resolves: a deletion leaves no stale export behind."""

import ast
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import pytest

import thermrom

MODULES = sorted(info.name for info in pkgutil.iter_modules(thermrom.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"thermrom.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"thermrom.{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_exported_class_annotations_resolve(name):
    module = importlib.import_module(f"thermrom.{name}")
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        if inspect.isclass(obj):
            typing.get_type_hints(obj)  # NameError for an unimported annotation


def test_package_imports_resolve():
    tree = ast.parse(Path(thermrom.__file__).read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    for module, name in imports:
        source = importlib.import_module(f"thermrom.{module}")
        assert hasattr(source, name), f"thermrom.{module} has no {name}"
        assert getattr(thermrom, name) is getattr(source, name)
