"""The package's public surface is exactly the modules' ``__all__`` lists:
a name deleted from a module cannot linger in an ``__all__`` or in the
package's re-exports.  The tests' oracles are built on that surface."""

import ast
import importlib
from pathlib import Path

import pytest

import stableheat
from stableheat import errors

MODULES = ("noise", "kernel", "coefficients", "solvers", "experiments")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"stableheat.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_exactly_the_module_exports():
    expected = {}
    for name in MODULES:
        module = importlib.import_module(f"stableheat.{name}")
        expected.update({attr: getattr(module, attr) for attr in module.__all__})
    reexported = {
        attr: value
        for attr, value in vars(stableheat).items()
        if not attr.startswith("_")
        and not isinstance(value, type(stableheat))
        and getattr(errors, attr, None) is not value
    }
    assert reexported.keys() == expected.keys()
    assert all(reexported[attr] is expected[attr] for attr in expected)


def test_the_oracles_import_public_names_only():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = [
        (getattr(node, "module", None) or "", alias.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    assert any(module.startswith("stableheat") for module, _ in imported)
    assert not [
        (module, name) for module, name in imported
        if any(part.startswith("_") for part in [*module.split("."), *name.split(".")])
    ]
