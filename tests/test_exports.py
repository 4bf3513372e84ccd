"""Every exported name resolves: each module's ``__all__`` names objects
the module holds, and the package's ``__all__`` names only objects that
one of its modules exports, so a deleted name left behind in an
``__all__`` or in the package's imports fails here."""

import importlib
import pkgutil

import pytest

import elrbounds

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(elrbounds.__path__))


def test_every_module_is_found():
    assert {"cli", "elr_bounds", "functionals", "fuzzing"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"elrbounds.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), "a name is listed twice"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_are_module_exports():
    modules = [importlib.import_module(f"elrbounds.{name}") for name in MODULES]
    exported = elrbounds.__all__
    assert len(set(exported)) == len(exported), "a name is listed twice"
    for name in exported:
        assert hasattr(elrbounds, name), name
        homes = [m for m in modules
                 if name in m.__all__ and getattr(m, name) is getattr(elrbounds, name)]
        assert homes, f"{name} is exported by no elrbounds module"
