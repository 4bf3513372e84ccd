"""No dataclass of the package takes a private field through its
constructor: a cache or memo that ``__init__`` accepts is one that
``dataclasses.replace`` hands on, so a derived object would share it."""

import dataclasses
import importlib
import inspect
import pkgutil

import elrbounds

MODULES = [importlib.import_module(f"elrbounds.{name}")
           for _, name, _ in pkgutil.iter_modules(elrbounds.__path__)]

DATACLASSES = sorted(
    {obj for module in MODULES for _, obj in inspect.getmembers(module, inspect.isclass)
     if dataclasses.is_dataclass(obj) and obj.__module__.startswith("elrbounds.")},
    key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def test_the_walk_finds_the_cached_dataclasses():
    names = {cls.__qualname__ for cls in DATACLASSES}
    assert {"FunctionBundle", "GammaContext", "RunConfig"} <= names


def test_private_fields_are_not_constructor_arguments():
    passed = [f"{cls.__module__}.{cls.__qualname__}.{field.name}"
              for cls in DATACLASSES for field in dataclasses.fields(cls)
              if field.name.startswith("_") and field.init]
    assert passed == []
