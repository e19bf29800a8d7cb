"""Every name a liecoh module lists in `__all__` resolves, so `import *`
cannot trip over an export whose definition is gone."""

import importlib
import pkgutil

import pytest

import liecoh

MODULES = sorted(m.name for m in pkgutil.iter_modules(liecoh.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"liecoh.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_modules_with_exports_are_covered():
    assert {"cohomology", "fileformat", "lie", "linalg", "pbw", "rep"} <= set(MODULES)
