import importlib
import pkgutil

import pytest

import gmsel


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(gmsel.__path__)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"gmsel.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
