import importlib
import pkgutil

import pytest

import tetraclausen

MODULES = ["tetraclausen"] + ["tetraclausen." + m.name
                              for m in pkgutil.iter_modules(tetraclausen.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, "%s.__all__ names undefined %s" % (name, missing)
