import doctest
import importlib
import pkgutil

import pytest

import cocycle_lab

MODULES = sorted(info.name for info in pkgutil.iter_modules(cocycle_lab.__path__))
WITH_EXAMPLES = {"cochains", "groups", "scalars"}


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"cocycle_lab.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0 or name not in WITH_EXAMPLES
