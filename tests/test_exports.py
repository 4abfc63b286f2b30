"""Every name a public module lists in __all__ can be imported from it.

The modules are found, not listed: the package and each of its modules
that defines __all__.
"""
import importlib
import pkgutil

import pytest

import obd

EXPORTING = [name for name in ["obd"] + [
    f"obd.{info.name}" for info in pkgutil.iter_modules(obd.__path__)]
    if hasattr(importlib.import_module(name), "__all__")]


def test_modules_are_found():
    assert {"obd", "obd.beatty", "obd.logic", "obd.regexlang",
            "obd.relations"} <= set(EXPORTING)


@pytest.mark.parametrize("module", EXPORTING)
def test_star_import(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = importlib.import_module(module).__all__
    assert [name for name in exported if name not in namespace] == []
