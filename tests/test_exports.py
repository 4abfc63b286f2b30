"""Every name a public module lists in __all__ can be imported from it."""
import importlib

import pytest


@pytest.mark.parametrize("module", ["obd", "obd.relations", "obd.logic",
                                    "obd.beatty"])
def test_star_import(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = importlib.import_module(module).__all__
    assert [name for name in exported if name not in namespace] == []
