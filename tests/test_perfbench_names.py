"""Every name the benchmark's tracer wraps still exists in obd.

perfbench/tracing.py replaces the functions and methods in its
LAYER_CALLS table with timing wrappers; a traced run stops with an error
when one of them has moved or been renamed.  This checks the table
against the code, reading perfbench/ without changing it.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_calls_resolve():
    layer_calls = load_tracing().LAYER_CALLS
    assert layer_calls
    missing = []
    for span, (module, cls, attr) in layer_calls.items():
        home = importlib.import_module(module)
        if cls is None:
            found = callable(getattr(home, attr, None))
        else:
            # the tracer patches methods through the class __dict__
            owner = getattr(home, cls, None)
            found = owner is not None and attr in owner.__dict__
        if not found:
            missing.append(f"{span}: {module}.{cls + '.' if cls else ''}{attr}")
    assert missing == []
