"""Every name the benchmark's tracer wraps still exists in obd.

perfbench/tracing.py replaces the functions and methods in its
LAYER_CALLS table with timing wrappers; a traced run stops with an error
when one of them has moved or been renamed.  This checks the table
against the code, reading perfbench/ without changing it.  It also
counts the states a product or subset construction builds from the
kernel's return value, so that reading is checked against the kernels.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from obd import _kernels as K

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


def test_states_built_counts_output_states():
    states_built = load_tracing()._states_built
    # two machines of two states over the letters 0 and 1
    a = (np.array([0, 2, 3], np.int64), np.array([0, 1, 1], np.int32),
         np.array([1, 0, 1], np.int32), np.array([0, 1], np.uint8))
    b = (np.array([0, 2, 3], np.int64), np.array([0, 1, 0], np.int32),
         np.array([0, 1, 0], np.int32), np.array([1, 0], np.uint8))
    for mode in range(4):
        out = K.pair_product(*a, 0, *b, 0, mode)
        assert states_built(out) == out[3].size > 2
    # both letters read as 0: the subsets {0} and {0, 1}
    out = K.determinize(*a, np.array([0]), np.array([0, 0]), False)
    assert states_built(out) == out[3].size == 2
