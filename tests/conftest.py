import tracemalloc
from itertools import accumulate

import numpy as np
import pytest

from obd import NumerationSystem
from obd.automata import letter_code


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run long reproduction tests")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def accepts_rows(aut, rows):
    """Does `aut` accept the tracks `rows`, equal-length digit tuples, read
    column by column as letter codes?"""
    return aut.accepts_word([letter_code(col, aut.dmax) for col in zip(*rows)])


def equivalent(a, b):
    """Same language?  Machines over the same tracks and digits are
    canonical, so equal languages give equal canonical bytes."""
    assert (a.arity, a.dmax) == (b.arity, b.dmax), "incompatible automata"
    return a.canonical_bytes() == b.canonical_bytes()


def assert_rows_invariant(indptr, rows, succ, acc):
    """What ``canonical_rows`` trusts: state 0 first and the states in BFS
    discovery order, so every state is reachable; each row strictly
    letter sorted with one target per letter; `indptr` the row offsets."""
    n = acc.size
    assert acc.dtype == np.uint8 and indptr.dtype == np.int64
    assert len(rows) == len(succ) == n
    assert indptr.tolist() == [0, *accumulate(map(len, rows))]
    for row, out in zip(rows, succ):
        assert len(row) == len(out)
        assert all(x < y for x, y in zip(row, row[1:]))
    order, seen = [0], {0}
    for s in order:  # the loop visits states appended while it runs
        for t in succ[s]:
            if t not in seen:
                seen.add(t)
                order.append(t)
    assert order == list(range(n))


def traced_peak(fn, *args):
    """Peak traced allocation, in bytes, while fn(*args) runs, and its
    result."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out


CATALOG = {
    "msd_s13": (3, 1),
    "msd_s2": (2,),
    "msd_sqrt7": (4, 1, 1, 1),
    "msd_fib": (1,),
}


@pytest.fixture(scope="session")
def systems():
    return {name: NumerationSystem(name, period) for name, period in CATALOG.items()}


@pytest.fixture(scope="session", params=sorted(CATALOG))
def system(request, systems):
    return systems[request.param]
