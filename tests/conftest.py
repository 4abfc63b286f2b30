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


def csr_rows(indptr, letters, targets):
    """The rows and target rows of a machine given as CSR arrays, sorted
    by (state, letter): a letter tuple per state, equal rows sharing one,
    and a target list per state."""
    ip, lt, tg = indptr.tolist(), letters.tolist(), targets.tolist()
    shared: dict = {}
    return ([shared.setdefault(row, row)
             for row in (tuple(lt[ip[s]:ip[s + 1]]) for s in range(len(ip) - 1))],
            [tg[ip[s]:ip[s + 1]] for s in range(len(ip) - 1)])


def assert_rows_invariant(rows, succ, acc):
    """The rows contract of the ``_kernels`` module docstring, with the
    states numbered in BFS discovery order from state 0, so every state
    is reachable: each row a strictly increasing letter tuple with one
    target per letter, the flags plain ints 0 or 1."""
    n = len(acc)
    assert len(rows) == len(succ) == n
    assert all(type(f) is int and f in (0, 1) for f in acc)
    for row, out in zip(rows, succ):
        assert type(row) is tuple and type(out) is list
        assert len(row) == len(out)
        assert all(x < y for x, y in zip(row, row[1:]))
    order, seen = [0], {0}
    for s in order:  # the loop visits states appended while it runs
        for t in succ[s]:
            if t not in seen:
                seen.add(t)
                order.append(t)
    assert order == list(range(n))


def assert_offsets(indptr, rows):
    """`indptr` is the int64 array of the row offsets of `rows`."""
    assert indptr.dtype == np.int64
    assert indptr.tolist() == [0, *accumulate(map(len, rows))]


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
