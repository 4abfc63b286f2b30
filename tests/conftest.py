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
