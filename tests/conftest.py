import pytest

from cycleiso.survey import _connected_codes, enumerate_connected, graph_from_code


@pytest.fixture(scope="session")
def universe6():
    return [g for n in range(1, 7) for g in enumerate_connected(n)]


@pytest.fixture(scope="session")
def universe7():
    return [g for n in range(1, 8) for g in enumerate_connected(n)]


@pytest.fixture(scope="session")
def connected_codes8():
    """The enumerator's sorted code tuples for orders 1..8, built once per
    session: some tests clear the enumeration cache, and order 8 takes
    seconds to rebuild."""
    return [_connected_codes(n) for n in range(1, 9)]


@pytest.fixture(scope="session")
def universe8(connected_codes8):
    # what enumerate_connected(n) yields for n = 1..8
    return [
        graph_from_code(n, code) for n, codes in enumerate(connected_codes8, 1) for code in codes
    ]
