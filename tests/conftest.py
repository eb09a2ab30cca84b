"""Shared fixtures: root data and builtin tables, session-scoped so the
per-datum memo caches are reused across tests."""

import inspect
import sys

import pytest

from affkl import hecke, rootdata


@pytest.fixture(scope="session")
def a1():
    return rootdata.build_root_datum("A1")


@pytest.fixture(scope="session")
def a2():
    return rootdata.build_root_datum("A2")


@pytest.fixture(scope="session")
def c2():
    return rootdata.build_root_datum("C2")


@pytest.fixture(scope="session")
def a1_table(a1):
    return hecke.builtin_kl_table(a1)


@pytest.fixture(scope="session")
def a2_table(a2):
    return hecke.builtin_kl_table(a2)


@pytest.fixture(scope="session")
def c2_table(c2):
    return hecke.builtin_kl_table(c2)


@pytest.fixture
def low_recursion_limit():
    """Lower the recursion limit to 100 frames above the fixture's own
    depth for one test; the old limit is restored afterwards."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    yield
    sys.setrecursionlimit(limit)
