"""Shared fixtures.

The JRing objects are built once per session and shared by all test
modules.  Their own KL tables are small (radius L + len(w0) - 1: 15 and
12), but the first explicit-radius a_function query, as the cell oracle
of test_a_oracle.py makes, extends a table to the scan's radius 2S - 1
(37 and 35) and runs the scan; every later test reuses both.
"""

import pytest

from heckej import GroupDescriptor, JRing


@pytest.fixture(scope="session")
def a1_desc():
    return GroupDescriptor("A1~")


@pytest.fixture(scope="session")
def a2_desc():
    return GroupDescriptor("A2~")


@pytest.fixture(scope="session")
def a1_ring(a1_desc):
    # radius 15 covers triple J-products of factors up to length 5
    # and phi for arguments up to length 14
    return JRing(a1_desc, 15)


@pytest.fixture(scope="session")
def a2_ring(a2_desc):
    # radius 10 covers triple J-products of factors up to length 3 and
    # phi for arguments up to length 5 (distinguished d reach length 5)
    return JRing(a2_desc, 10)
