"""Shared fixtures.

The JRing objects are built once per session and shared by all test
modules; their own KL tables are small (radius L + len(w0) - 1: 15 and
12).  The reference scan of scan_a_values builds a KL table of its own,
of radius 2S - 1 (37 and 35 for the two rings), once per group and L.
"""

import functools
import itertools

import pytest

from heckej import (
    GroupDescriptor,
    HeckeElement,
    JRing,
    KLTable,
    Laurent,
    StructureConstants,
    certification_bound,
    make_group,
)


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


@pytest.fixture(scope="session")
def a1x_ring():
    return JRing(GroupDescriptor("A1~", extended=True), 8)


@pytest.fixture(scope="session")
def a2x_ring():
    return JRing(GroupDescriptor("A2~", extended=True), 8)


@pytest.fixture(scope="session")
def scan_a_values():
    """The reference the certified a-function is checked against: the
    all-pairs scan.  scan(desc, L)[id][r], for S = certification_bound(desc,
    L), r <= S and the Coxeter id of each z with len(z) <= S, is minus the
    least valuation of h_{x,y,z} over all x, y in ball(r): the running
    minimum of the strata of StructureConstants.scan_min_exponents(S, S)."""

    @functools.cache
    def scan(desc: GroupDescriptor, radius: int) -> dict[int, list[int]]:
        bound = certification_bound(desc, radius)
        constants = StructureConstants(KLTable(make_group(desc), 2 * bound - 1))
        strata = constants.scan_min_exponents(bound, bound)
        return {z: [-low for low in itertools.accumulate(mins, min)] for z, mins in strata.items()}

    return scan


@pytest.fixture(scope="session")
def c_oracle():
    """The basis C_w of Kazhdan and Lusztig, built in ~T from the KL
    polynomials alone: c_oracle(table, w) is

        C_w = sum_y star(v^(len(y) - len(w)) P_{y,w}(v^2)) ~T_y,

    star being v -> -v^-1.  It shares no basis-conversion code with
    heckej, which computes only in C' and applies star at the CLI."""

    @functools.cache
    def build(table: KLTable, w) -> HeckeElement:
        terms = {}
        for y in table.group.enumerate_ball(len(w.word)):
            p = table.kl_polynomial(y, w)
            if p:
                terms[y] = (p * Laurent.monomial(len(y.word) - len(w.word))).star()
        return HeckeElement(table.desc, "Ttilde", terms)

    return build
