"""Volumes, the element f, convolution identities, and the
finite-quotient counting oracle for SL(2)."""

from fractions import Fraction

import pytest
import sympy

import heckej.sl2
from heckej import BudgetExceeded, DepthTooSmall, DivergentTail
from heckej.sl2 import (
    CellFunction,
    Lattice,
    brute_force_count,
    canonical_str,
    cell_value_from_count,
    conv_cell_value,
    conv_f_value,
    gamma_coefficient,
    q,
    schwartz_decay_check,
    standard_f,
    verify_relations,
    volume_ratio,
)


def rat(expr, p):
    return Fraction(sympy.Rational(expr.subs(q, p)))


def test_gamma_coefficients_closed_form():
    # q is served lazily by the module; no other missing name is
    assert heckej.sl2.q == sympy.Symbol("q", positive=True)
    assert heckej.sl2.q is q
    with pytest.raises(AttributeError):
        getattr(heckej.sl2, "no_such_name")
    assert gamma_coefficient(0) == 1
    assert gamma_coefficient(1) == -1 / q
    assert gamma_coefficient(2) == -(q ** (-3))
    assert gamma_coefficient(-1) == q ** (-2)
    assert gamma_coefficient(-2) == q ** (-4)


def test_volume_ratios_closed_form():
    assert volume_ratio(0) == 1
    assert volume_ratio(1) == q
    assert volume_ratio(2) == q**3
    assert volume_ratio(-1) == q**2
    assert volume_ratio(-2) == q**4


def test_volume_ratio_growth():
    # the ratio grows geometrically in |n| on both sides of the K cell
    assert sympy.cancel(volume_ratio(1) / volume_ratio(0)) == q
    assert sympy.cancel(volume_ratio(-1) / volume_ratio(0)) == q**2
    for n in range(2, 6):
        assert sympy.cancel(volume_ratio(n) / volume_ratio(n - 1)) == q**2
        assert sympy.cancel(volume_ratio(-n) / volume_ratio(-n + 1)) == q**2


def test_coefficient_relations():
    report = verify_relations(50)
    assert len(report) == 101
    assert all(ok for _, _, ok in report)
    with pytest.raises(ValueError):
        verify_relations(0)


def test_standard_f_matches_gamma():
    f = standard_f()
    for n in range(-8, 9):
        assert sympy.cancel(f.coefficient(n) - gamma_coefficient(n)) == 0


def test_convolution_with_standard_lattice():
    for r in range(-5, 1):
        assert sympy.cancel(conv_f_value(r, Lattice.STD) - (q + 1)) == 0
    for r in range(1, 6):
        assert conv_f_value(r, Lattice.STD) == 0


def test_convolution_with_sublattice_vanishes():
    for r in range(-5, 6):
        assert conv_f_value(r, Lattice.SUB) == 0


def test_cell_values_sample():
    assert conv_cell_value(0, 0, Lattice.STD) == q + 1
    assert conv_cell_value(0, 1, Lattice.STD) == 0
    assert conv_cell_value(1, 0, Lattice.STD) == q
    assert conv_cell_value(1, 1, Lattice.SUB) == 0  # boundary r > n - 1
    assert conv_cell_value(1, 0, Lattice.SUB) == q
    assert conv_cell_value(-1, 0, Lattice.SUB) == q
    assert sympy.cancel(conv_cell_value(2, -3, Lattice.STD) - (q + 1) * q**3) == 0


def test_divergent_tail_rejected():
    bad = CellFunction(
        exceptional=(),
        pos_tail=(1, sympy.Integer(1), sympy.Integer(1)),
        neg_tail=(0, sympy.Integer(1), q ** (-2)),
    )
    with pytest.raises(DivergentTail):
        conv_f_value(0, Lattice.STD, bad)


def test_counting_oracle_spot_values():
    # vol(K_{1,0}) / vol(K) for q = 2: q / (q + 1) / q^... = 1/3
    assert brute_force_count(2, 4, 1, 0, Lattice.STD) == Fraction(1, 3)
    assert cell_value_from_count(2, 4, 1, 0, Lattice.STD) == 2
    assert cell_value_from_count(2, 4, 1, 2, Lattice.STD) == 0
    assert cell_value_from_count(3, 3, 0, 0, Lattice.STD) == 4  # q + 1 at q = 3


def test_counting_oracle_total_is_group_order():
    from heckej.sl2 import _completion_census

    for p, m in [(2, 3), (3, 2)]:
        census = _completion_census(p, m)
        order = p ** (3 * m) * (1 - Fraction(1, p * p))
        assert sum(census.values()) == order


def test_counting_oracle_preconditions():
    with pytest.raises(ValueError):
        brute_force_count(4, 2, 0, 0, Lattice.STD)
    with pytest.raises(DepthTooSmall):
        # threshold r - n + 1 = 5 exceeds the depth
        brute_force_count(2, 4, -2, 2, Lattice.SUB)
    with pytest.raises(BudgetExceeded):
        brute_force_count(3, 6, 0, 0, Lattice.STD)
    # impossible double divisibility is decidable at any depth
    assert brute_force_count(2, 2, 2, 3, Lattice.STD) == 0


@pytest.mark.parametrize("p,m", [(2, 4), (3, 4)])
def test_oracle_grid_cross_check(p, m):
    """Counting oracle vs the closed-form case table on the full grid;
    the single point per prime whose valuation threshold exceeds the
    depth is skipped (and covered at greater depth below)."""
    skipped = []
    for n in range(-2, 3):
        for r in range(-3, 4):
            for lat in Lattice:
                try:
                    got = cell_value_from_count(p, m, n, r, lat)
                except DepthTooSmall:
                    skipped.append((n, r, lat))
                    continue
                assert got == rat(conv_cell_value(n, r, lat), p), (n, r, lat)
    assert skipped == [(-2, 2, Lattice.SUB)]


def test_oracle_deep_point_at_greater_depth():
    got = cell_value_from_count(2, 7, -2, 2, Lattice.SUB)
    assert got == rat(conv_cell_value(-2, 2, Lattice.SUB), 2)


def test_oracle_validates_volume_ratios():
    # witness point per n with small thresholds; exact identity
    # ratio(n) * (q+1) * counted_fraction = closed-form cell value
    witnesses = {0: 0, 1: 0, 2: -1, -1: 0, -2: -1}
    for p, m in [(2, 4), (3, 3)]:
        for n, r in witnesses.items():
            frac = brute_force_count(p, m, n, r, Lattice.STD)
            assert frac > 0
            lhs = rat(volume_ratio(n), p) * (p + 1) * frac
            assert lhs == rat(conv_cell_value(n, r, Lattice.STD), p)


def test_schwartz_decay():
    report = schwartz_decay_check(10, Fraction(2))
    assert len(report) == 21
    assert all(ok for _, _, ok in report)
    with pytest.raises(ValueError):
        schwartz_decay_check(3, Fraction(1))


def test_canonical_str():
    assert canonical_str(q + 1) == "q + 1"
    assert canonical_str(1 / q) == "(1)/(q)"
    assert canonical_str((q**2 - 1) / (q - 1)) == "q + 1"
    assert canonical_str(-(q ** (-3))) == "(-1)/(q**3)"
