"""Volumes, the element f, convolution identities, and the
finite-quotient counting oracle for SL(2).

The library returns Laurent polynomials in v with q = v^2.  The closed
forms below are stated in sympy, the independent test oracle, and each
library value is converted with ``sym`` before it is compared."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

import heckej.sl2
from heckej import BudgetExceeded, DepthTooSmall, DivergentTail, NotLaurentPolynomial
from heckej.laurent import ONE, ZERO, Laurent
from heckej.sl2 import (
    CellFunction,
    Lattice,
    brute_force_count,
    canonical_str,
    cell_value_from_count,
    conv_cell_value,
    conv_f_value,
    gamma_coefficient,
    schwartz_decay_check,
    standard_f,
    verify_relations,
    volume_ratio,
)

q = sympy.Symbol("q", positive=True)


def sym(x):
    """A Laurent polynomial with even v-exponents as a sympy expression in q."""
    assert all(e % 2 == 0 for e, _ in x.items()), x
    return sympy.Add(*(c * q ** (e // 2) for e, c in x.items()))


def rat(x, p):
    return Fraction(sympy.Rational(sym(x).subs(q, p)))


def qpow(k, coeff=1):
    return Laurent.monomial(2 * k, coeff)


# -- the sympy closed forms the library replaced, kept as the oracle ------

def oracle_gamma(n):
    return q ** (2 * n) if n <= 0 else -(q ** (-2 * n + 1))


def oracle_volume(n):
    return q ** (2 * n - 1) if n > 0 else q ** (-2 * n)


def oracle_cell_value(n, r, lattice):
    if lattice is Lattice.STD:
        if n > 0:
            if r > n:
                return sympy.Integer(0)
            if r <= -n:
                return (q + 1) * q ** (2 * n - 1)
            return q ** (n - r)
        if n < 0:
            m = -n
            if r > m:
                return sympy.Integer(0)
            if r <= -m:
                return (q + 1) * q ** (2 * m)
            return q ** (m - r + 1)
        return (q + 1) if r <= 0 else sympy.Integer(0)
    if n > 0:
        if r > n - 1:
            return sympy.Integer(0)
        if r <= -n:
            return (q + 1) * q ** (2 * n - 1)
        return q ** (n - r)
    m = -n
    if r > m:
        return sympy.Integer(0)
    if r <= -m - 1:
        return (q + 1) * q ** (2 * m)
    return q ** (m - r)


def oracle_conv_f_value(r, lattice, f):
    """A window summed term by term plus two geometric tails, each
    first / (1 - ratio) as a sympy rational function."""
    window = max([abs(r) + 1, f.pos_tail[0], -f.neg_tail[0]]
                 + [abs(k) for k, _ in f.exceptional]) + 1
    total = sympy.Integer(0)
    for n in range(-window, window + 1):
        total += sym(f.coefficient(n)) * oracle_cell_value(n, r, lattice)
    for n, tail in ((window + 1, f.pos_tail), (-window - 1, f.neg_tail)):
        first = sym(f.coefficient(n)) * oracle_cell_value(n, r, lattice)
        if first != 0:
            total += first / (1 - sym(tail[2]) * q)
    return sympy.cancel(total)


def oracle_canonical_str(expr):
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    lead = sympy.LC(sympy.Poly(den, q)) if den.has(q) else den
    num = sympy.expand(num / lead)
    den = sympy.expand(den / lead)
    if den == 1:
        return str(num)
    return f"({num})/({den})"


# -- closed forms ----------------------------------------------------------

def test_gamma_coefficients_closed_form():
    assert sym(heckej.sl2.q) == q
    assert sym(gamma_coefficient(0)) == 1
    assert sym(gamma_coefficient(1)) == -1 / q
    assert sym(gamma_coefficient(2)) == -(q ** (-3))
    assert sym(gamma_coefficient(-1)) == q ** (-2)
    assert sym(gamma_coefficient(-2)) == q ** (-4)


def test_volume_ratios_closed_form():
    assert sym(volume_ratio(0)) == 1
    assert sym(volume_ratio(1)) == q
    assert sym(volume_ratio(2)) == q**3
    assert sym(volume_ratio(-1)) == q**2
    assert sym(volume_ratio(-2)) == q**4


def test_volume_ratio_growth():
    # the ratio grows geometrically in |n| on both sides of the K cell
    assert sympy.cancel(sym(volume_ratio(1)) / sym(volume_ratio(0))) == q
    assert sympy.cancel(sym(volume_ratio(-1)) / sym(volume_ratio(0))) == q**2
    for n in range(2, 6):
        assert sympy.cancel(sym(volume_ratio(n)) / sym(volume_ratio(n - 1))) == q**2
        assert sympy.cancel(sym(volume_ratio(-n)) / sym(volume_ratio(-n + 1))) == q**2


def test_closed_forms_match_sympy_oracle_on_grid():
    """Every value the CLI can print on |n|, |r| <= 8 equals the sympy
    closed form, and prints as the sympy num/den form did."""
    for n in range(-8, 9):
        for got, want in ((gamma_coefficient(n), oracle_gamma(n)),
                          (volume_ratio(n), oracle_volume(n))):
            assert sympy.cancel(sym(got) - want) == 0, n
            assert canonical_str(got) == oracle_canonical_str(want), n
        for r in range(-8, 9):
            for lat in Lattice:
                got, want = conv_cell_value(n, r, lat), oracle_cell_value(n, r, lat)
                assert sympy.cancel(sym(got) - want) == 0, (n, r, lat)
                assert canonical_str(got) == oracle_canonical_str(want), (n, r, lat)
    for r in range(-8, 9):
        for lat in Lattice:
            got, want = conv_f_value(r, lat), oracle_conv_f_value(r, lat, standard_f())
            assert sympy.cancel(sym(got) - want) == 0, (r, lat)
            assert canonical_str(got) == oracle_canonical_str(want), (r, lat)


def test_coefficient_relations():
    report = verify_relations(50)
    assert len(report) == 101
    assert all(ok for _, _, ok in report)
    with pytest.raises(ValueError):
        verify_relations(0)


def test_standard_f_matches_gamma():
    f = standard_f()
    for n in range(-8, 9):
        assert f.coefficient(n) == gamma_coefficient(n)


def test_convolution_with_standard_lattice():
    for r in range(-5, 1):
        assert sym(conv_f_value(r, Lattice.STD)) == q + 1
    for r in range(1, 6):
        assert conv_f_value(r, Lattice.STD) == 0


def test_convolution_with_sublattice_vanishes():
    for r in range(-5, 6):
        assert conv_f_value(r, Lattice.SUB) == 0


def test_cell_values_sample():
    assert sym(conv_cell_value(0, 0, Lattice.STD)) == q + 1
    assert conv_cell_value(0, 1, Lattice.STD) == 0
    assert sym(conv_cell_value(1, 0, Lattice.STD)) == q
    assert conv_cell_value(1, 1, Lattice.SUB) == 0  # boundary r > n - 1
    assert sym(conv_cell_value(1, 0, Lattice.SUB)) == q
    assert sym(conv_cell_value(-1, 0, Lattice.SUB)) == q
    assert sympy.cancel(sym(conv_cell_value(2, -3, Lattice.STD)) - (q + 1) * q**3) == 0


def test_divergent_tail_rejected():
    tails = [
        (ONE, qpow(-2)),       # ratio * q = q on the positive side
        (qpow(-2), qpow(-1)),  # ratio * q = 1 on the negative side: still divergent
    ]
    for pos_ratio, neg_ratio in tails:
        bad = CellFunction(
            exceptional=(),
            pos_tail=(1, ONE, pos_ratio),
            neg_tail=(0, ONE, neg_ratio),
        )
        for lat in Lattice:
            with pytest.raises(DivergentTail):
                conv_f_value(0, lat, bad)


def test_convergent_sum_that_is_not_a_laurent_polynomial_rejected():
    # sum over n >= 1 of q^(2-2n) * q^n = q^2 / (q - 1) at r = 0
    f = CellFunction(exceptional=(), pos_tail=(1, ONE, qpow(-2)), neg_tail=(0, ZERO, qpow(-2)))
    assert sympy.cancel(oracle_conv_f_value(0, Lattice.STD, f) - q**2 / (q - 1)) == 0
    with pytest.raises(NotLaurentPolynomial):
        conv_f_value(0, Lattice.STD, f)


def test_custom_cell_functions_match_sympy_oracle():
    """Exceptional values, and scaling both tails of f alike, keep the
    sum a Laurent polynomial."""
    gamma = standard_f()
    fs = [
        CellFunction(((0, qpow(3)), (2, Laurent.monomial(0, 5)), (-4, qpow(-1, -2))),
                     gamma.pos_tail, gamma.neg_tail),
        CellFunction(((3, qpow(1)),), (1, qpow(1, -3), qpow(-2)), (0, qpow(2, 3), qpow(-2))),
    ]
    for f in fs:
        for r in range(-6, 7):
            for lat in Lattice:
                want = oracle_conv_f_value(r, lat, f)
                assert sympy.cancel(sym(conv_f_value(r, lat, f)) - want) == 0, (r, lat)


def test_exact_quotient_long_division():
    from heckej.sl2 import _exact_quotient

    rng = random.Random(6)
    for _ in range(300):
        quot = Laurent({rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(0, 4))})
        den = ONE + Laurent({rng.randint(-5, -1): rng.randint(-3, 3) for _ in range(3)})
        assert _exact_quotient(quot * den, den) == quot
        rem = Laurent.monomial(rng.randint(-4, 4), rng.choice([-1, 1]))
        if den != ONE:
            with pytest.raises(NotLaurentPolynomial):
                _exact_quotient(quot * den + rem, den)


def test_canonical_str():
    assert canonical_str(qpow(1) + ONE) == "q + 1"
    assert canonical_str(qpow(-1)) == "(1)/(q)"
    assert canonical_str(qpow(-3, -1)) == "(-1)/(q**3)"
    assert canonical_str(qpow(3) + qpow(2)) == "q**3 + q**2"
    assert canonical_str(ZERO) == "0"
    assert canonical_str(qpow(2, 3) - qpow(1, 2) + qpow(-2)) == "(3*q**4 - 2*q**3 + 1)/(q**2)"
    with pytest.raises(ValueError):
        canonical_str(Laurent.monomial(1))


# -- the finite-quotient counting oracle -----------------------------------

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


def _val(x, p, m):
    """The largest v <= m with p^v | x, by trial division."""
    v = 0
    while v < m and x % p ** (v + 1) == 0:
        v += 1
    return v


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 1)])
def test_census_matches_full_enumeration(p, m):
    """Every (a, b, c, d) in (Z/p^m)^4 with ad - bc = 1, tallied by
    (val a, val c), against the census, key by key."""
    from heckej.sl2 import _completion_census

    pm = p**m
    tally = {}
    for a, b, c, d in itertools.product(range(pm), repeat=4):
        if (a * d - b * c) % pm == 1:
            key = (_val(a, p, m), _val(c, p, m))
            tally[key] = tally.get(key, 0) + 1
    census = _completion_census(p, m)
    assert sorted(census) == sorted(tally)
    for key, count in tally.items():
        assert census[key] == count, key


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


def test_is_prime_matches_sympy():
    from heckej.sl2 import _is_prime

    small = range(-5, 10**5)
    assert [p for p in small if _is_prime(p)] == [p for p in small if sympy.isprime(p)]
    rng = random.Random(2024)
    big = [rng.randrange(2**80) for _ in range(300)]
    big += [sympy.nextprime(n) for n in big[:60]]
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    big += [3215031751, 3825123056546413051, 318665857834031151167461]
    for n in big:
        assert _is_prime(n) == sympy.isprime(n), n


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


def test_decay_digit_rule_is_exact():
    """A value below 2^bits is refused exactly when 2^bits has more than
    the budgeted digits: bits >= the bit length of 10^budget."""
    digits = [len(str(1 << bits)) for bits in range(14000)]
    for budget in (1, 2, 7, 100, 4000):
        limit = (10**budget).bit_length()
        for bits, d in enumerate(digits):
            assert (bits >= limit) == (d > budget), (budget, bits)


def test_size_budgets(monkeypatch):
    """Each closed-form request past its size budget is refused before any
    work; the boundary is checked with budgets shrunk to a few cells."""
    monkeypatch.setattr(heckej.sl2, "WINDOW_BUDGET", 10)
    monkeypatch.setattr(heckej.sl2, "RELATIONS_BUDGET", 10)
    monkeypatch.setattr(heckej.sl2, "DECAY_BUDGET", 10)
    # q^-10 at q = 2 and q = 5 is estimated at 7 and 10 digits
    monkeypatch.setattr(heckej.sl2, "DECAY_DIGITS_BUDGET", 7)
    gamma = standard_f()
    exceptional = CellFunction(((11, ONE),), gamma.pos_tail, gamma.neg_tail)
    # the window reaches |r| + 2 cells on each side for the standard f
    assert conv_f_value(-8, Lattice.STD) == conv_f_value(0, Lattice.STD)
    assert len(verify_relations(10)) == 21
    assert len(schwartz_decay_check(10, Fraction(2))) == 21
    for call in (
        lambda: conv_f_value(-9, Lattice.STD),
        lambda: conv_f_value(9, Lattice.SUB),
        lambda: conv_f_value(0, Lattice.STD, exceptional),
        lambda: verify_relations(11),
        lambda: schwartz_decay_check(11, Fraction(2)),
        lambda: schwartz_decay_check(10, Fraction(5)),
    ):
        with pytest.raises(BudgetExceeded):
            call()
